#include "live/event_loop.hpp"

#include <sys/epoll.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "live/udp.hpp"

namespace tv::live {

EventLoop::EventLoop(ClockMode mode)
    : mode_(mode), epoll_fd_(::epoll_create1(0)) {
  if (epoll_fd_ < 0) {
    throw std::runtime_error{std::string{"EventLoop: epoll_create1: "} +
                             std::strerror(errno)};
  }
  if (mode_ == ClockMode::kMonotonic) {
    monotonic_origin_s_ = monotonic_now_s();
  }
}

EventLoop::~EventLoop() { ::close(epoll_fd_); }

double EventLoop::monotonic_now_s() const {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double EventLoop::now_s() const {
  if (mode_ == ClockMode::kVirtual) return virtual_now_s_;
  return monotonic_now_s() - monotonic_origin_s_;
}

void EventLoop::watch_readable(int fd, std::function<void()> on_readable) {
  for (auto& [watched_fd, callback] : watchers_) {
    if (watched_fd == fd) {
      // Same descriptor, new callback: the epoll registration stands.
      callback = std::move(on_readable);
      return;
    }
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) < 0) {
    throw std::runtime_error{std::string{"EventLoop: epoll_ctl add: "} +
                             std::strerror(errno)};
  }
  watchers_.emplace_back(fd, std::move(on_readable));
  repoll_ = true;  // the descriptor may already hold data.
}

void EventLoop::unwatch(int fd) {
  const auto end = std::remove_if(watchers_.begin(), watchers_.end(),
                                  [fd](const auto& w) { return w.first == fd; });
  if (end == watchers_.end()) return;
  watchers_.erase(end, watchers_.end());
  // The descriptor may already be closed; deregistration is best-effort.
  (void)::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
}

namespace {

// Heap order for the <algorithm> heap functions: the front of timers_ is
// the timer that fires first.  (deadline, id) is a strict total order, so
// every valid heap pops in the same order.
constexpr auto fires_later = [](const auto& a, const auto& b) {
  return b.fires_before(a);
};

}  // namespace

EventLoop::TimerId EventLoop::schedule_at(double deadline_s,
                                          std::function<void()> callback) {
  const TimerId id = next_timer_id_++;
  timers_.push_back(Timer{deadline_s, id, std::move(callback)});
  std::push_heap(timers_.begin(), timers_.end(), fires_later);
  return id;
}

EventLoop::TimerId EventLoop::schedule_after(double delay_s,
                                             std::function<void()> callback) {
  return schedule_at(now_s() + delay_s, std::move(callback));
}

void EventLoop::cancel(TimerId id) {
  const auto it = std::find_if(timers_.begin(), timers_.end(),
                               [id](const Timer& t) { return t.id == id; });
  if (it == timers_.end()) return;
  if (it != timers_.end() - 1) *it = std::move(timers_.back());
  timers_.pop_back();
  std::make_heap(timers_.begin(), timers_.end(), fires_later);
}

std::function<void()> EventLoop::pop_earliest() {
  std::pop_heap(timers_.begin(), timers_.end(), fires_later);
  std::function<void()> callback = std::move(timers_.back().callback);
  timers_.pop_back();
  return callback;
}

std::size_t EventLoop::find_watcher(int fd) const {
  std::size_t i = 0;
  while (i < watchers_.size() && watchers_[i].first != fd) ++i;
  return i;
}

std::size_t EventLoop::dispatch_fd(int fd) {
  // Re-find by fd: an earlier callback this round may have unwatched or
  // replaced it.  An empty callback is one already running further up
  // the stack (a callback that pumps the loop).
  std::size_t i = find_watcher(fd);
  if (i == watchers_.size() || !watchers_[i].second) return 0;
  // The callback runs from a local, so unwatch() erasing its slot or
  // watch_readable() growing the table cannot pull it from under itself.
  // Moving a std::function allocates nothing.
  std::function<void()> callback = std::exchange(watchers_[i].second, {});
  callback();
  // Put it back unless it unwatched or replaced itself.
  i = find_watcher(fd);
  if (i < watchers_.size() && !watchers_[i].second) {
    watchers_[i].second = std::move(callback);
  }
  return 1;
}

std::size_t EventLoop::poll_once(int timeout_ms) {
  ++poll_rounds_;
  // With no watchers this is a plain sleep on the empty set: a monotonic
  // loop whose only pending work is a future timer sleeps to the
  // deadline here instead of spinning.
  epoll_event events[64];
  const int ready = ::epoll_wait(epoll_fd_, events,
                                 static_cast<int>(std::size(events)),
                                 timeout_ms);
  if (ready < 0) {
    if (errno == EINTR) return 0;
    throw std::runtime_error{std::string{"EventLoop: epoll_wait: "} +
                             std::strerror(errno)};
  }
  // A full batch may have left ready descriptors for the next wait.
  if (ready == static_cast<int>(std::size(events))) repoll_ = true;
  std::size_t dispatched = 0;
  for (int i = 0; i < ready; ++i) {
    dispatched += dispatch_fd(events[i].data.fd);
  }
  return dispatched;
}

std::size_t EventLoop::pump() {
  std::size_t total = 0;
  for (;;) {
    const std::size_t n = poll_once(0);
    if (n == 0) return total;
    total += n;
  }
}

void EventLoop::run() {
  stopped_ = false;
  while (!stopped_) {
    if (mode_ == ClockMode::kVirtual) {
      // Drain I/O first so at most a handful of datagrams sit in kernel
      // buffers between timer firings — that bound is what makes virtual
      // runs immune to buffer overflow and hence deterministic.  The
      // drain happens before *every* jump, including to zero-delay and
      // already-past deadlines, whenever a descriptor could have become
      // readable since the last wait (header comment); the skipped waits
      // are exactly the ones that would have found nothing.
      const bool idle = timers_.empty();
      const std::uint64_t sends = sends_on_this_thread();
      if (idle || repoll_ || sends != sends_seen_) {
        repoll_ = false;
        sends_seen_ = sends;
        if (poll_once(0) > 0) continue;
        if (idle) return;  // nothing readable, no deadlines.
      }
      virtual_now_s_ = std::max(virtual_now_s_, timers_.front().deadline_s);
      pop_earliest()();
      continue;
    }

    // Monotonic mode: block in the kernel wait until the earliest
    // deadline.  A deadline already in the past yields a zero timeout —
    // one non-blocking drain, then the timer fires on this iteration.
    int timeout_ms = -1;
    if (!timers_.empty()) {
      const double wait_s = timers_.front().deadline_s - now_s();
      timeout_ms = wait_s <= 0.0
                       ? 0
                       : static_cast<int>(std::ceil(wait_s * 1e3));
    } else if (watchers_.empty()) {
      return;  // idle: no deadlines, nothing to watch.
    }
    poll_once(timeout_ms);
    // Fire everything that has come due.  The heap is re-read after every
    // callback so a timer cancelled by an earlier one in the same due
    // batch never fires.
    while (!stopped_ && !timers_.empty() &&
           timers_.front().deadline_s <= now_s()) {
      pop_earliest()();
    }
  }
}

void EventLoop::stop() { stopped_ = true; }

}  // namespace tv::live
