// Single-threaded event loop with deadline timers and two clock modes
// over one kernel wait, epoll(7).
//
// Every live role runs inside one of these: readable-fd callbacks drive
// datagram handling, deadline timers drive pacing and idle detection.
// There are no sleeps anywhere.  In monotonic mode the loop blocks in
// the kernel wait until the earliest deadline — real-time behaviour for
// LAN runs.  In virtual mode the clock is a number the loop advances to
// the next deadline whenever no descriptor is readable — the pinned
// loopback e2e test runs milliseconds of wall time for minutes of
// simulated transfer and is bit-reproducible because nothing ever waits
// on the wall clock.
//
// A virtual loop waits in the kernel only when a descriptor could have
// become readable since its last wait: after a send (live::UdpSocket
// counts its send calls per thread, sends_on_this_thread()), after
// watch_readable(), after a callback reported note_unread(), after a
// wait that filled its event batch, and once more before going idle.
// That is exact, not a heuristic, under three contracts:
//   * a readable callback reads its socket until it is empty, or calls
//     note_unread() when it stops early;
//   * every sender into a virtual loop runs on the loop's thread;
//   * loopback delivery completes inside the send call — the same
//     assumption that makes virtual runs deterministic at all.
// A wait the loop skips is one that would have found nothing, so the
// dispatch order, and every output, is the same as polling before every
// timer.  Monotonic mode waits in every round, as it must.
//
// The kernel wait is level-triggered epoll(7), so the live plane needs
// Linux: the multi-session server watches one descriptor per client
// session, and a wait that costs O(ready) rather than O(watched) is what
// keeps a 5000-session run linear.
//
// A readable callback may unwatch its own descriptor or watch new ones:
// the loop moves the callback out of its table for the call, so neither
// destroys nor moves the closure that is running.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace tv::live {

enum class ClockMode {
  kVirtual,    ///< clock jumps to the next deadline; the wait never blocks.
  kMonotonic,  ///< CLOCK_MONOTONIC; the wait blocks until the next deadline.
};

/// Whether a watchdog armed for `last_s + timeout_s` has come due at
/// `now_s`.  Watchdogs compare against the recomputed deadline, never
/// `now_s - last_s >= timeout_s`: the virtual clock jumps to exactly
/// `last_s + timeout_s`, and in floating point `(a + b) - a` can round
/// below `b` ((4.5180686659834715 + 5.0) - 4.5180686659834715 is
/// 4.999999999999999), which would re-arm the watchdog at an already-past
/// deadline and spin the loop forever at a frozen virtual time.
[[nodiscard]] inline bool deadline_reached(double last_s, double timeout_s,
                                           double now_s) {
  return last_s + timeout_s <= now_s;
}

class EventLoop {
 public:
  using TimerId = std::uint64_t;

  /// Throws std::runtime_error if the epoll instance cannot be created.
  explicit EventLoop(ClockMode mode);
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current time in seconds.  Virtual mode starts at 0; monotonic mode
  /// is relative to loop construction.
  [[nodiscard]] double now_s() const;

  /// Invoke `on_readable` whenever `fd` has data.  One watcher per fd.
  /// The callback reads until the socket is empty or calls note_unread().
  void watch_readable(int fd, std::function<void()> on_readable);
  void unwatch(int fd);

  /// Called by a readable callback that returns before its socket is
  /// empty: a virtual loop then waits again before its next timer, so the
  /// rest is read at the same virtual time.
  void note_unread() { repoll_ = true; }

  /// Schedule `callback` at an absolute loop time (seconds).  Timers at
  /// equal deadlines fire in scheduling order.  Past deadlines fire on
  /// the next iteration without busy-waiting.  Scheduling and firing
  /// allocate nothing once the timer heap has grown to its working size
  /// (a callback that fits std::function's inline buffer, such as a
  /// lambda capturing `this` and an index, allocates nothing either).
  TimerId schedule_at(double deadline_s, std::function<void()> callback);
  TimerId schedule_after(double delay_s, std::function<void()> callback);
  void cancel(TimerId id);

  /// Run until stop() — or until the loop is idle (no timers pending and
  /// no readable descriptor), which is how deterministic runs end.
  void run();

  /// Ask run() to return after the current dispatch.
  void stop();

  /// Drain everything currently readable without advancing the clock or
  /// firing timers.  Returns the number of callbacks dispatched.
  std::size_t pump();

  /// Number of kernel waits performed so far.  A monotonic run that
  /// sleeps to its deadlines performs a handful; a busy-spinning one
  /// performs thousands — the regression tests pin the former.  A
  /// virtual run waits about once per datagram sent (see the header
  /// comment for when it waits); the loop-contract tests pin that.
  [[nodiscard]] std::size_t poll_rounds() const { return poll_rounds_; }

 private:
  struct Timer {
    double deadline_s;
    TimerId id;
    std::function<void()> callback;

    /// The (deadline, id) order timers fire in.
    [[nodiscard]] bool fires_before(const Timer& other) const {
      if (deadline_s != other.deadline_s) return deadline_s < other.deadline_s;
      return id < other.id;
    }
  };

  /// Wait for watched fds and dispatch ready callbacks.  `timeout_ms` < 0
  /// blocks indefinitely.  With no watchers the wait on the empty set is
  /// a plain sleep.  Returns the number of callbacks dispatched.
  std::size_t poll_once(int timeout_ms);
  std::size_t dispatch_fd(int fd);
  /// Index of `fd`'s watcher, or watchers_.size() when it has none.
  [[nodiscard]] std::size_t find_watcher(int fd) const;

  /// Remove the earliest timer and return its callback.
  std::function<void()> pop_earliest();

  [[nodiscard]] double monotonic_now_s() const;

  ClockMode mode_;
  double virtual_now_s_ = 0.0;
  double monotonic_origin_s_ = 0.0;
  bool stopped_ = false;
  TimerId next_timer_id_ = 1;
  std::size_t poll_rounds_ = 0;
  bool repoll_ = true;             ///< a virtual loop must wait next round.
  std::uint64_t sends_seen_ = 0;   ///< sends_on_this_thread() at last wait.
  int epoll_fd_ = -1;
  /// Heap on (deadline_s, id), earliest at the front (std::push_heap and
  /// friends): the same firing order a sorted map would give, without a
  /// node allocation per timer.
  std::vector<Timer> timers_;
  std::vector<std::pair<int, std::function<void()>>> watchers_;
};

}  // namespace tv::live
