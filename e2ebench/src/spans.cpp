#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

#include "alloc_count.hpp"

namespace e2e {

namespace {

struct ThreadBuffer {
  std::uint32_t index = 0;
  std::vector<SpanRecord> done;
  std::vector<std::uint64_t> open;  ///< ids of the spans open, innermost last.
};

std::atomic<bool> g_tracing{false};
std::atomic<std::uint64_t> g_next_id{1};
std::mutex g_buffers_mu;
// Every thread's buffer, guarded by g_buffers_mu.
std::vector<std::shared_ptr<ThreadBuffer>> g_buffers;

ThreadBuffer& this_thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buffer = [] {
    auto b = std::make_shared<ThreadBuffer>();
    std::lock_guard lock{g_buffers_mu};
    b->index = static_cast<std::uint32_t>(g_buffers.size());
    g_buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

}  // namespace

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

std::vector<SpanRecord> collect_spans() {
  std::vector<SpanRecord> all;
  std::lock_guard lock{g_buffers_mu};
  for (const auto& b : g_buffers) {
    all.insert(all.end(), b->done.begin(), b->done.end());
    b->done.clear();
  }
  return all;
}

Span::Span(const char* name, SpanKind kind, std::uint64_t parent) {
  if (!tracing()) return;
  active_ = true;
  ThreadBuffer& b = this_thread_buffer();
  record_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  record_.parent = parent != kInherit ? parent
                   : b.open.empty()   ? 0
                                      : b.open.back();
  record_.name = name;
  record_.kind = kind;
  record_.thread = b.index;
  record_.allocs = thread_allocations();
  b.open.push_back(record_.id);
  record_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  record_.end_ns = now_ns();
  record_.allocs = thread_allocations() - record_.allocs;
  record_.count = count_;
  record_.aux = aux_;
  ThreadBuffer& b = this_thread_buffer();
  b.open.pop_back();
  b.done.push_back(record_);
}

SpanAggregate aggregate_spans(const std::vector<SpanRecord>& spans) {
  // Same-thread nesting: per thread, walk spans in start order with a
  // stack of enclosing spans and charge each span's duration to its
  // innermost encloser as child time.
  std::vector<const SpanRecord*> order;
  order.reserve(spans.size());
  for (const SpanRecord& s : spans) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->thread != b->thread) return a->thread < b->thread;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->end_ns > b->end_ns;  // enclosing span first.
            });
  std::vector<double> child_s(order.size(), 0.0);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SpanRecord& s = *order[i];
    while (!stack.empty()) {
      const SpanRecord& top = *order[stack.back()];
      if (top.thread == s.thread && s.start_ns >= top.start_ns &&
          s.end_ns <= top.end_ns) {
        break;
      }
      stack.pop_back();
    }
    const double duration = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    if (!stack.empty()) child_s[stack.back()] += duration;
    stack.push_back(i);
  }

  SpanAggregate agg;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const SpanRecord& s = *order[i];
    const double duration = 1e-9 * static_cast<double>(s.end_ns - s.start_ns);
    const double self = std::max(0.0, duration - child_s[i]);
    SpanTotals& t = agg.by_name[s.name];
    ++t.calls;
    t.total_s += duration;
    t.self_s += self;
    t.allocs += s.allocs;
    t.count += s.count;
    t.aux += s.aux;
    if (s.kind == SpanKind::kWork) agg.busy_s += self;
  }
  return agg;
}

void write_spans_csv(std::ostream& out, const std::vector<SpanRecord>& spans) {
  std::int64_t origin = 0;
  if (!spans.empty()) {
    origin = std::min_element(spans.begin(), spans.end(),
                              [](const SpanRecord& a, const SpanRecord& b) {
                                return a.start_ns < b.start_ns;
                              })
                 ->start_ns;
  }
  out << "id,parent,name,kind,thread,start_ns,end_ns,allocs,count,aux\n";
  for (const SpanRecord& s : spans) {
    out << s.id << ',' << s.parent << ',' << s.name << ','
        << (s.kind == SpanKind::kWork ? "work" : "wait") << ',' << s.thread
        << ',' << (s.start_ns - origin) << ',' << (s.end_ns - origin) << ','
        << s.allocs << ',' << s.count << ',' << s.aux << '\n';
  }
}

}  // namespace e2e
