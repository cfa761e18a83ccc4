// Deterministic discrete-event core: a virtual clock plus a pending-event
// heap.  The validation simulators (sender_sim, eavesdropper_sim) are built
// on top of this instead of ad-hoc inline loops so that every event has an
// explicit timestamp, cancellation is first-class (needed when an MMPP phase
// change invalidates the tentatively scheduled next arrival), and event
// ordering is reproducible: ties in time are broken by scheduling order, so
// a run is a pure function of the seed regardless of heap internals.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

namespace tv::sim {

/// Handle identifying a scheduled event, usable to cancel it.
using EventId = std::uint64_t;

/// Min-heap of timed events over a virtual clock.  Not thread-safe: each
/// simulation owns one queue (cross-run parallelism happens one level up,
/// in sim::run_validation).
class EventQueue {
 public:
  /// Schedule `fn` at absolute virtual time `time` (must be >= now()).
  /// Returns an id that can be passed to cancel().
  EventId schedule_at(double time, std::function<void()> fn);

  /// Schedule `fn` `delay` seconds after now() (delay must be >= 0).
  EventId schedule_in(double delay, std::function<void()> fn);

  /// Lazily cancel a pending event; cancelled events are skipped (and not
  /// counted as processed) when they surface.  Returns true iff the event
  /// was still pending; cancelling one that already ran or was already
  /// cancelled is a harmless no-op returning false.
  bool cancel(EventId id);

  /// Run events in (time, scheduling-order) order until the queue drains
  /// or `max_events` have been processed.  Returns the number processed.
  std::uint64_t run(std::uint64_t max_events = ~0ULL);

  /// Current virtual time: the timestamp of the last processed event.
  [[nodiscard]] double now() const { return now_; }
  /// Pending (non-cancelled) events.
  [[nodiscard]] std::size_t pending() const { return alive_.size(); }
  [[nodiscard]] bool empty() const { return alive_.empty(); }
  /// Total events processed over the queue's lifetime.
  [[nodiscard]] std::uint64_t processed() const { return processed_; }

 private:
  struct Event {
    double time = 0.0;
    EventId id = 0;  ///< scheduling order; the deterministic tie-break.
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::unordered_set<EventId> alive_;  ///< scheduled, not yet run/cancelled.
  double now_ = 0.0;
  EventId next_id_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace tv::sim
