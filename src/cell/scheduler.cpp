#include "cell/scheduler.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <exception>
#include <limits>
#include <map>
#include <stdexcept>
#include <utility>

#include "util/thread_pool.hpp"
#include "wifi/dcf_model.hpp"

namespace tv::cell {

namespace {

constexpr double kInfinity = std::numeric_limits<double>::infinity();

bool same_policy(const policy::EncryptionPolicy& a,
                 const policy::EncryptionPolicy& b) {
  return a.mode == b.mode && a.fraction == b.fraction;
}

/// Every FlowDemand field but the index, doubles by bit pattern: flows
/// with equal keys get bit-equal predictions under any policy and cell.
using DemandKey = std::array<std::uint64_t, 9>;

DemandKey demand_key(const FlowDemand& d) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return {static_cast<std::uint64_t>(d.policy.mode),
          static_cast<std::uint64_t>(d.policy.algorithm),
          bits(d.policy.fraction),
          bits(d.deadline_s),
          bits(d.clip_duration_s),
          static_cast<std::uint64_t>(d.packet_count),
          bits(d.i_packet_share),
          bits(d.encryption_mean_s),
          bits(d.transmission_mean_s)};
}

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

/// The admitted flows of one demand key at one degrade step.  They share
/// a policy and therefore every bit of their prediction and slack.
struct DemandClass {
  std::size_t demand = 0;  ///< any member's demand; all are bit-equal.
  policy::EncryptionPolicy policy;
  int degrade_steps = 0;
  std::size_t down = kNone;  ///< the class one degrade step on, once made.
  double predicted_completion_s = 0.0;
  double slack_s = 0.0;
  /// Admitted members in ascending index order, from flows[head] on.
  /// Flows only ever leave from the front (the tightest flow is always a
  /// class's lowest index) and arrive, in index order, from the front of
  /// the class one degrade step behind, so appending keeps the order.
  std::vector<std::size_t> flows{};
  std::size_t head = 0;
  std::size_t live_slot = kNone;  ///< position in `live`, kNone if empty.

  [[nodiscard]] std::size_t front() const { return flows[head]; }
};

/// The contention solutions of the admitted counts the loop reaches.  The
/// count starts at the population and only ever falls by one, so the
/// solves the loop needs are known in advance (n, n-1, n-2, ...), and
/// solve_contention is pure.  On a pool of more than one thread each miss
/// solves a window of the next counts down side by side and doubles the
/// window for the next miss: a feasible cell pays one solve, and a long
/// shed wastes at most one window.  Serially the window stays at one
/// count, one solve per count reached.
class SolutionWindow {
 public:
  SolutionWindow(const ContentionConfig& config, util::ThreadPool* pool)
      : config_(config),
        pool_(pool != nullptr && pool->thread_count() > 1 ? pool : nullptr) {}

  /// The solution at `stations`.  Counts are taken in falling order, each
  /// at most once.  Rethrows what that count's solve threw.
  ContentionSolution take(int stations) {
    if (stations > top_ ||
        top_ - stations >= static_cast<int>(slots_.size())) {
      refill(stations);
    }
    Slot& slot = slots_[static_cast<std::size_t>(top_ - stations)];
    if (slot.error) std::rethrow_exception(slot.error);
    return std::move(slot.solution);
  }

  [[nodiscard]] int solves() const { return solves_; }

 private:
  /// Bounds the window's memory and the solves a shed can waste.
  static constexpr std::size_t kMaxWidth = 1024;

  struct Slot {
    ContentionSolution solution;
    std::exception_ptr error;
  };

  void refill(int stations) {
    const std::size_t width =
        std::min(width_, static_cast<std::size_t>(stations));
    slots_.assign(width, Slot{});
    top_ = stations;
    util::parallel_for(pool_, width, [&](std::size_t i) {
      ContentionConfig config = config_;
      config.video.stations = stations - static_cast<int>(i);
      try {
        slots_[i].solution = solve_contention(config);
      } catch (...) {
        slots_[i].error = std::current_exception();
      }
    });
    solves_ += static_cast<int>(width);
    if (pool_ != nullptr) width_ = std::min(2 * width_, kMaxWidth);
  }

  ContentionConfig config_;
  util::ThreadPool* pool_;
  std::vector<Slot> slots_;  ///< slots_[i] holds count top_ - i.
  int top_ = 0;
  std::size_t width_ = 1;
  int solves_ = 0;
};

}  // namespace

double DeadlineScheduler::predict_completion(
    const FlowDemand& demand, const policy::EncryptionPolicy& policy,
    const ContentionSolution& solution) {
  const double encrypted_share =
      policy.i_packet_fraction() * demand.i_packet_share +
      policy.p_packet_fraction() * (1.0 - demand.i_packet_share);
  // E[T] = T_e + T_b + T_t (eq. 3): the encryption share of the policy,
  // the geometric retry count each paying one mean backoff wait (eqs. 6-7),
  // and the physical transmission time.
  const double mean_backoff =
      wifi::mean_collisions(solution.mac_success_prob) /
      solution.backoff_rate;
  const double per_packet = encrypted_share * demand.encryption_mean_s +
                            mean_backoff + demand.transmission_mean_s;
  const double service_total =
      static_cast<double>(demand.packet_count) * per_packet;
  return service_total > demand.clip_duration_s ? service_total
                                                : demand.clip_duration_s;
}

ScheduleResult DeadlineScheduler::schedule(
    const std::vector<FlowDemand>& demands, ContentionConfig contention,
    util::ThreadPool* pool) const {
  if (demands.empty()) {
    throw std::invalid_argument{"DeadlineScheduler: no demands"};
  }

  ScheduleResult result;
  result.flows.resize(demands.size());

  // <= 0: size the round budget to the population — every flow can walk
  // its full degrade ladder and then be deferred, plus the terminal
  // feasible/no-lever round.  Every loop iteration below either takes one
  // of those actions or breaks, so this bound is never the binding exit
  // on a converging schedule.
  const long max_iterations =
      config_.max_iterations > 0
          ? config_.max_iterations
          : static_cast<long>(config_.max_degrade_steps + 1) *
                    static_cast<long>(demands.size()) +
                1;

  // Group the flows into demand classes.  predict_completion is pure and
  // ignores the index, so a class needs one prediction where the flows
  // would need one each, and a round costs O(classes) instead of O(flows).
  std::vector<DemandClass> classes;
  std::vector<std::size_t> live;  // classes with admitted flows.
  const auto join = [&](std::size_t c, std::size_t flow) {
    if (classes[c].live_slot == kNone) {
      classes[c].live_slot = live.size();
      live.push_back(c);
    }
    classes[c].flows.push_back(flow);
  };
  {
    std::map<DemandKey, std::size_t> by_key;
    for (std::size_t f = 0; f < demands.size(); ++f) {
      const auto [it, fresh] =
          by_key.try_emplace(demand_key(demands[f]), classes.size());
      if (fresh) classes.push_back({.demand = f, .policy = demands[f].policy});
      join(it->second, f);
    }
  }

  const auto predict = [&](DemandClass& c) {
    const FlowDemand& d = demands[c.demand];
    c.predicted_completion_s =
        predict_completion(d, c.policy, result.contention);
    c.slack_s = d.deadline_s > 0.0 ? d.deadline_s - c.predicted_completion_s
                                   : kInfinity;
  };
  const auto pop_front = [&](DemandClass& c) {
    if (++c.head < c.flows.size()) return;
    c.flows.clear();
    c.head = 0;
    classes[live.back()].live_slot = c.live_slot;
    live[c.live_slot] = live.back();
    live.pop_back();
    c.live_slot = kNone;
  };

  // One contention solve per *population change*: solve_contention is
  // pure, so reusing its output while the admitted count is unchanged
  // reproduces a solve-every-round loop bit for bit, and so does a
  // solution the window computed ahead.
  SolutionWindow solutions{contention, pool};
  int admitted = static_cast<int>(demands.size());
  int solved_stations = -1;
  // A degraded flow's prediction is refreshed at the start of the next
  // round; if the round budget ends first, it keeps the pre-degrade one.
  std::size_t stale_flow = kNone;
  double stale_predicted_s = 0.0;
  double stale_slack_s = 0.0;

  for (long iter = 0; iter < max_iterations; ++iter) {
    if (admitted != solved_stations) {
      result.contention = solutions.take(admitted);
      solved_stations = admitted;
      for (std::size_t c : live) predict(classes[c]);
    }
    result.iterations = static_cast<int>(iter) + 1;
    stale_flow = kNone;

    // The tightest infeasible flow: least slack, ties to the lowest index.
    std::size_t worst = kNone;
    for (std::size_t c : live) {
      const DemandClass& k = classes[c];
      if (!(k.slack_s < 0.0)) continue;
      if (worst == kNone || k.slack_s < classes[worst].slack_s ||
          (k.slack_s == classes[worst].slack_s &&
           k.front() < classes[worst].front())) {
        worst = c;
      }
    }
    if (worst == kNone) break;  // everyone admitted is feasible.

    const std::size_t flow = classes[worst].front();
    if (config_.allow_degrade &&
        classes[worst].degrade_steps < config_.max_degrade_steps) {
      const policy::EncryptionPolicy next =
          policy::degrade_step(classes[worst].policy);
      if (!same_policy(next, classes[worst].policy)) {
        stale_flow = flow;
        stale_predicted_s = classes[worst].predicted_completion_s;
        stale_slack_s = classes[worst].slack_s;
        pop_front(classes[worst]);
        std::size_t down = classes[worst].down;
        if (down == kNone) {
          down = classes.size();
          classes[worst].down = down;
          classes.push_back(
              {.demand = classes[worst].demand,
               .policy = next,
               .degrade_steps = classes[worst].degrade_steps + 1});
        }
        join(down, flow);
        predict(classes[down]);  // same bits again if it was already live.
        ++result.total_degrade_steps;
        continue;
      }
    }
    // Past the ladder floor: defer the flow — unless it is the last one
    // standing, which just misses its deadline (shedding it buys nobody
    // anything).
    if (config_.allow_shedding && admitted > 1) {
      FlowDecision& d = result.flows[flow];
      d.admitted = false;
      d.policy = classes[worst].policy;
      d.degrade_steps = classes[worst].degrade_steps;
      pop_front(classes[worst]);
      --admitted;
      continue;
    }
    break;  // infeasible but no remaining lever.
  }

  for (std::size_t c : live) {
    const DemandClass& k = classes[c];
    for (std::size_t i = k.head; i < k.flows.size(); ++i) {
      FlowDecision& d = result.flows[k.flows[i]];
      d.policy = k.policy;
      d.degrade_steps = k.degrade_steps;
      d.predicted_completion_s = k.predicted_completion_s;
      d.slack_s = k.slack_s;
    }
  }
  if (stale_flow != kNone) {
    result.flows[stale_flow].predicted_completion_s = stale_predicted_s;
    result.flows[stale_flow].slack_s = stale_slack_s;
  }
  // Report deferred flows' hypothetical numbers under the final cell, so
  // sinks can show what they would have faced.
  for (std::size_t f = 0; f < demands.size(); ++f) {
    FlowDecision& d = result.flows[f];
    if (d.admitted) continue;
    d.predicted_completion_s =
        predict_completion(demands[f], d.policy, result.contention);
    d.slack_s = demands[f].deadline_s > 0.0
                    ? demands[f].deadline_s - d.predicted_completion_s
                    : kInfinity;
  }
  result.admitted = admitted;
  result.deferred = static_cast<int>(demands.size()) - result.admitted;
  result.solves = solutions.solves();
  return result;
}

}  // namespace tv::cell
