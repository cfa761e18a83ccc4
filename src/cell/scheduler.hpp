// Deadline-slack admission and graceful degradation for a shared cell.
//
// Each flow wants its clip uploaded by a deadline.  Under contention the
// per-packet MAC cost grows with the admitted population, so the scheduler
// iterates: solve the cell's Bianchi fixed point for the current admitted
// set, predict every flow's completion time from the same first-moment
// service decomposition the paper uses (E[T] = T_e + T_b + T_t, eq. 3),
// rank flows by deadline slack, and while the tightest flow is infeasible
// first walk it down the policy::degrade_step ladder (shedding encryption
// latency) and then — past the ladder floor — defer it, which shrinks the
// contending population for everyone left.  Deterministic: ties break on
// the lowest flow index and no randomness is consumed.  Flows whose
// demands are equal up to the index share one prediction, so a round
// costs O(demand classes), not O(flows) (docs/cell.md).  Each admitted
// count costs one contention solve; on a pool the solves of the next
// counts down are computed ahead, side by side, bit for bit the same.
#pragma once

#include <cstddef>
#include <vector>

#include "cell/contention.hpp"
#include "policy/policy.hpp"

namespace tv::util {
class ThreadPool;
}

namespace tv::cell {

struct SchedulerConfig {
  bool allow_degrade = true;  ///< walk policy::degrade_step under overload.
  bool allow_shedding = true; ///< defer flows past the degradation floor.
  /// Ladder budget per flow before deferring it.
  int max_degrade_steps = 8;
  /// Safety bound on solve/degrade/shed rounds.  <= 0 (the default) sizes
  /// the bound to the population — (max_degrade_steps + 1) * flows + 1,
  /// enough for every flow to walk its full ladder and be deferred — so
  /// a 10k-flow overload sheds to feasibility instead of stopping with
  /// thousands of infeasible flows still admitted (whose near-zero MAC
  /// success probability would make the per-flow pipelines intractable).
  int max_iterations = 0;
};

/// What the scheduler needs to know about one flow.  The encryption and
/// transmission means are per-packet first moments; `i_packet_share` is
/// the fraction of the flow's packets that belong to I-frames (so the
/// encrypted share under any policy is q_I * share_I + q_P * share_P).
struct FlowDemand {
  std::size_t index = 0;
  policy::EncryptionPolicy policy;   ///< requested (pre-degradation).
  double deadline_s = 0.0;           ///< <= 0 means no deadline.
  double clip_duration_s = 0.0;      ///< producer pacing floor.
  std::size_t packet_count = 0;
  double i_packet_share = 0.0;
  double encryption_mean_s = 0.0;    ///< T_e of one encrypted packet.
  double transmission_mean_s = 0.0;  ///< T_t of one packet.
};

/// The scheduler's verdict for one flow.
struct FlowDecision {
  bool admitted = true;
  policy::EncryptionPolicy policy;  ///< possibly degraded.
  int degrade_steps = 0;
  double predicted_completion_s = 0.0;
  double slack_s = 0.0;  ///< deadline - predicted; +inf with no deadline.
};

struct ScheduleResult {
  std::vector<FlowDecision> flows;  ///< indexed like the demand list.
  int admitted = 0;
  int deferred = 0;
  int total_degrade_steps = 0;
  int iterations = 0;  ///< fixed-point solve rounds used.
  /// solve_contention calls made: one per admitted count the loop
  /// reached, plus any a pool solved ahead that the loop never reached.
  int solves = 0;
  /// Contention solution for the final admitted set (what the cell engine
  /// injects into the admitted flows' pipelines).
  ContentionSolution contention;
};

class DeadlineScheduler {
 public:
  explicit DeadlineScheduler(SchedulerConfig config = {}) : config_(config) {}

  /// Admit/degrade/defer `demands` against a cell whose background half is
  /// described by `contention` (its video.stations field is overwritten
  /// with the admitted count each round).  Pure and deterministic.
  /// With a `pool` of more than one thread, the contention solves of the
  /// next admitted counts down are computed ahead on it in growing
  /// windows; the result is bit-identical to a serial schedule's, apart
  /// from `solves`.  Throws std::invalid_argument on an empty demand list.
  [[nodiscard]] ScheduleResult schedule(const std::vector<FlowDemand>& demands,
                                        ContentionConfig contention,
                                        util::ThreadPool* pool = nullptr) const;

  /// Predicted completion of one flow under a solved cell: the producer
  /// pacing floor or the summed per-packet service, whichever binds.
  [[nodiscard]] static double predict_completion(
      const FlowDemand& demand, const policy::EncryptionPolicy& policy,
      const ContentionSolution& solution);

 private:
  SchedulerConfig config_;
};

}  // namespace tv::cell
