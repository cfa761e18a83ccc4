// Policy advisor: the decision box of Fig. 1.
//
// "A third choice would allow the user to minimize performance penalties
//  while largely preserving confidentiality."  Given the calibrated model,
// the advisor evaluates candidate policies analytically (no transfers
// needed) and returns the cheapest one that pushes the eavesdropper's PSNR
// below a confidentiality ceiling.
#pragma once

#include <optional>
#include <vector>

#include "core/predictor.hpp"
#include "policy/policy.hpp"

namespace tv::core {

struct AdvisorRequest {
  /// Confidentiality requirement: eavesdropper PSNR must not exceed this.
  double max_eavesdropper_psnr_db = 18.0;
  /// What to minimize among qualifying policies.
  enum class Objective { kDelay, kPower } objective = Objective::kDelay;
  crypto::Algorithm algorithm = crypto::Algorithm::kAes256;
};

struct PolicyEvaluation {
  policy::EncryptionPolicy policy;
  DelayPrediction delay;
  DistortionPrediction eavesdropper;
  PowerPrediction power;
  bool confidential = false;  ///< meets the PSNR ceiling.
};

struct AdvisorResult {
  std::vector<PolicyEvaluation> evaluations;  ///< everything considered.
  std::optional<PolicyEvaluation> recommendation;
};

/// Evaluate the standard policy ladder (none, I, P, I+a%P sweep, all) and
/// recommend the cheapest confidential one.  "none" is never recommended
/// unless the ceiling is above the clear-stream PSNR (i.e. no protection
/// needed).
[[nodiscard]] AdvisorResult advise(const AdvisorRequest& request,
                                   const TrafficCalibration& traffic,
                                   const ServiceCalibration& service,
                                   const DeviceProfile& device,
                                   const DistortionInputs& distortion_inputs,
                                   double eavesdropper_success_rate);

}  // namespace tv::core
