#include "core/advisor.hpp"

namespace tv::core {

AdvisorResult advise(const AdvisorRequest& request,
                     const TrafficCalibration& traffic,
                     const ServiceCalibration& service,
                     const DeviceProfile& device,
                     const DistortionInputs& distortion_inputs,
                     double eavesdropper_success_rate) {
  using policy::EncryptionPolicy;
  using policy::Mode;

  std::vector<EncryptionPolicy> candidates;
  candidates.push_back({Mode::kNone, request.algorithm, 0.0});
  candidates.push_back({Mode::kIFrames, request.algorithm, 0.0});
  candidates.push_back({Mode::kPFrames, request.algorithm, 0.0});
  // Candidate fractions for the I+a%P sweep (Fig. 9 / Table 2).
  for (double f : {0.10, 0.15, 0.20, 0.25, 0.30, 0.50}) {
    candidates.push_back({Mode::kIPlusFractionP, request.algorithm, f});
  }
  candidates.push_back({Mode::kAll, request.algorithm, 0.0});

  AdvisorResult result;
  for (const EncryptionPolicy& p : candidates) {
    PolicyEvaluation eval;
    eval.policy = p;
    const double q_i = p.i_packet_fraction();
    const double q_p = p.p_packet_fraction();
    eval.delay = predict_delay(traffic, service, q_i, q_p);
    eval.power = predict_power(device, request.algorithm, traffic, service,
                               q_i, q_p);
    eval.eavesdropper = predict_distortion(
        distortion_inputs, traffic, eavesdropper_success_rate, q_i, q_p);
    eval.confidential =
        eval.eavesdropper.psnr_db <= request.max_eavesdropper_psnr_db;
    result.evaluations.push_back(eval);
  }

  for (const PolicyEvaluation& eval : result.evaluations) {
    if (!eval.confidential) continue;
    if (!result.recommendation) {
      result.recommendation = eval;
      continue;
    }
    const bool better =
        request.objective == AdvisorRequest::Objective::kDelay
            ? eval.delay.mean_delay_ms <
                  result.recommendation->delay.mean_delay_ms
            : eval.power.mean_power_w <
                  result.recommendation->power.mean_power_w;
    if (better) result.recommendation = eval;
  }
  return result;
}

}  // namespace tv::core
