// The Fig. 1 workflow: a user picks "preserve privacy with performance
// tradeoff", so the framework (i) calibrates the model from a short probe
// transfer, (ii) evaluates the policy ladder analytically — no extra
// transfers — and (iii) recommends the cheapest policy that makes the
// stream unusable to an eavesdropper.
#include <cstdio>

#include "core/advisor.hpp"
#include "video/motion.hpp"
#include "core/experiment.hpp"

using namespace tv;

int main() {
  // The clip the user just captured (fast motion: a street scene).
  const auto workload =
      core::build_workload(video::MotionLevel::kHigh, 30, 120, 99);
  const auto report = video::classify_motion(workload.clip);
  std::printf("AForge-style motion classifier: score %.3f -> %s motion\n",
              report.score, video::to_string(report.level));

  // Probe transfer (unencrypted) to calibrate the model, Section 6.1.
  core::PipelineConfig pipeline;
  pipeline.device = core::samsung_galaxy_s2();
  const auto probe = core::simulate_transfer(pipeline, workload.packets, 555);
  const auto traffic =
      core::calibrate_traffic(workload.packets, probe.timings, workload.fps);
  const auto service = core::calibrate_service(workload.packets,
                                               probe.timings, pipeline,
                                               traffic);
  std::printf("calibrated 2-MMPP: lambda1=%.0f/s (I bursts), lambda2=%.1f/s "
              "(P traffic), p1=%.1f/s, p2=%.2f/s\n",
              traffic.mmpp.lambda1, traffic.mmpp.lambda2, traffic.mmpp.r12,
              traffic.mmpp.r21);

  const core::DistortionInputs di = core::distortion_inputs_of(
      workload, core::default_sensitivity(report.level));

  core::AdvisorRequest request;
  request.max_eavesdropper_psnr_db = 18.0;  // "unviewable" ceiling.
  request.objective = core::AdvisorRequest::Objective::kDelay;

  const auto result =
      core::advise(request, traffic, service, pipeline.device, di,
                   1.0 - pipeline.eavesdropper_loss_prob);

  std::printf("\n%-16s %-12s %-12s %-10s %s\n", "policy", "delay (ms)",
              "eaves dB", "power (W)", "confidential?");
  for (const auto& eval : result.evaluations) {
    std::printf("%-16s %-12.1f %-12.1f %-10.2f %s\n",
                eval.policy.label().c_str(), eval.delay.mean_delay_ms,
                eval.eavesdropper.psnr_db, eval.power.mean_power_w,
                eval.confidential ? "yes" : "no");
  }
  if (result.recommendation) {
    std::printf("\nrecommended: %s  (%.1f ms, %.2f W, eavesdropper %.1f dB)\n",
                result.recommendation->policy.label().c_str(),
                result.recommendation->delay.mean_delay_ms,
                result.recommendation->power.mean_power_w,
                result.recommendation->eavesdropper.psnr_db);
  } else {
    std::printf("\nno policy meets the ceiling; encrypt everything.\n");
  }
  return 0;
}
