// Artifact export: produce files real tools can open.
//
// Runs one slow-motion transfer under I-frame encryption and writes
//   out/original.y4m       — the captured clip (ffplay out/original.y4m)
//   out/receiver.y4m       — what the legitimate receiver reconstructs
//   out/eavesdropper.y4m   — what the snooper reconstructs
//   out/eavesdropper.pcap  — the snooper's tcpdump capture (Wireshark;
//                            the RTP marker bit flags encrypted payloads)
#include <cstdio>
#include <filesystem>

#include "core/experiment.hpp"
#include "net/pcap.hpp"
#include "video/y4m.hpp"

using namespace tv;

int main() {
  std::filesystem::create_directories("out");

  const auto workload = core::build_workload(video::MotionLevel::kLow, 30,
                                             120, 8);
  policy::EncryptionPolicy pol{policy::Mode::kIFrames,
                               crypto::Algorithm::kAes256, 0.0};
  const core::Flow flow{workload, pol, 4242};
  const std::vector<net::VideoPacket>& packets = flow.packets();

  core::PipelineConfig pipeline;
  pipeline.device = core::samsung_galaxy_s2();
  const auto transfer = core::simulate_transfer(pipeline, packets, 1);
  const auto rx = flow.decode(transfer.receiver_delivered, /*decrypt=*/true);
  const auto ev =
      flow.decode(transfer.eavesdropper_captured, /*decrypt=*/false);

  video::write_y4m_file("out/original.y4m", workload.clip);
  video::write_y4m_file("out/receiver.y4m", rx);
  video::write_y4m_file("out/eavesdropper.y4m", ev);

  std::vector<double> timestamps;
  timestamps.reserve(packets.size());
  for (const auto& t : transfer.timings) timestamps.push_back(t.completion);
  const auto captures =
      net::capture_of(packets, transfer.eavesdropper_captured, timestamps);
  net::write_pcap_file("out/eavesdropper.pcap", captures);

  std::printf("wrote out/original.y4m (%zu frames)\n", workload.clip.size());
  std::printf("wrote out/receiver.y4m      PSNR %.1f dB\n",
              video::sequence_psnr(workload.clip, rx));
  std::printf("wrote out/eavesdropper.y4m  PSNR %.1f dB (policy %s)\n",
              video::sequence_psnr(workload.clip, ev), pol.label().c_str());
  std::printf("wrote out/eavesdropper.pcap (%zu packets captured)\n",
              captures.size());
  std::printf("open the .y4m files with ffplay and the .pcap with wireshark\n");
  return 0;
}
