#include "live/loopback.hpp"

#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/predictor.hpp"
#include "crypto/suite.hpp"
#include "live/event_loop.hpp"
#include "live/receiver_session.hpp"
#include "live/stream_map.hpp"
#include "util/rng.hpp"

namespace tv::live {

LoopbackReport run_loopback(const LoopbackConfig& config) {
  // ---- Build the workload and the wire stream (policy + encryption).
  const core::Workload workload =
      core::build_workload(config.motion, config.gop_size, config.frames,
                           config.seed, config.pipeline.fps);
  util::Arena arena;
  std::vector<net::VideoPacket> packets =
      net::clone_packets(workload.packets, arena);
  // Shaping, step 1: pad before encryption so the pad trailer — and with
  // it the true payload length — ends up inside the ciphertext.  The
  // padded sizes then flow through simulate_transfer, so the knob's
  // delay/energy price is charged by the same models as everything else.
  config.shaping.validate();
  net::pad_to_bucket(packets, arena, config.shaping.pad_bucket_bytes);
  const std::vector<bool> selected = config.policy.select(packets);
  const auto cipher =
      crypto::make_cipher_from_seed(config.policy.algorithm, config.seed);
  const auto flow_iv = flow_iv_for(*cipher, config.seed);
  net::encrypt_selected(packets, selected, *cipher, flow_iv);

  core::PipelineConfig pipeline = config.pipeline;
  pipeline.algorithm = config.policy.algorithm;
  core::validate(pipeline);

  // ---- In-memory twin: the service-law transfer that paces the sender
  // and (in replay mode) decides every delivery.
  const core::TransferResult transfer =
      core::simulate_transfer(pipeline, packets, config.seed, config.trace);

  // Queue-pressure degradation shipped some packets in clear: the wire
  // stream must reflect that (payload back to plaintext, marker off).
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (i < transfer.degraded_cleartext.size() &&
        transfer.degraded_cleartext[i]) {
      // Restore the plaintext bytes into this clone's wire region and
      // clear the marker bit there too — the wire image is what the
      // sender transmits.  Padded clones are larger than the pristine
      // originals: restore the content prefix, then re-write the pad
      // trailer the encryption pass scrambled.
      std::memcpy(packets[i].payload.data(),
                  workload.packets[i].payload.data(),
                  packets[i].content_size());
      if (packets[i].pad_bytes > 0) {
        (void)net::rtp_write_pad_trailer(packets[i].payload,
                                         packets[i].content_size());
      }
      packets[i].encrypted = false;
      packets[i].payload.set_marker(false);
    }
  }
  // Shaping, step 2: hide the wire markers.  Metadata keeps the truth —
  // the StreamMap built below carries it out-of-band to the receiver.
  if (config.shaping.hide_markers) net::hide_wire_markers(packets);

  LoopbackReport report;
  report.packet_count = packets.size();
  report.encryption = net::encryption_stats(packets);
  report.duration_s = transfer.duration_s;
  for (const net::VideoPacket& p : packets) {
    report.pad_overhead_bytes += p.pad_bytes;
  }
  report.jitter_mean_delay_s =
      jitter_mean_delay_s(config.shaping.jitter_stddev_s);

  const int frame_count = static_cast<int>(workload.stream.frames.size());

  // ---- In-memory reference PSNRs over the same wire packets.
  report.memory_receiver_psnr_db = core::decode_psnr(
      workload, net::reassemble(packets, transfer.receiver_delivered,
                                frame_count, cipher.get(), flow_iv));
  report.memory_eavesdropper_psnr_db = core::decode_psnr(
      workload, net::reassemble(packets, transfer.eavesdropper_captured,
                                frame_count, nullptr, flow_iv));

  // ---- Analytic predictions (Section 4.4 distortion model).
  {
    const core::TrafficCalibration traffic = core::calibrate_traffic(
        packets, transfer.timings, workload.fps, /*sample_packets=*/0);
    core::DistortionInputs di;
    di.gop_size = workload.codec.gop_size;
    di.n_gops = frame_count / workload.codec.gop_size;
    di.sensitivity_fraction = core::default_sensitivity(config.motion);
    di.base_mse = workload.base_mse;
    di.null_mse = workload.null_mse;
    di.inter = workload.inter;
    const double p_s_rx = 1.0 - pipeline.receiver_loss_prob;
    const double p_s_ev = 1.0 - pipeline.eavesdropper_loss_prob;
    report.predicted_receiver_psnr_db =
        core::predict_distortion(di, traffic, p_s_rx, 0.0, 0.0).psnr_db;
    report.predicted_eavesdropper_psnr_db =
        core::predict_distortion(di, traffic, p_s_ev,
                                 config.policy.i_packet_fraction(),
                                 config.policy.p_packet_fraction())
            .psnr_db;
  }

  // ---- The live testbed: three roles on one virtual-clock loop.
  EventLoop loop{ClockMode::kVirtual};
  const Endpoint loopback{};  // 127.0.0.1:0 — kernel picks the ports.

  UdpSocket sender_socket;
  sender_socket.bind(loopback);
  UdpSocket proxy_socket;
  proxy_socket.bind(loopback);
  proxy_socket.set_receive_buffer(1 << 20);
  UdpSocket receiver_socket;
  receiver_socket.bind(loopback);
  receiver_socket.set_receive_buffer(1 << 20);

  const StreamMap map = StreamMap::of(packets, frame_count);

  EavesdropperTap tap{config.trace};
  if (!config.stochastic) {
    tap.set_capture_mask(&map, transfer.eavesdropper_captured);
  } else if (config.eavesdropper_channel) {
    tap.set_channel(*config.eavesdropper_channel,
                    util::derive_seed(config.seed, 0xeaef, 0, 0));
  }

  ProxyConfig proxy_config;
  proxy_config.forward_to = receiver_socket.local_endpoint();
  proxy_config.seed = config.seed;
  proxy_config.trace = config.trace;
  if (config.stochastic) {
    proxy_config.faults = config.faults;
    if (pipeline.channel) {
      proxy_config.receiver_channel = pipeline.channel->receiver;
      proxy_config.outages = pipeline.channel->outages;
    }
  }
  ImpairmentProxy proxy{loop, proxy_socket, proxy_socket, proxy_config,
                        &tap};
  if (!config.stochastic) {
    proxy.set_forward_mask(&map, transfer.receiver_delivered);
  }

  ReceiverSessionConfig rx_config;
  rx_config.trace = config.trace;
  ReceiverSession receiver{loop, receiver_socket, rx_config};

  SenderConfig sender_config;
  sender_config.destination = proxy_socket.local_endpoint();
  sender_config.trace = config.trace;
  // Shaping, step 3: seeded half-normal jitter on the send schedule.
  std::vector<double> send_times = schedule_from_timings(transfer.timings);
  jitter_schedule(send_times, config.shaping.jitter_stddev_s, config.seed);
  SenderSession sender{loop,    sender_socket,
                       sender_config, packets,
                       std::move(send_times)};

  proxy.start();
  receiver.start();
  sender.start();
  loop.run();  // virtual clock: returns when idle — no sleeps anywhere.
  proxy.flush();
  (void)loop.pump();  // drain anything the flush put on the wire.

  const std::vector<net::ReceivedPacket> received = receiver.finish();
  report.live_receiver_psnr_db = core::decode_psnr(
      workload, reassemble_wire(map, received, cipher.get(), flow_iv,
                                config.shaping.hide_markers));
  report.live_eavesdropper_psnr_db =
      core::decode_psnr(workload, tap.reassemble(map));

  report.sender = sender.report();
  report.proxy = proxy.report();
  report.receiver = receiver.stats();
  report.tap = tap.report();
  if (!config.pcap_path.empty()) {
    report.pcap_clamped = tap.write_pcap(config.pcap_path);
  }
  return report;
}

}  // namespace tv::live
