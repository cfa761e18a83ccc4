#include "live/loopback.hpp"

#include <stdexcept>
#include <utility>
#include <vector>

#include "core/calibration.hpp"
#include "core/predictor.hpp"
#include "live/event_loop.hpp"
#include "live/receiver_session.hpp"
#include "live/stream_map.hpp"

namespace tv::live {

LoopbackReport run_loopback(const LoopbackConfig& config) {
  // ---- Build the workload and the wire stream (policy + encryption).
  const core::Workload workload =
      core::build_workload(config.motion, config.gop_size, config.frames,
                           config.seed, config.pipeline.fps);
  // Shaping, step 1: the flow pads before it encrypts.  The padded sizes
  // flow through simulate_transfer, so the knob's delay/energy price is
  // charged by the same models as everything else.
  core::Flow flow{workload, config.policy, config.seed, config.shaping};
  const std::vector<net::VideoPacket>& packets = flow.packets();

  core::PipelineConfig pipeline = config.pipeline;
  pipeline.algorithm = config.policy.algorithm;
  core::validate(pipeline);

  // ---- In-memory twin: the service-law transfer that paces the sender
  // and (in replay mode) decides every delivery.
  const core::TransferResult transfer =
      core::simulate_transfer(pipeline, packets, config.seed, config.trace);

  // Degraded packets go out in clear; shaping, step 2 hides the wire
  // markers.  The StreamMap below carries the true flags out-of-band.
  flow.ship(transfer);

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
  const auto score = [&](const std::vector<video::ReceivedFrameData>& frames) {
    return core::score_stream(workload, frames).psnr_db;
  };
  report.memory_receiver_psnr_db =
      score(flow.frames(transfer.receiver_delivered, /*decrypt=*/true));
  report.memory_eavesdropper_psnr_db =
      score(flow.frames(transfer.eavesdropper_captured, /*decrypt=*/false));

  // ---- Analytic predictions (Section 4.4 distortion model).
  {
    const core::TrafficCalibration traffic = core::calibrate_traffic(
        packets, transfer.timings, workload.fps, /*sample_packets=*/0);
    const core::DistortionInputs di = core::distortion_inputs_of(
        workload, core::default_sensitivity(config.motion));
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
  ProxyConfig proxy_config;
  proxy_config.forward_to = receiver_socket.local_endpoint();
  proxy_config.seed = config.seed;
  proxy_config.trace = config.trace;
  if (config.stochastic) {
    proxy_config.faults = config.faults;
    if (pipeline.channel) {
      proxy_config.channel = pipeline.channel->receiver;
      proxy_config.outages = pipeline.channel->outages;
    }
  }
  ImpairmentProxy proxy{loop, proxy_socket, proxy_config, &tap};
  if (!config.stochastic) {
    tap.impairment().replay(map, transfer.eavesdropper_captured);
    proxy.impairment().replay(map, transfer.receiver_delivered);
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
  report.live_receiver_psnr_db =
      score(reassemble_wire(map, received, &flow.cipher(), flow.iv(),
                            config.shaping.hide_markers));
  report.live_eavesdropper_psnr_db = score(tap.reassemble(map));

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
