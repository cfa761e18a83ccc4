#include "core/calibration.hpp"

#include <cmath>
#include <stdexcept>

#include "util/stats.hpp"
#include "wifi/channel.hpp"

namespace tv::core {

TrafficCalibration calibrate_traffic(
    const std::vector<net::VideoPacket>& packets,
    const std::vector<PacketTiming>& timings, double fps,
    std::size_t sample_packets) {
  if (packets.size() != timings.size() || packets.empty()) {
    throw std::invalid_argument{"calibrate_traffic: bad inputs"};
  }
  const std::size_t n =
      sample_packets == 0 ? packets.size()
                          : std::min(sample_packets, packets.size());

  TrafficCalibration cal;
  std::vector<queueing::LabelledArrival> trace;
  trace.reserve(n);
  std::size_t i_packets = 0;
  std::size_t i_bytes_sampled = 0;
  std::size_t p_bytes_sampled = 0;
  for (std::size_t k = 0; k < n; ++k) {
    trace.push_back({timings[k].arrival, packets[k].is_i_frame});
    if (packets[k].is_i_frame) {
      ++i_packets;
      i_bytes_sampled += packets[k].payload.size();
    } else {
      p_bytes_sampled += packets[k].payload.size();
    }
  }
  cal.mmpp = queueing::estimate_mmpp(trace);
  cal.p_i = static_cast<double>(i_packets) / static_cast<double>(n);
  cal.mean_i_payload =
      i_packets > 0
          ? static_cast<double>(i_bytes_sampled) / static_cast<double>(i_packets)
          : 0.0;
  const std::size_t p_packets = n - i_packets;
  cal.mean_p_payload =
      p_packets > 0
          ? static_cast<double>(p_bytes_sampled) / static_cast<double>(p_packets)
          : 0.0;

  // Frame shapes and totals use the whole stream (the sender knows its own
  // file; only the *timing* statistics need sampling).
  int max_frame = 0;
  std::size_t i_frames = 0;
  std::size_t p_frames = 0;
  std::size_t i_frag_total = 0;
  std::size_t p_frag_total = 0;
  for (const auto& p : packets) {
    cal.total_payload_bytes += p.payload.size();
    if (p.is_i_frame) cal.i_payload_bytes += p.payload.size();
    max_frame = std::max(max_frame, p.frame_index);
    if (p.fragment_index == 0) {
      if (p.is_i_frame) {
        ++i_frames;
        i_frag_total += static_cast<std::size_t>(p.fragment_count);
      } else {
        ++p_frames;
        p_frag_total += static_cast<std::size_t>(p.fragment_count);
      }
    }
  }
  cal.mean_i_packets_per_frame =
      i_frames > 0 ? static_cast<double>(i_frag_total) /
                         static_cast<double>(i_frames)
                   : 1.0;
  cal.mean_p_packets_per_frame =
      p_frames > 0 ? static_cast<double>(p_frag_total) /
                         static_cast<double>(p_frames)
                   : 1.0;
  cal.packet_count = packets.size();
  cal.clip_duration_s = static_cast<double>(max_frame + 1) / fps;
  return cal;
}

namespace {

struct ClassStats {
  util::RunningStats enc;
  util::RunningStats tx;
};

}  // namespace

ServiceCalibration calibrate_service(
    const std::vector<net::VideoPacket>& packets,
    const std::vector<PacketTiming>& timings, const PipelineConfig& config,
    const TrafficCalibration& traffic) {
  if (packets.size() != timings.size() || packets.empty()) {
    throw std::invalid_argument{"calibrate_service: bad inputs"};
  }
  ClassStats i_class;
  ClassStats p_class;
  for (std::size_t k = 0; k < packets.size(); ++k) {
    ClassStats& cls = packets[k].is_i_frame ? i_class : p_class;
    if (packets[k].encrypted) cls.enc.add(timings[k].encryption_s);
    if (timings[k].attempts == 1) {
      // Retransmitted packets fold several transmissions into transmit_s;
      // only single-attempt samples estimate T_t cleanly.
      cls.tx.add(timings[k].transmit_s);
    }
  }

  ServiceCalibration out;
  // The analytic model's Gaussian terms represent *minor* variations
  // around the class mean (eq. 15).  Measured per-class spreads also pick
  // up packet-size bimodality (e.g. a frame's full-MTU fragments plus its
  // short tail fragment), which the paper's model does not represent —
  // clamp to the regime where the Gaussian LST/MGF is meaningful.
  auto clamp_jitter = [](double mean, double stddev) {
    return std::min(stddev, 0.25 * mean);
  };
  auto fill_enc = [&](const util::RunningStats& s, double typical_payload,
                      double& mean, double& stddev) {
    if (s.count() >= 8) {
      mean = s.mean();
      stddev = clamp_jitter(mean, s.stddev());
    } else {
      // Fallback: the device's deterministic cost for a typical payload.
      mean = config.device.encryption_seconds(
          config.algorithm, static_cast<std::size_t>(typical_payload));
      stddev = config.device.speed(config.algorithm).jitter_stddev_s;
    }
  };
  fill_enc(i_class.enc, traffic.mean_i_payload, out.enc_i_mean,
           out.enc_i_stddev);
  fill_enc(p_class.enc, traffic.mean_p_payload, out.enc_p_mean,
           out.enc_p_stddev);

  auto fill_tx = [&](const util::RunningStats& s, double typical_payload,
                     double& mean, double& stddev) {
    if (s.count() >= 8) {
      mean = s.mean();
      stddev = clamp_jitter(mean, s.stddev());
    } else {
      const std::size_t wire = static_cast<std::size_t>(typical_payload) +
                               net::RtpHeader::kSize + net::kIpUdpOverhead;
      mean = wifi::transmission_time_s(config.phy, wire);
      stddev = kTxJitterStddevS;
    }
  };
  fill_tx(i_class.tx, traffic.mean_i_payload, out.tx_i_mean, out.tx_i_stddev);
  fill_tx(p_class.tx, traffic.mean_p_payload, out.tx_p_mean, out.tx_p_stddev);

  // Backoff: p_s from the fraction of collision-free first attempts is not
  // directly observable here, so use the configured MAC model the sender
  // measured offline (the paper's model [13] supplies it analytically).
  out.mac_success_prob = config.mac_success_prob;
  out.backoff_rate = config.backoff_rate;
  return out;
}

queueing::ServiceParameters service_parameters(
    const TrafficCalibration& traffic, const ServiceCalibration& service,
    double q_i, double q_p) {
  queueing::ServiceParameters sp;
  sp.p_i = traffic.p_i;
  sp.q_i = q_i;
  sp.q_p = q_p;
  sp.enc_i_mean = service.enc_i_mean;
  sp.enc_i_stddev = service.enc_i_stddev;
  sp.enc_p_mean = service.enc_p_mean;
  sp.enc_p_stddev = service.enc_p_stddev;
  sp.tx_i_mean = service.tx_i_mean;
  sp.tx_i_stddev = service.tx_i_stddev;
  sp.tx_p_mean = service.tx_p_mean;
  sp.tx_p_stddev = service.tx_p_stddev;
  sp.success_prob = service.mac_success_prob;
  sp.backoff_rate = service.backoff_rate;
  return sp;
}

}  // namespace tv::core
