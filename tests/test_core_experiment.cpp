// Integration tests: the full Fig. 3 pipeline plus the analytic predictors,
// checking the paper's headline orderings end to end on small clips.
#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/advisor.hpp"
#include "crypto/suite.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "video/bitstream.hpp"

namespace tv::core {
namespace {

const Workload& slow_workload() {
  static const Workload w =
      build_workload(video::MotionLevel::kLow, 20, 60, 2013);
  return w;
}

const Workload& fast_workload() {
  static const Workload w =
      build_workload(video::MotionLevel::kHigh, 20, 60, 2013);
  return w;
}

ExperimentSpec spec_for(const Workload& w, policy::Mode mode,
                        double fraction = 0.0) {
  ExperimentSpec spec;
  spec.policy = {mode, crypto::Algorithm::kAes256, fraction};
  spec.pipeline.device = samsung_galaxy_s2();
  spec.repetitions = 2;
  spec.seed = 99;
  spec.sensitivity_fraction = default_sensitivity(w.motion);
  return spec;
}

TEST(Workload, HasPaperLikeStreamStructure) {
  const auto& w = slow_workload();
  EXPECT_EQ(w.stream.frames.size(), 60u);
  EXPECT_GT(w.stream.mean_i_bytes(), 5.0 * w.stream.mean_p_bytes());
  EXPECT_GT(w.base_mse, 0.0);
  EXPECT_GT(w.null_mse, 50.0 * w.base_mse);  // gray is far from content.
  EXPECT_GT(w.inter(10.0), 0.0);
  // Fast motion content diverges from its past much faster.
  EXPECT_GT(fast_workload().inter(5.0), 5.0 * w.inter(5.0));
}

TEST(Experiment, ReceiverAlwaysBeatsEavesdropper) {
  for (const auto* w : {&slow_workload(), &fast_workload()}) {
    for (auto mode : {policy::Mode::kIFrames, policy::Mode::kAll}) {
      const auto r = run_experiment(spec_for(*w, mode), *w);
      EXPECT_GT(r.receiver_psnr_db.mean(),
                r.eavesdropper_psnr_db.mean() + 5.0)
          << r.label;
      EXPECT_GE(r.receiver_mos.mean(), r.eavesdropper_mos.mean());
    }
  }
}

TEST(Experiment, EncryptionNeverHelpsTheEavesdropper) {
  const auto& w = slow_workload();
  const auto none = run_experiment(spec_for(w, policy::Mode::kNone), w);
  const auto all = run_experiment(spec_for(w, policy::Mode::kAll), w);
  EXPECT_GT(none.eavesdropper_psnr_db.mean(),
            all.eavesdropper_psnr_db.mean() + 10.0);
  EXPECT_GT(none.eavesdropper_mos.mean(), all.eavesdropper_mos.mean());
}

TEST(Experiment, SlowMotionIFramesDominateConfidentiality) {
  // Paper key result: for slow motion, I-only is nearly as protective as
  // encrypting everything, and much more protective than P-only.
  const auto& w = slow_workload();
  const auto i_only = run_experiment(spec_for(w, policy::Mode::kIFrames), w);
  const auto p_only = run_experiment(spec_for(w, policy::Mode::kPFrames), w);
  const auto all = run_experiment(spec_for(w, policy::Mode::kAll), w);
  EXPECT_LT(i_only.eavesdropper_psnr_db.mean(),
            p_only.eavesdropper_psnr_db.mean() - 5.0);
  EXPECT_NEAR(i_only.eavesdropper_psnr_db.mean(),
              all.eavesdropper_psnr_db.mean(), 2.0);
}

TEST(Experiment, FastMotionPFramesMatterMore) {
  // Paper key result: for fast motion the P-frames carry enough content
  // that encrypting only them distorts more than encrypting only I-frames.
  const auto& w = fast_workload();
  const auto i_only = run_experiment(spec_for(w, policy::Mode::kIFrames), w);
  const auto p_only = run_experiment(spec_for(w, policy::Mode::kPFrames), w);
  EXPECT_LT(p_only.eavesdropper_psnr_db.mean(),
            i_only.eavesdropper_psnr_db.mean());
}

TEST(Experiment, FractionOfPTightensProtectionAtSmallDelayCost) {
  const auto& w = fast_workload();
  const auto i_only = run_experiment(spec_for(w, policy::Mode::kIFrames), w);
  const auto i_p20 =
      run_experiment(spec_for(w, policy::Mode::kIPlusFractionP, 0.20), w);
  EXPECT_LT(i_p20.eavesdropper_psnr_db.mean(),
            i_only.eavesdropper_psnr_db.mean());
  // Table 2: the extra delay is a few milliseconds, not a regime change.
  EXPECT_LT(i_p20.delay_ms.mean(), i_only.delay_ms.mean() + 15.0);
}

TEST(Experiment, DelayOrderingMatchesPaper) {
  const auto& w = fast_workload();
  auto quick = [&](policy::Mode mode) {
    auto s = spec_for(w, mode);
    s.evaluate_quality = false;
    s.repetitions = 6;
    return run_experiment(s, w).delay_ms.mean();
  };
  const double none = quick(policy::Mode::kNone);
  const double i_only = quick(policy::Mode::kIFrames);
  const double p_only = quick(policy::Mode::kPFrames);
  const double all = quick(policy::Mode::kAll);
  EXPECT_LT(none, p_only);
  EXPECT_LT(i_only, p_only);
  EXPECT_LE(p_only, all * 1.1);  // P carries most packets: nearly "all".
  EXPECT_LT(none, all);
}

TEST(Experiment, PowerOrderingMatchesPaper) {
  const auto& w = slow_workload();
  auto power = [&](policy::Mode mode) {
    auto s = spec_for(w, mode);
    s.evaluate_quality = false;
    return run_experiment(s, w).power_w.mean();
  };
  const double none = power(policy::Mode::kNone);
  const double i_only = power(policy::Mode::kIFrames);
  const double all = power(policy::Mode::kAll);
  EXPECT_LT(none, i_only);
  EXPECT_LT(i_only, all);
}

TEST(Experiment, PredictionsTrackMeasurements) {
  const auto& w = slow_workload();
  const auto r = run_experiment(spec_for(w, policy::Mode::kIFrames), w);
  // Analysis vs experiment: same regime, not orders of magnitude apart.
  EXPECT_GT(r.predicted_delay.mean_delay_ms, 0.2 * r.delay_ms.mean());
  EXPECT_LT(r.predicted_delay.mean_delay_ms, 5.0 * r.delay_ms.mean());
  EXPECT_NEAR(r.predicted_eavesdropper.psnr_db,
              r.eavesdropper_psnr_db.mean(), 6.0);
  EXPECT_NEAR(r.predicted_receiver.psnr_db, r.receiver_psnr_db.mean(), 8.0);
  EXPECT_NEAR(r.predicted_power.mean_power_w, r.power_w.mean(),
              0.25 * r.power_w.mean());
}

TEST(Experiment, TcpIsSlowerButSameDistortionStory) {
  const auto& w = slow_workload();
  auto udp_spec = spec_for(w, policy::Mode::kIFrames);
  auto tcp_spec = udp_spec;
  tcp_spec.pipeline.transport = Transport::kHttpTcp;
  const auto udp = run_experiment(udp_spec, w);
  const auto tcp = run_experiment(tcp_spec, w);
  EXPECT_GT(tcp.delay_ms.mean(), udp.delay_ms.mean());
  EXPECT_LT(tcp.eavesdropper_psnr_db.mean(), 25.0);
  EXPECT_GT(tcp.receiver_psnr_db.mean(), 30.0);
}

TEST(Experiment, EncryptionStatsMatchPolicy) {
  const auto& w = slow_workload();
  const auto r = run_experiment(spec_for(w, policy::Mode::kAll), w);
  EXPECT_DOUBLE_EQ(r.encryption.packet_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(r.encryption.byte_fraction(), 1.0);
  const auto none = run_experiment(spec_for(w, policy::Mode::kNone), w);
  EXPECT_DOUBLE_EQ(none.encryption.packet_fraction(), 0.0);
}

TEST(Flow, ShipSendsDegradedPacketsInClearAndHidesMarkers) {
  const auto& w = slow_workload();
  const policy::EncryptionPolicy pol{policy::Mode::kAll,
                                     crypto::Algorithm::kTripleDes, 0.0};
  Flow flow{w, pol, 5, policy::shaping_from_string("pad256+hidemark")};

  // A slow cipher behind a fast producer builds a queue, so the policy
  // gate degrades some of the encrypted P packets.
  PipelineConfig pipeline;
  pipeline.device = samsung_galaxy_s2();
  pipeline.algorithm = pol.algorithm;
  pipeline.fps = 120.0;
  pipeline.frame_jitter_mean_s = 0.0;
  pipeline.degrade_sojourn_s = 0.05;
  const TransferResult transfer =
      simulate_transfer(pipeline, flow.packets(), 9);
  ASSERT_GT(transfer.degraded_packets, 0u);
  flow.ship(transfer);

  std::size_t degraded = 0;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < flow.packets().size(); ++i) {
    const net::VideoPacket& p = flow.packets()[i];
    const net::RtpHeader header = net::RtpHeader::parse(p.payload.wire());
    EXPECT_FALSE(header.marker) << i;  // hidemark: no wire oracle.
    if (!transfer.degraded_cleartext[i]) {
      EXPECT_TRUE(p.encrypted) << i;
      ++kept;
      continue;
    }
    ++degraded;
    EXPECT_FALSE(p.encrypted) << i;
    const util::ByteView plain = w.packets[i].payload.payload();
    ASSERT_EQ(p.content_size(), plain.size()) << i;
    EXPECT_TRUE(std::equal(plain.begin(), plain.end(), p.payload.begin()))
        << i;
    EXPECT_EQ(net::rtp_unpadded_size(header, p.payload.payload()),
              p.content_size())
        << i;
  }
  EXPECT_EQ(degraded, transfer.degraded_packets);
  EXPECT_GT(kept, 0u);

  // Everything delivered: the receiver rebuilds the intact stream.
  const video::FrameSequence rx = flow.decode(
      std::vector<bool>(flow.packets().size(), true), /*decrypt=*/true);
  std::vector<video::ReceivedFrameData> intact;
  for (const auto& f : w.stream.frames) {
    intact.push_back(video::ReceivedFrameData::intact(f.data));
  }
  const video::FrameSequence expected = video::Decoder{w.codec}.decode_stream(
      w.stream.width, w.stream.height, intact);
  ASSERT_EQ(rx.size(), expected.size());
  for (std::size_t f = 0; f < rx.size(); ++f) {
    EXPECT_EQ(rx[f].y_plane(), expected[f].y_plane()) << f;
    EXPECT_EQ(rx[f].u_plane(), expected[f].u_plane()) << f;
    EXPECT_EQ(rx[f].v_plane(), expected[f].v_plane()) << f;
  }
}

TEST(Flow, DecryptedFramesMatchPerPacketDecrypt) {
  // The receiver reassembles from the flow's decrypted image.  It must
  // equal a per-packet decrypt of the same wire for every cipher and mask,
  // while a pool's threads build and read the image at once, and again
  // after ship() rewrites the wire.
  const auto& w = slow_workload();
  const int n = static_cast<int>(w.stream.frames.size());
  util::ThreadPool pool{4};
  util::Rng rng{0xf10};
  for (const auto algorithm :
       {crypto::Algorithm::kAes128, crypto::Algorithm::kAes256,
        crypto::Algorithm::kTripleDes}) {
    for (const char* shaping : {"none", "pad256"}) {
      const policy::EncryptionPolicy pol{policy::Mode::kIPlusFractionP,
                                         algorithm, 0.5};
      Flow flow{w, pol, 21, policy::shaping_from_string(shaping)};
      const std::size_t packets = flow.packets().size();
      const auto random_mask = [&rng, packets](double p) {
        std::vector<bool> mask(packets);
        for (std::size_t i = 0; i < packets; ++i) mask[i] = rng.bernoulli(p);
        return mask;
      };
      std::vector<std::vector<bool>> masks;
      masks.emplace_back(packets, true);
      masks.emplace_back(packets, false);
      for (const double p : {0.3, 0.7, 0.9, 0.95}) {
        masks.push_back(random_mask(p));
      }
      for (const bool shipped : {false, true}) {
        if (shipped) {
          TransferResult transfer;
          transfer.degraded_cleartext = random_mask(0.2);
          flow.ship(transfer);
        }
        std::vector<int> equal(masks.size(), 0);
        util::parallel_for(&pool, masks.size(), [&](std::size_t m) {
          const auto image = flow.frames(masks[m], /*decrypt=*/true);
          const auto per_packet = net::reassemble(
              flow.packets(), masks[m], n, &flow.cipher(), flow.iv());
          bool same = image.size() == per_packet.size();
          for (std::size_t k = 0; same && k < image.size(); ++k) {
            same = image[k].data == per_packet[k].data &&
                   image[k].byte_ok == per_packet[k].byte_ok;
          }
          equal[m] = same ? 1 : 0;
        });
        for (std::size_t m = 0; m < masks.size(); ++m) {
          EXPECT_EQ(equal[m], 1)
              << crypto::to_string(algorithm) << " " << shaping << " mask "
              << m << (shipped ? " after ship" : "");
        }
      }
    }
  }
}

TEST(ScoreStream, FrameNamingAnotherSizeIsScoredAsLost) {
  // A readable header naming 2048x2048 is a bad header: the frame is
  // concealed at the stream's size and scoring goes on.
  video::ByteWriter header;
  header.put_u8(0x54);
  header.put_u8(0);
  header.put_u32(0);
  header.put_u16(2048);
  header.put_u16(2048);
  header.put_u16(128);
  for (int r = 0; r < 128; ++r) header.put_varint(0);
  const auto& w = slow_workload();
  std::vector<video::ReceivedFrameData> frames;
  for (const auto& f : w.stream.frames) {
    frames.push_back(video::ReceivedFrameData::intact(f.data));
  }
  frames[5] = video::ReceivedFrameData::intact(header.take());
  StreamScore score;
  ASSERT_NO_THROW(score = score_stream(w, frames));
  const video::FrameSequence decoded = video::Decoder{w.codec}.decode_stream(
      w.stream.width, w.stream.height, frames);
  EXPECT_EQ(score.psnr_db, video::sequence_psnr(w.clip, decoded));
  EXPECT_LT(score.psnr_db, video::psnr_from_mse(w.base_mse));
}

TEST(Advisor, RecommendsCheapestConfidentialPolicy) {
  const auto& w = slow_workload();
  PipelineConfig pipeline;
  pipeline.device = samsung_galaxy_s2();
  const auto probe = simulate_transfer(pipeline, w.packets, 12);
  const auto traffic = calibrate_traffic(w.packets, probe.timings, w.fps);
  const auto service =
      calibrate_service(w.packets, probe.timings, pipeline, traffic);
  DistortionInputs di;
  di.gop_size = w.codec.gop_size;
  di.n_gops = 3;
  di.sensitivity_fraction = default_sensitivity(w.motion);
  di.base_mse = w.base_mse;
  di.null_mse = w.null_mse;
  di.inter = w.inter;
  AdvisorRequest request;
  request.max_eavesdropper_psnr_db = 20.0;
  const auto result = advise(request, traffic, service, pipeline.device, di,
                             1.0 - pipeline.eavesdropper_loss_prob);
  ASSERT_TRUE(result.recommendation.has_value());
  EXPECT_TRUE(result.recommendation->confidential);
  // "none" must never qualify at a 20 dB ceiling for this content.
  for (const auto& eval : result.evaluations) {
    if (eval.policy.mode == policy::Mode::kNone) {
      EXPECT_FALSE(eval.confidential);
    }
  }
  // The recommendation minimizes delay among confidential candidates.
  for (const auto& eval : result.evaluations) {
    if (eval.confidential) {
      EXPECT_LE(result.recommendation->delay.mean_delay_ms,
                eval.delay.mean_delay_ms + 1e-9);
    }
  }
}

TEST(Workload, ValidatesInputs) {
  EXPECT_THROW((void)build_workload(video::MotionLevel::kLow, 30, 10, 1),
               std::invalid_argument);
}

TEST(Workload, PooledBuildMatchesSerialBuild) {
  const Workload serial =
      build_workload(video::MotionLevel::kMedium, 15, 30, 77);

  // base_mse comes from the encoder's reconstruction; it must equal the
  // floor a decode of the intact stream gives.
  {
    std::vector<video::ReceivedFrameData> intact;
    for (const auto& f : serial.stream.frames) {
      intact.push_back(video::ReceivedFrameData::intact(f.data));
    }
    const video::FrameSequence lossless =
        video::Decoder{serial.codec}.decode_stream(
            serial.stream.width, serial.stream.height, intact);
    double mse = 0.0;
    for (std::size_t i = 0; i < serial.clip.size(); ++i) {
      mse += video::luma_mse(serial.clip[i], lossless[i]);
    }
    EXPECT_EQ(serial.base_mse, mse / static_cast<double>(serial.clip.size()));
  }

  for (unsigned threads : {1U, 2U, 4U, 8U}) {
    util::ThreadPool pool{threads};
    const Workload pooled = build_workload(video::MotionLevel::kMedium, 15,
                                           30, 77, 30.0, &pool);
    SCOPED_TRACE(testing::Message() << threads << " threads");
    ASSERT_EQ(pooled.stream.frames.size(), serial.stream.frames.size());
    for (std::size_t i = 0; i < serial.stream.frames.size(); ++i) {
      EXPECT_EQ(pooled.stream.frames[i].data, serial.stream.frames[i].data);
    }
    ASSERT_EQ(pooled.packets.size(), serial.packets.size());
    for (std::size_t i = 0; i < serial.packets.size(); ++i) {
      const auto a = pooled.packets[i].payload.wire();
      const auto b = serial.packets[i].payload.wire();
      EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "packet " << i;
    }
    EXPECT_EQ(pooled.base_mse, serial.base_mse);
    EXPECT_EQ(pooled.null_mse, serial.null_mse);
    EXPECT_EQ(pooled.inter.polynomial().coefficients(),
              serial.inter.polynomial().coefficients());
    EXPECT_EQ(pooled.inter.saturation_distance(),
              serial.inter.saturation_distance());
  }
}

TEST(Experiment, ValidatesRepetitions) {
  auto spec = spec_for(slow_workload(), policy::Mode::kNone);
  spec.repetitions = 0;
  EXPECT_THROW((void)run_experiment(spec, slow_workload()), std::invalid_argument);
}

}  // namespace
}  // namespace tv::core
