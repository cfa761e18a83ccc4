#include "policy/policy.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "net/rtp.hpp"
#include "util/flags.hpp"
#include "util/record.hpp"

namespace tv::policy {

namespace {

/// "20" for 0.2, "12.5" for 0.125 — shortest representation of the
/// percentage, so spec() stays readable and round-trips exactly enough.
std::string format_pct(double fraction) {
  return util::fmt("%g", fraction * 100.0);
}

/// Parse a percentage like "20" or "12.5" into a fraction; throws on
/// malformed or out-of-range input.
double parse_pct(std::string_view text, std::string_view full_spec) {
  const auto pct = util::parse_double(std::string{text});
  if (!pct || *pct < 0.0 || *pct > 100.0) {
    throw std::invalid_argument{"bad percentage in policy spec: " +
                                std::string{full_spec}};
  }
  return *pct / 100.0;
}

/// Deterministic stride selector: returns true for the k-th eligible item
/// iff floor((k+1) f) > floor(k f), selecting an exact fraction f with an
/// even spread (Bresenham-style).
bool stride_select(long k, double fraction) {
  return std::floor((static_cast<double>(k) + 1.0) * fraction) >
         std::floor(static_cast<double>(k) * fraction);
}

}  // namespace

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kNone: return "none";
    case Mode::kIFrames: return "I";
    case Mode::kPFrames: return "P";
    case Mode::kAll: return "all";
    case Mode::kIPlusFractionP: return "I+aP";
    case Mode::kFractionI: return "aI";
  }
  return "?";
}

std::string EncryptionPolicy::label() const {
  const std::string alg{crypto::to_string(algorithm)};
  switch (mode) {
    case Mode::kNone: return "none";
    case Mode::kIFrames: return "I (" + alg + ")";
    case Mode::kPFrames: return "P (" + alg + ")";
    case Mode::kAll: return "all (" + alg + ")";
    case Mode::kIPlusFractionP:
      return "I+" + std::to_string(static_cast<int>(fraction * 100.0 + 0.5)) +
             "%P (" + alg + ")";
    case Mode::kFractionI:
      return std::to_string(static_cast<int>(fraction * 100.0 + 0.5)) +
             "%I (" + alg + ")";
  }
  return "?";
}

std::string EncryptionPolicy::spec() const {
  switch (mode) {
    case Mode::kNone: return "none";
    case Mode::kIFrames: return "I";
    case Mode::kPFrames: return "P";
    case Mode::kAll: return "all";
    case Mode::kIPlusFractionP: return "I+" + format_pct(fraction) + "P";
    case Mode::kFractionI: return format_pct(fraction) + "I";
  }
  return "?";
}

void EncryptionPolicy::validate() const {
  if (fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument{"EncryptionPolicy: fraction out of [0,1]"};
  }
  if ((mode == Mode::kIPlusFractionP || mode == Mode::kFractionI) &&
      fraction == 0.0 && mode == Mode::kFractionI) {
    // 0% of I packets is just "none"; allowed but almost surely a mistake.
  }
}

std::vector<bool> EncryptionPolicy::select(
    const std::vector<net::VideoPacket>& packets) const {
  validate();
  std::vector<bool> out(packets.size(), false);
  long i_seen = 0;
  long p_seen = 0;
  for (std::size_t k = 0; k < packets.size(); ++k) {
    const bool is_i = packets[k].is_i_frame;
    bool enc = false;
    switch (mode) {
      case Mode::kNone:
        break;
      case Mode::kAll:
        enc = true;
        break;
      case Mode::kIFrames:
        enc = is_i;
        break;
      case Mode::kPFrames:
        enc = !is_i;
        break;
      case Mode::kIPlusFractionP:
        enc = is_i || (!is_i && stride_select(p_seen, fraction));
        break;
      case Mode::kFractionI:
        enc = is_i && stride_select(i_seen, fraction);
        break;
    }
    if (is_i) {
      ++i_seen;
    } else {
      ++p_seen;
    }
    out[k] = enc;
  }
  return out;
}

double EncryptionPolicy::i_packet_fraction() const {
  switch (mode) {
    case Mode::kNone:
    case Mode::kPFrames:
      return 0.0;
    case Mode::kIFrames:
    case Mode::kAll:
    case Mode::kIPlusFractionP:
      return 1.0;
    case Mode::kFractionI:
      return fraction;
  }
  return 0.0;
}

double EncryptionPolicy::p_packet_fraction() const {
  switch (mode) {
    case Mode::kNone:
    case Mode::kIFrames:
    case Mode::kFractionI:
      return 0.0;
    case Mode::kPFrames:
    case Mode::kAll:
      return 1.0;
    case Mode::kIPlusFractionP:
      return fraction;
  }
  return 0.0;
}

EncryptionPolicy degrade_step(const EncryptionPolicy& policy) {
  EncryptionPolicy next = policy;
  switch (policy.mode) {
    case Mode::kNone:
    case Mode::kIFrames:
      break;  // ladder floor.
    case Mode::kAll:
      next.mode = Mode::kIPlusFractionP;
      next.fraction = 0.5;
      break;
    case Mode::kIPlusFractionP:
      next.fraction = policy.fraction / 2.0;
      if (next.fraction < 0.05) {
        next.mode = Mode::kIFrames;
        next.fraction = 0.0;
      }
      break;
    case Mode::kPFrames:
    case Mode::kFractionI:
      next.mode = Mode::kNone;
      next.fraction = 0.0;
      break;
  }
  return next;
}

EncryptionPolicy policy_from_string(std::string_view spec,
                                    crypto::Algorithm algorithm) {
  if (spec == "none") return {Mode::kNone, algorithm, 0.0};
  if (spec == "I") return {Mode::kIFrames, algorithm, 0.0};
  if (spec == "P") return {Mode::kPFrames, algorithm, 0.0};
  if (spec == "all") return {Mode::kAll, algorithm, 0.0};
  // "I+<pct>P", e.g. I+20P.
  if (spec.size() > 3 && spec.rfind("I+", 0) == 0 && spec.back() == 'P') {
    const double fraction =
        parse_pct(spec.substr(2, spec.size() - 3), spec);
    return {Mode::kIPlusFractionP, algorithm, fraction};
  }
  // "<pct>I", e.g. 50I (Section 6.2's partial I-frame encryption).
  if (spec.size() > 1 && spec.back() == 'I') {
    const double fraction =
        parse_pct(spec.substr(0, spec.size() - 1), spec);
    return {Mode::kFractionI, algorithm, fraction};
  }
  throw std::invalid_argument{"unknown policy: " + std::string{spec} +
                              " (none|I|P|all|I+<pct>P|<pct>I)"};
}

std::string ShapingPolicy::spec() const {
  if (!enabled()) return "none";
  std::string out;
  const auto append = [&out](const std::string& part) {
    if (!out.empty()) out += '+';
    out += part;
  };
  if (pad_bucket_bytes != 0) {
    append("pad" + std::to_string(pad_bucket_bytes));
  }
  if (hide_markers) append("hidemark");
  if (jitter_stddev_s > 0.0) {
    append(util::fmt("jit%gms", jitter_stddev_s * 1000.0));
  }
  return out;
}

void ShapingPolicy::validate() const {
  if (pad_bucket_bytes != 0 &&
      (pad_bucket_bytes < 2 || pad_bucket_bytes > net::kMaxRtpPadding + 1)) {
    throw std::invalid_argument{
        "ShapingPolicy: pad bucket must be 0 (off) or in [2, 256]"};
  }
  if (!(jitter_stddev_s >= 0.0) || jitter_stddev_s > 1.0) {
    throw std::invalid_argument{
        "ShapingPolicy: jitter sigma must be in [0, 1] seconds"};
  }
}

ShapingPolicy shaping_from_string(std::string_view spec) {
  ShapingPolicy out;
  if (spec == "none") return out;
  // Knobs must appear at most once each, in spec() order, so every
  // accepted string is the canonical one it round-trips to.
  int last_rank = -1;
  const auto take_rank = [&last_rank, spec](int rank) {
    if (rank <= last_rank) {
      throw std::invalid_argument{
          "shaping knobs must appear once, in pad/hidemark/jit order: " +
          std::string{spec}};
    }
    last_rank = rank;
  };
  std::size_t start = 0;
  while (start <= spec.size()) {
    const std::size_t plus = spec.find('+', start);
    const std::string_view part = spec.substr(
        start, plus == std::string_view::npos ? std::string_view::npos
                                              : plus - start);
    if (part.rfind("pad", 0) == 0 && part.size() > 3) {
      take_rank(0);
      const std::string digits{part.substr(3)};
      errno = 0;
      char* end = nullptr;
      const long bucket = std::strtol(digits.c_str(), &end, 10);
      if (end != digits.c_str() + digits.size() || errno != 0 || bucket < 2 ||
          bucket > static_cast<long>(net::kMaxRtpPadding) + 1) {
        throw std::invalid_argument{"bad pad bucket in shaping spec: " +
                                    std::string{spec}};
      }
      out.pad_bucket_bytes = static_cast<std::size_t>(bucket);
    } else if (part == "hidemark") {
      take_rank(1);
      out.hide_markers = true;
    } else if (part.rfind("jit", 0) == 0 && part.size() > 5 &&
               part.substr(part.size() - 2) == "ms") {
      take_rank(2);
      const auto ms =
          util::parse_double(std::string{part.substr(3, part.size() - 5)});
      if (!ms || !(*ms > 0.0)) {
        throw std::invalid_argument{"bad jitter in shaping spec: " +
                                    std::string{spec}};
      }
      out.jitter_stddev_s = *ms / 1000.0;
    } else {
      throw std::invalid_argument{
          "unknown shaping knob: " + std::string{part} +
          " (none|pad<bytes>|hidemark|jit<ms>ms, joined with +)"};
    }
    if (plus == std::string_view::npos) break;
    start = plus + 1;
  }
  out.validate();
  return out;
}

std::vector<EncryptionPolicy> headline_policies(crypto::Algorithm algorithm) {
  return {
      {Mode::kNone, algorithm, 0.0},
      {Mode::kPFrames, algorithm, 0.0},
      {Mode::kIFrames, algorithm, 0.0},
      {Mode::kAll, algorithm, 0.0},
  };
}

}  // namespace tv::policy
