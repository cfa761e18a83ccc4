#include "wifi/gilbert_elliott.hpp"

#include <stdexcept>

#include "util/flags.hpp"

namespace tv::wifi {

double GilbertElliottParams::stationary_bad_prob() const {
  if (effectively_iid()) return 0.0;
  return (mean_loss_prob - good_loss_prob) / (bad_loss_prob - good_loss_prob);
}

double GilbertElliottParams::bad_to_good_prob() const {
  if (effectively_iid()) return 1.0;
  return 1.0 / mean_burst_length;
}

double GilbertElliottParams::good_to_bad_prob() const {
  if (effectively_iid()) return 0.0;
  const double pi_bad = stationary_bad_prob();
  // Balance: pi_good * p = pi_bad * r.
  return bad_to_good_prob() * pi_bad / (1.0 - pi_bad);
}

void GilbertElliottParams::validate() const {
  if (mean_loss_prob < 0.0 || mean_loss_prob > 1.0 ||
      good_loss_prob < 0.0 || good_loss_prob > 1.0 ||
      bad_loss_prob < 0.0 || bad_loss_prob > 1.0) {
    throw std::invalid_argument{
        "GilbertElliottParams: probabilities must lie in [0, 1]"};
  }
  if (mean_burst_length < 0.0) {
    throw std::invalid_argument{
        "GilbertElliottParams: mean_burst_length must be >= 0"};
  }
  if (effectively_iid()) return;  // plain Bernoulli: nothing else to check.
  if (good_loss_prob >= bad_loss_prob) {
    throw std::invalid_argument{
        "GilbertElliottParams: need good_loss_prob < bad_loss_prob"};
  }
  if (mean_loss_prob < good_loss_prob || mean_loss_prob > bad_loss_prob) {
    throw std::invalid_argument{
        "GilbertElliottParams: mean_loss_prob must lie between the "
        "per-state loss probabilities"};
  }
  const double pi_bad = stationary_bad_prob();
  if (pi_bad >= 1.0) {
    throw std::invalid_argument{
        "GilbertElliottParams: stationary Bad probability is 1; the Good "
        "state never occurs"};
  }
  if (good_to_bad_prob() > 1.0) {
    throw std::invalid_argument{
        "GilbertElliottParams: burst length too short for the requested "
        "loss rate (Good->Bad probability exceeds 1)"};
  }
}

bool in_outage(const std::vector<OutageWindow>& outages, double t) {
  for (const auto& w : outages) {
    if (w.contains(t)) return true;
  }
  return false;
}

std::vector<OutageWindow> parse_outage_windows(const std::string& text,
                                               char separator,
                                               const std::string& what) {
  std::vector<OutageWindow> windows;
  for (const std::string& item : util::split(text, separator)) {
    const std::size_t colon = item.find(':');
    const auto start = util::parse_double(item.substr(0, colon));
    const auto duration = colon == std::string::npos
                              ? std::nullopt
                              : util::parse_double(item.substr(colon + 1));
    if (!start || !duration || !(*start >= 0.0) || !(*duration > 0.0)) {
      throw std::invalid_argument{
          "invalid value for " + what + ": '" + item +
          "' (expected START:DURATION in seconds, START >= 0, "
          "DURATION > 0)"};
    }
    windows.push_back({*start, *duration});
  }
  return windows;
}

GilbertElliottChannel::GilbertElliottChannel(
    const GilbertElliottParams& params, std::uint64_t seed)
    : params_(params), rng_(seed) {
  params_.validate();
  if (!params_.effectively_iid()) {
    p_good_to_bad_ = params_.good_to_bad_prob();
    p_bad_to_good_ = params_.bad_to_good_prob();
    // Start from the stationary distribution so the loss rate holds from
    // the first slot (the chain has no warm-up transient).
    bad_ = rng_.bernoulli(params_.stationary_bad_prob());
  }
}

bool GilbertElliottChannel::lose_packet() {
  if (params_.effectively_iid()) {
    return rng_.bernoulli(params_.mean_loss_prob);
  }
  const bool lost = rng_.bernoulli(bad_ ? params_.bad_loss_prob
                                        : params_.good_loss_prob);
  bad_ = bad_ ? !rng_.bernoulli(p_bad_to_good_)
              : rng_.bernoulli(p_good_to_bad_);
  return lost;
}

std::vector<bool> GilbertElliottChannel::trace(std::size_t n) {
  std::vector<bool> out(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = lose_packet();
  return out;
}

}  // namespace tv::wifi
