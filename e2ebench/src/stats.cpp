#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <stdexcept>

namespace e2e {

namespace {

std::size_t nearest_rank(std::size_t n, double p) {
  // p/100 * n is inexact in binary (99.9% of 10000 is 9990.000000000002);
  // round away representation error before taking the ceiling.
  const double exact = p / 100.0 * static_cast<double>(n);
  const double rank = std::ceil(exact - 1e-9 * exact);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

double median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument{"median: no samples"};
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return 0.5 * (lower + upper);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) throw std::invalid_argument{"percentile: no samples"};
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument{"percentile: p outside (0, 100]"};
  }
  const std::size_t k = nearest_rank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

std::size_t samples_beyond(std::size_t n, double p) {
  if (n == 0) return 0;
  return n - nearest_rank(n, p);
}

TailSummary summarize(const std::vector<double>& samples,
                      std::size_t min_beyond) {
  TailSummary s;
  s.count = samples.size();
  s.median = median(samples);
  s.percentile = 100.0;
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (samples_beyond(s.count, p) >= min_beyond) {
      s.percentile = p;
      break;
    }
  }
  s.value = percentile(samples, s.percentile);
  s.beyond = samples_beyond(s.count, s.percentile);
  return s;
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  if (name.front() == '_' || name.front() == '.' || name.front() == '-') {
    return false;
  }
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

void MetricSet::add(std::string name, double value, std::string unit) {
  if (!valid_metric_name(name)) {
    throw std::invalid_argument{"metric name '" + name + "' is not valid"};
  }
  if (!valid_unit(unit)) {
    throw std::invalid_argument{"unit '" + unit + "' of " + name +
                                " is not valid"};
  }
  for (const Metric& m : items_) {
    if (m.name == name) {
      throw std::invalid_argument{"metric '" + name + "' added twice"};
    }
  }
  items_.push_back({std::move(name), value, std::move(unit)});
}

std::string result_json(bool correct, std::size_t attempted,
                        std::size_t failed, const MetricSet& metrics) {
  std::string body;
  for (const Metric& m : metrics.items()) {
    double v = m.value;
    if (!std::isfinite(v)) {
      correct = false;
      v = 0.0;
    }
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", v);
    if (!body.empty()) body += ", ";
    body += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         body + "}}";
}

DigestStream::Buf::int_type DigestStream::Buf::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    const char ch = traits_type::to_char_type(c);
    state = fnv1a64({&ch, 1}, state);
  }
  return traits_type::not_eof(c);
}

std::streamsize DigestStream::Buf::xsputn(const char* s, std::streamsize n) {
  state = fnv1a64({s, static_cast<std::size_t>(n)}, state);
  return n;
}

std::uint64_t fnv1a64(std::string_view bytes, std::uint64_t state) {
  for (unsigned char c : bytes) {
    state ^= c;
    state *= 0x100000001b3ULL;
  }
  return state;
}

}  // namespace e2e
