#include "util/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace tv::util {

namespace {

[[noreturn]] void bad_value(const std::string& key, const std::string& value,
                            const char* expected) {
  throw FlagError{"invalid value for --" + key + ": '" + value +
                  "' (expected " + expected + ")"};
}

template <typename T>
T parse_integral(const std::string& key, const std::string& value,
                 const char* expected) {
  T parsed{};
  const char* begin = value.data();
  const char* end = begin + value.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  if (ec != std::errc{} || ptr != end) bad_value(key, value, expected);
  return parsed;
}

// A whole token that strtod consumes entirely ("-5", "-.5", "-1e3"):
// a negative numeric positional, not a mistyped flag.
bool is_numeric_token(const std::string& arg) {
  errno = 0;
  char* end = nullptr;
  (void)std::strtod(arg.c_str(), &end);
  return end == arg.c_str() + arg.size() && errno == 0;
}

}  // namespace

Flags Flags::parse(int argc, char** argv, int from) {
  Flags flags;
  for (int i = from; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const auto eq = arg.find('=');
      std::string key = eq == std::string::npos ? arg.substr(2)
                                                : arg.substr(2, eq - 2);
      std::string value =
          eq == std::string::npos ? std::string{"1"} : arg.substr(eq + 1);
      if (!flags.options_.emplace(std::move(key), std::move(value)).second) {
        throw FlagError{"duplicate option " + arg.substr(0, eq) +
                        " (each flag may be given once)"};
      }
    } else if (arg.size() > 1 && arg.front() == '-' &&
               !is_numeric_token(arg)) {
      // "-threads" is almost certainly a mistyped "--threads"; rejecting it
      // beats silently treating it as a positional.  Negative numbers stay
      // positional.
      throw FlagError{"unknown option '" + arg +
                      "' (options are --key or --key=value; negative "
                      "numbers are accepted as positional arguments)"};
    } else {
      flags.positional_.push_back(std::move(arg));
    }
  }
  return flags;
}

bool Flags::has(const std::string& key) const {
  return options_.count(key) > 0;
}

std::string Flags::get(const std::string& key, std::string fallback) const {
  const auto it = options_.find(key);
  return it == options_.end() ? std::move(fallback) : it->second;
}

int Flags::get_int(const std::string& key, int fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_integral<int>(key, it->second, "an integer");
}

std::uint64_t Flags::get_uint64(const std::string& key,
                                std::uint64_t fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  return parse_integral<std::uint64_t>(key, it->second,
                                       "a non-negative integer");
}

double Flags::get_double(const std::string& key, double fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& value = it->second;
  errno = 0;
  char* end = nullptr;
  const double parsed = std::strtod(value.c_str(), &end);
  if (value.empty() || end != value.c_str() + value.size() || errno != 0) {
    bad_value(key, value, "a number");
  }
  return parsed;
}

bool Flags::get_bool(const std::string& key, bool fallback) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return fallback;
  const std::string& value = it->second;
  if (value == "1" || value == "true" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "0" || value == "false" || value == "off" || value == "no") {
    return false;
  }
  bad_value(key, value, "a boolean (1/0, true/false, on/off, yes/no)");
}

std::vector<std::string> Flags::get_list(const std::string& key) const {
  const auto it = options_.find(key);
  if (it == options_.end()) return {};
  std::vector<std::string> items;
  const std::string& value = it->second;
  std::size_t pos = 0;
  while (pos <= value.size()) {
    const auto comma = value.find(',', pos);
    const auto end = comma == std::string::npos ? value.size() : comma;
    if (end > pos) items.push_back(value.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return items;
}

std::vector<int> Flags::get_int_list(const std::string& key) const {
  std::vector<int> items;
  for (const std::string& item : get_list(key)) {
    items.push_back(parse_integral<int>(key, item, "a comma-separated "
                                        "list of integers"));
  }
  return items;
}

std::vector<double> Flags::get_double_list(const std::string& key) const {
  std::vector<double> items;
  for (const std::string& item : get_list(key)) {
    errno = 0;
    char* end = nullptr;
    const double parsed = std::strtod(item.c_str(), &end);
    if (item.empty() || end != item.c_str() + item.size() || errno != 0) {
      bad_value(key, item, "a comma-separated list of numbers");
    }
    items.push_back(parsed);
  }
  return items;
}

FlagSet::FlagSet(std::string command, std::string summary)
    : command_(std::move(command)), summary_(std::move(summary)) {}

FlagSet& FlagSet::flag(std::string name, std::string value_hint,
                       std::string help) {
  entries_.push_back({std::move(name), std::move(value_hint),
                      std::move(help)});
  return *this;
}

std::string FlagSet::help_text() const {
  const auto spelled = [](const Entry& e) {
    return e.value_hint.empty() ? "--" + e.name
                                : "--" + e.name + "=" + e.value_hint;
  };
  std::size_t width = sizeof("--help") - 1;
  for (const Entry& e : entries_) width = std::max(width, spelled(e).size());

  std::string out = "usage: " + command_;
  if (!entries_.empty()) out += " [options]";
  out += "\n\n  " + summary_ + "\n\noptions:\n";
  const auto line = [&](const std::string& left, const std::string& help) {
    out += "  " + left;
    out.append(width - left.size() + 2, ' ');
    out += help + "\n";
  };
  for (const Entry& e : entries_) line(spelled(e), e.help);
  line("--help", "show this help");
  return out;
}

void FlagSet::check(const Flags& flags) const {
  const auto known = [&](const std::string& key) {
    if (key == "help") return true;
    return std::any_of(entries_.begin(), entries_.end(),
                       [&](const Entry& e) { return e.name == key; });
  };
  for (const auto& [key, value] : flags.options()) {
    if (!known(key)) {
      throw FlagError{"unknown option --" + key + " (see " + command_ +
                      " --help)"};
    }
  }
}

}  // namespace tv::util
