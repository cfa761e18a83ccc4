#include "util/flags.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdio>
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

}  // namespace

std::optional<double> parse_double(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno != 0) {
    return std::nullopt;
  }
  return value;
}

std::vector<std::string> split(const std::string& text, char separator) {
  std::vector<std::string> items;
  for (std::size_t pos = 0; pos < text.size();) {
    const std::size_t end = std::min(text.find(separator, pos), text.size());
    if (end > pos) items.push_back(text.substr(pos, end - pos));
    pos = end + 1;
  }
  return items;
}

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
               !parse_double(arg)) {
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
  const auto parsed = parse_double(it->second);
  if (!parsed) bad_value(key, it->second, "a number");
  return *parsed;
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
  return it == options_.end() ? std::vector<std::string>{}
                              : split(it->second, ',');
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
    const auto parsed = parse_double(item);
    if (!parsed) bad_value(key, item, "a comma-separated list of numbers");
    items.push_back(*parsed);
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

std::optional<Flags> FlagSet::parse(int argc, char** argv, int from) const {
  Flags flags = Flags::parse(argc, argv, from);
  if (flags.get_bool("help", false)) {
    std::fputs(help_text().c_str(), stdout);
    return std::nullopt;
  }
  check(flags);
  return flags;
}

bool FlagSet::given(const Flags& flags, const std::string& name) const {
  const bool is_switch = std::any_of(
      entries_.begin(), entries_.end(),
      [&](const Entry& e) { return e.name == name && e.value_hint.empty(); });
  return is_switch ? flags.get_bool(name, false) : flags.has(name);
}

}  // namespace tv::util
