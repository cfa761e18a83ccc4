// Typed command-line flag parsing shared by tools/ and bench/.
//
// The front ends all speak the same dialect: `--key=value` options,
// `--key` boolean shorthands, everything else positional.  The typed
// accessors validate the whole value and throw FlagError with a usable
// message ("invalid value for --reps: 'abc' ...") instead of letting a raw
// std::stoi exception escape to the user.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace tv::util {

/// Malformed command-line input: unknown flag or a value that fails typed
/// validation.  Front ends catch this and print a usage error.
class FlagError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The number std::strtod reads from all of `text`, without overflow;
/// nullopt for anything else ("", "1x", "1e999").  Every flag and spec
/// parser reads numbers through it, so they agree on what one is.
[[nodiscard]] std::optional<double> parse_double(const std::string& text);

/// The non-empty items of `text` between `separator`s ("a,,b," -> a, b).
[[nodiscard]] std::vector<std::string> split(const std::string& text,
                                             char separator);

class Flags {
 public:
  /// Parse argv[from..argc).  `--key=value` and `--key` (stored as "1")
  /// become options; everything else is positional, in order.  Throws
  /// FlagError on a repeated `--key` (a duplicated flag is always a typo or
  /// a script bug, and silently keeping one of the two values hides it) and
  /// on single-dash tokens that are not numbers ("-threads"); negative
  /// numeric tokens ("-5", "-.5") stay positional.
  [[nodiscard]] static Flags parse(int argc, char** argv, int from = 1);

  [[nodiscard]] bool has(const std::string& key) const;

  [[nodiscard]] std::string get(const std::string& key,
                                std::string fallback) const;
  [[nodiscard]] int get_int(const std::string& key, int fallback) const;
  [[nodiscard]] std::uint64_t get_uint64(const std::string& key,
                                         std::uint64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const;
  /// Accepts 1/0, true/false, on/off, yes/no (case-sensitive).
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  /// Comma-separated list; empty vector when the flag is absent.
  [[nodiscard]] std::vector<std::string> get_list(
      const std::string& key) const;
  /// Comma-separated integer list; empty vector when the flag is absent.
  [[nodiscard]] std::vector<int> get_int_list(const std::string& key) const;
  /// Comma-separated numeric list; empty vector when the flag is absent.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& key) const;

  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

  /// All parsed `--key=value` options, keyed by name.
  [[nodiscard]] const std::map<std::string, std::string>& options() const {
    return options_;
  }

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
};

/// Declarative flag registry for one (sub)command.  Each flag is registered
/// once with a value hint and a help line; the same registration then both
/// rejects unknown options (check) and generates the command's `--help`
/// text, so the two can never drift apart.
class FlagSet {
 public:
  /// `command` is the full invocation prefix ("thriftyvid sweep");
  /// `summary` is the one-line description shown in the help output.
  FlagSet(std::string command, std::string summary);

  /// Register a flag.  `value_hint` names the expected value ("N",
  /// "udp|tcp", "FILE"); empty marks a boolean switch.  Returns *this so
  /// registrations chain.
  FlagSet& flag(std::string name, std::string value_hint, std::string help);

  [[nodiscard]] const std::string& command() const { return command_; }
  [[nodiscard]] const std::string& summary() const { return summary_; }

  /// Full generated help text: usage line, summary, one aligned line per
  /// registered flag (plus the implicit --help).
  [[nodiscard]] std::string help_text() const;

  /// Throws FlagError naming the first parsed option not registered here.
  /// `--help` is always accepted (front ends handle it before parsing
  /// values).
  void check(const Flags& flags) const;

  /// The step every front end takes before reading values: parse
  /// argv[from..argc); on `--help` print help_text() to stdout and return
  /// nullopt (the caller exits 0); otherwise check() and return the flags.
  [[nodiscard]] std::optional<Flags> parse(int argc, char** argv,
                                           int from = 1) const;

  /// Whether `name` is given: a switch (empty value hint) reads through
  /// Flags::get_bool, any other flag counts when present.
  [[nodiscard]] bool given(const Flags& flags, const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    std::string value_hint;
    std::string help;
  };
  std::string command_;
  std::string summary_;
  std::vector<Entry> entries_;
};

}  // namespace tv::util
