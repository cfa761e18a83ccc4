#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace tv::util {
namespace {

Flags parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return Flags::parse(static_cast<int>(argv.size()),
                      const_cast<char**>(argv.data()));
}

TEST(Flags, SplitsOptionsAndPositionals) {
  const auto f = parse({"--motion=high", "clip.y4m", "--verbose", "extra"});
  EXPECT_TRUE(f.has("motion"));
  EXPECT_EQ(f.get("motion", ""), "high");
  EXPECT_EQ(f.get("verbose", ""), "1");  // bare flag stored as "1".
  EXPECT_EQ(f.positional(), (std::vector<std::string>{"clip.y4m", "extra"}));
  EXPECT_FALSE(f.has("absent"));
  EXPECT_EQ(f.get("absent", "fallback"), "fallback");
}

TEST(Flags, TypedAccessors) {
  const auto f = parse({"--reps=20", "--seed=2013", "--loss=0.25",
                        "--quality=off"});
  EXPECT_EQ(f.get_int("reps", 0), 20);
  EXPECT_EQ(f.get_uint64("seed", 0), 2013u);
  EXPECT_DOUBLE_EQ(f.get_double("loss", 0.0), 0.25);
  EXPECT_FALSE(f.get_bool("quality", true));
  // Fallbacks when absent.
  EXPECT_EQ(f.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(f.get_double("missing", 1.5), 1.5);
  EXPECT_TRUE(f.get_bool("missing", true));
}

TEST(Flags, InvalidIntegerReportsFlagAndValue) {
  const auto f = parse({"--reps=abc"});
  try {
    (void)f.get_int("reps", 0);
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--reps"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(Flags, RejectsTrailingGarbageAndPartialNumbers) {
  const auto f = parse({"--reps=12x", "--loss=0.5y", "--seed=-3"});
  EXPECT_THROW((void)f.get_int("reps", 0), FlagError);
  EXPECT_THROW((void)f.get_double("loss", 0.0), FlagError);
  EXPECT_THROW((void)f.get_uint64("seed", 0), FlagError);
}

TEST(Flags, BoolAcceptsAllSpellings) {
  const auto f = parse({"--a=1", "--b=true", "--c=on", "--d=yes", "--e=0",
                        "--f=false", "--g=off", "--h=no", "--i=maybe"});
  for (const char* key : {"a", "b", "c", "d"}) {
    EXPECT_TRUE(f.get_bool(key, false)) << key;
  }
  for (const char* key : {"e", "f", "g", "h"}) {
    EXPECT_FALSE(f.get_bool(key, true)) << key;
  }
  EXPECT_THROW((void)f.get_bool("i", false), FlagError);
}

TEST(Flags, ListsSplitOnCommas) {
  const auto f = parse({"--motions=low,high", "--gops=30,50", "--one=x"});
  EXPECT_EQ(f.get_list("motions"), (std::vector<std::string>{"low", "high"}));
  EXPECT_EQ(f.get_int_list("gops"), (std::vector<int>{30, 50}));
  EXPECT_EQ(f.get_list("one"), (std::vector<std::string>{"x"}));
  EXPECT_TRUE(f.get_list("absent").empty());
  EXPECT_THROW((void)f.get_int_list("motions"), FlagError);
}

TEST(Flags, RejectsDuplicateOptions) {
  try {
    (void)parse({"--seed=1", "--seed=2"});
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    EXPECT_NE(std::string(e.what()).find("--seed"), std::string::npos)
        << e.what();
  }
  // Distinct keys are of course fine.
  EXPECT_NO_THROW((void)parse({"--seed=1", "--reps=2"}));
}

TEST(Flags, NegativeNumbersAreValuesNotFlags) {
  const auto f = parse({"--loss=-0.25", "-5", "-.5", "-0", "x"});
  EXPECT_DOUBLE_EQ(f.get_double("loss", 0.0), -0.25);
  // Single-dash numeric tokens are positionals, not malformed options.
  EXPECT_EQ(f.positional(),
            (std::vector<std::string>{"-5", "-.5", "-0", "x"}));
  // A single-dash word is a typo'd option, not a positional.
  EXPECT_THROW((void)parse({"-threads"}), FlagError);
}

TEST(Flags, DoubleListParsesAndValidates) {
  const auto f = parse({"--lambdas=2400,160.5,-3", "--bad=1,x"});
  EXPECT_EQ(f.get_double_list("lambdas"),
            (std::vector<double>{2400.0, 160.5, -3.0}));
  EXPECT_TRUE(f.get_double_list("absent").empty());
  EXPECT_THROW((void)f.get_double_list("bad"), FlagError);
}

TEST(FlagSet, HelpTextListsEveryRegisteredFlagAligned) {
  FlagSet fs{"prog demo", "Demo command for the help generator."};
  fs.flag("reps", "N", "repetition count")
      .flag("format", "table|jsonl", "output format")
      .flag("fast", "", "boolean switch");
  const std::string help = fs.help_text();
  EXPECT_NE(help.find("usage: prog demo [options]"), std::string::npos);
  EXPECT_NE(help.find("Demo command for the help generator."),
            std::string::npos);
  EXPECT_NE(help.find("--reps=N"), std::string::npos);
  EXPECT_NE(help.find("--format=table|jsonl"), std::string::npos);
  // A boolean switch is spelled without a value hint.
  EXPECT_NE(help.find("--fast "), std::string::npos);
  EXPECT_EQ(help.find("--fast="), std::string::npos);
  // The implicit --help line is always present and listed last.
  const auto help_pos = help.find("--help");
  ASSERT_NE(help_pos, std::string::npos);
  EXPECT_GT(help_pos, help.find("--fast"));
  // Help columns align: every flag line's description starts at the same
  // column (two spaces past the widest spelling).
  EXPECT_NE(help.find("--reps=N              repetition count"),
            std::string::npos)
      << help;
}

TEST(FlagSet, CheckAcceptsRegisteredFlagsAndImplicitHelp) {
  FlagSet fs{"prog demo", "Demo."};
  fs.flag("reps", "N", "repetition count");
  EXPECT_NO_THROW(fs.check(parse({"--reps=3"})));
  EXPECT_NO_THROW(fs.check(parse({"--help"})));
  EXPECT_NO_THROW(fs.check(parse({})));
}

TEST(FlagSet, CheckNamesTheOffenderAndPointsAtHelp) {
  FlagSet fs{"prog demo", "Demo."};
  fs.flag("reps", "N", "repetition count");
  try {
    fs.check(parse({"--reps=3", "--typo=1"}));
    FAIL() << "expected FlagError";
  } catch (const FlagError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("--typo"), std::string::npos);
    EXPECT_NE(what.find("prog demo --help"), std::string::npos);
  }
}

TEST(FlagSet, ParseChecksUnlessHelpIsAsked) {
  FlagSet fs{"prog demo", "Demo."};
  fs.flag("reps", "N", "repetition count");
  const auto run = [&](std::vector<const char*> argv) {
    argv.insert(argv.begin(), "prog");
    return fs.parse(static_cast<int>(argv.size()),
                    const_cast<char**>(argv.data()));
  };
  const auto args = run({"--reps=3"});
  ASSERT_TRUE(args.has_value());
  EXPECT_EQ(args->get_int("reps", 0), 3);
  EXPECT_THROW((void)run({"--typo=1"}), FlagError);
  // --help wins over an unknown flag; --help=0 does not ask for help.
  testing::internal::CaptureStdout();
  EXPECT_FALSE(run({"--typo=1", "--help"}).has_value());
  EXPECT_EQ(testing::internal::GetCapturedStdout(), fs.help_text());
  EXPECT_TRUE(run({"--help=0"}).has_value());
}

TEST(FlagSet, GivenReadsSwitchesAsBooleansAndValuesByPresence) {
  FlagSet fs{"prog demo", "Demo."};
  fs.flag("validate", "", "a switch").flag("events", "N", "a value");
  EXPECT_TRUE(fs.given(parse({"--validate"}), "validate"));
  EXPECT_TRUE(fs.given(parse({"--validate=yes"}), "validate"));
  EXPECT_FALSE(fs.given(parse({"--validate=0"}), "validate"));
  EXPECT_FALSE(fs.given(parse({"--validate=no"}), "validate"));
  EXPECT_FALSE(fs.given(parse({}), "validate"));
  EXPECT_THROW((void)fs.given(parse({"--validate=maybe"}), "validate"),
               FlagError);
  EXPECT_TRUE(fs.given(parse({"--events=0"}), "events"));
  EXPECT_FALSE(fs.given(parse({}), "events"));
}

}  // namespace
}  // namespace tv::util
