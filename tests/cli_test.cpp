// Unit tests for the CLI argument parser and the study command's fault /
// checkpoint option handling.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/scale.hpp"
#include "fault/plan.hpp"
#include "util/cli.hpp"

namespace cloudrtt::util {
namespace {

ArgParser make_parser() {
  ArgParser parser{"prog", "test program"};
  parser.add_option("count", "5", "how many");
  parser.add_option("ratio", "0.5", "a ratio");
  parser.add_flag("verbose", "say more");
  parser.add_positional("target", "what to hit", "default-target");
  return parser;
}

TEST(ArgParser, DefaultsApply) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get("count"), "5");
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.5);
  EXPECT_FALSE(parser.get_flag("verbose"));
  EXPECT_EQ(parser.get("target"), "default-target");
}

TEST(ArgParser, OptionsAndFlagsParse) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "9", "--verbose", "thing"};
  ASSERT_TRUE(parser.parse(5, argv));
  EXPECT_EQ(parser.get_int("count"), 9);
  EXPECT_TRUE(parser.get_flag("verbose"));
  EXPECT_EQ(parser.get("target"), "thing");
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count=12", "--ratio=0.25"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("count"), 12);
  EXPECT_DOUBLE_EQ(parser.get_double("ratio"), 0.25);
}

TEST(ArgParser, UnknownOptionFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_FALSE(parser.parse(3, argv));
  EXPECT_NE(parser.error().find("unknown option"), std::string::npos);
}

TEST(ArgParser, MissingValueFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count"};
  EXPECT_FALSE(parser.parse(2, argv));
  EXPECT_NE(parser.error().find("needs a value"), std::string::npos);
}

TEST(ArgParser, FlagWithValueFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--verbose=yes"};
  EXPECT_FALSE(parser.parse(2, argv));
}

TEST(ArgParser, RequiredPositionalEnforced) {
  ArgParser parser{"prog", "test"};
  parser.add_positional("must", "required");
  const char* missing[] = {"prog"};
  EXPECT_FALSE(parser.parse(1, missing));
  ArgParser parser2{"prog", "test"};
  parser2.add_positional("must", "required");
  const char* present[] = {"prog", "x"};
  EXPECT_TRUE(parser2.parse(2, present));
  EXPECT_EQ(parser2.get("must"), "x");
}

TEST(ArgParser, ExtraPositionalFails) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "a", "b"};
  EXPECT_FALSE(parser.parse(3, argv));
}

TEST(ArgParser, HelpMentionsEverything) {
  const ArgParser parser = make_parser();
  const std::string help = parser.help();
  for (const char* needle : {"--count", "--ratio", "--verbose", "target", "--help"}) {
    EXPECT_NE(help.find(needle), std::string::npos) << needle;
  }
}

TEST(ArgParser, GetUnknownThrows) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_THROW((void)parser.get("nope"), std::out_of_range);
  EXPECT_THROW((void)parser.get_flag("count"), std::out_of_range);
}

// Integer options parse the whole value or throw an error naming the option,
// which cloudrtt prints as one line before exiting 1.
TEST(ArgParser, NonNumericIntegerIsRefusedByName) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "abc"};
  ASSERT_TRUE(parser.parse(3, argv));
  try {
    (void)parser.get_int("count");
    ADD_FAILURE() << "'abc' parsed as an integer";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string_view{error.what()}.find("--count"),
              std::string_view::npos)
        << error.what();
  }
}

TEST(ArgParser, TrailingGarbageIsRefused) {
  for (const char* value : {"42x", "7 ", "1.5", ""}) {
    ArgParser parser = make_parser();
    const char* argv[] = {"prog", "--count", value};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW((void)parser.get_int("count"), std::invalid_argument)
        << "'" << value << "'";
  }
}

TEST(ArgParser, NegativeCountIsRefused) {
  ArgParser parser = make_parser();
  const char* argv[] = {"prog", "--count", "-3"};
  ASSERT_TRUE(parser.parse(3, argv));
  EXPECT_EQ(parser.get_int("count"), -3);  // unbounded: a plain integer
  EXPECT_THROW((void)parser.get_int("count", 0), ArgError);
  EXPECT_THROW((void)parser.get_int("count", 1, 256), ArgError);
}

TEST(ArgParser, BoundsAreInclusive) {
  for (const char* value : {"1", "256"}) {
    ArgParser parser = make_parser();
    const char* argv[] = {"prog", "--count", value};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_EQ(parser.get_int("count", 1, 256), std::stol(value));
  }
  for (const char* value : {"0", "257", "100000", "99999999999999999999"}) {
    ArgParser parser = make_parser();
    const char* argv[] = {"prog", "--count", value};
    ASSERT_TRUE(parser.parse(3, argv));
    EXPECT_THROW((void)parser.get_int("count", 1, 256), ArgError) << value;
  }
}

// The study command's fault-injection options, exercised with the same
// parser shape cloudrtt_cli.cpp builds for `cloudrtt study`.
ArgParser make_study_parser() {
  ArgParser parser{"cloudrtt study", "run the measurement study"};
  parser.add_option("fault-profile", "none", "fault intensity");
  parser.add_option("fault-seed", "1337", "fault schedule seed");
  parser.add_option("checkpoint-dir", "", "per-day checkpoint directory");
  parser.add_flag("resume", "resume from checkpoint-dir");
  return parser;
}

TEST(StudyCliOptions, FaultDefaultsAreOff) {
  ArgParser parser = make_study_parser();
  const char* argv[] = {"cloudrtt"};
  ASSERT_TRUE(parser.parse(1, argv));
  EXPECT_EQ(parser.get("fault-profile"), "none");
  EXPECT_EQ(parser.get_int("fault-seed"), 1337);
  EXPECT_TRUE(parser.get("checkpoint-dir").empty());
  EXPECT_FALSE(parser.get_flag("resume"));
}

TEST(StudyCliOptions, FaultAndCheckpointFlagsParse) {
  ArgParser parser = make_study_parser();
  const char* argv[] = {"cloudrtt", "--fault-profile", "harsh",
                        "--fault-seed=99", "--checkpoint-dir", "/tmp/ck",
                        "--resume"};
  ASSERT_TRUE(parser.parse(7, argv));
  EXPECT_EQ(parser.get("fault-profile"), "harsh");
  EXPECT_EQ(parser.get_int("fault-seed"), 99);
  EXPECT_EQ(parser.get("checkpoint-dir"), "/tmp/ck");
  EXPECT_TRUE(parser.get_flag("resume"));
}

TEST(StudyCliOptions, EveryProfileNameRoundTrips) {
  // The CLI validates --fault-profile with fault::profile_from_string; the
  // accepted spellings must stay in sync with the enum.
  EXPECT_EQ(fault::profile_from_string("none"), fault::FaultProfile::None);
  EXPECT_EQ(fault::profile_from_string("mild"), fault::FaultProfile::Mild);
  EXPECT_EQ(fault::profile_from_string("harsh"), fault::FaultProfile::Harsh);
  EXPECT_FALSE(fault::profile_from_string("spicy").has_value());
}

// `cloudrtt study` prints resolve_scale's error as is: a refused spelling
// names the flag or the environment variable it came from, and the flag
// wins over the variable.
TEST(StudyCliOptions, RefusedScaleNamesItsSource) {
  const char* saved = std::getenv("CLOUDRTT_SCALE");
  const std::optional<std::string> previous =
      saved == nullptr ? std::nullopt : std::optional<std::string>{saved};
  ::setenv("CLOUDRTT_SCALE", "0.1", 1);
  const core::ScaleSpec from_env = core::resolve_scale("");
  const core::ScaleSpec from_flag = core::resolve_scale("0.2");
  const core::ScaleSpec flag_wins = core::resolve_scale("600x150");
  if (previous) {
    ::setenv("CLOUDRTT_SCALE", previous->c_str(), 1);
  } else {
    ::unsetenv("CLOUDRTT_SCALE");
  }
  EXPECT_EQ(from_env.error.rfind("CLOUDRTT_SCALE: ", 0), 0u) << from_env.error;
  EXPECT_NE(from_env.error.find("scale '0.1'"), std::string::npos);
  EXPECT_EQ(from_flag.error.rfind("--scale: ", 0), 0u) << from_flag.error;
  EXPECT_NE(from_flag.error.find("scale '0.2'"), std::string::npos);
  EXPECT_TRUE(flag_wins.ok()) << flag_wins.error;
  EXPECT_EQ(flag_wins.sc_probes, 600u);
}

}  // namespace
}  // namespace cloudrtt::util
