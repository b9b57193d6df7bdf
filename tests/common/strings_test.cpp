#include "common/strings.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

namespace woha {
namespace {

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx\r "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("no-space"), "no-space");
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitEmptyString) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, StartsWith) {
  EXPECT_TRUE(starts_with("workflow.xml", "workflow"));
  EXPECT_FALSE(starts_with("wf", "workflow"));
  EXPECT_TRUE(starts_with("abc", ""));
}

TEST(Strings, ParseInt) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("  -7 "), -7);
  EXPECT_THROW((void)parse_int("12x"), std::invalid_argument);
  EXPECT_THROW((void)parse_int(""), std::invalid_argument);
  EXPECT_THROW((void)parse_int("3.5"), std::invalid_argument);
}

TEST(Strings, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.25"), 3.25);
  EXPECT_DOUBLE_EQ(parse_double(" -1e3 "), -1000.0);
  EXPECT_THROW((void)parse_double("abc"), std::invalid_argument);
}

TEST(Strings, ParseDurationUnits) {
  EXPECT_EQ(parse_duration("1500"), 1500);
  EXPECT_EQ(parse_duration("1500ms"), 1500);
  EXPECT_EQ(parse_duration("90s"), 90'000);
  EXPECT_EQ(parse_duration("80min"), 80 * 60'000);
  EXPECT_EQ(parse_duration("80m"), 80 * 60'000);
  EXPECT_EQ(parse_duration("2h"), 2 * 3'600'000);
  EXPECT_EQ(parse_duration("1.5s"), 1500);
}

TEST(Strings, ParseDurationErrors) {
  EXPECT_THROW((void)parse_duration(""), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("10 parsecs"), std::invalid_argument);
}

// Converting a double outside the int64 range is undefined; such a duration
// must be refused, not loaded wrapped (it read as -2^63 ms).
TEST(Strings, ParseDurationRefusesValuesOutsideInt64) {
  EXPECT_THROW((void)parse_duration("99999999999999999999h"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("-99999999999999999999h"), std::invalid_argument);
  EXPECT_THROW((void)parse_duration("9223372036854775808"), std::invalid_argument);
  EXPECT_EQ(parse_duration("2562047h"), 2562047LL * 3'600'000);
  EXPECT_EQ(parse_duration("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
}

TEST(Strings, FormatDuration) {
  EXPECT_EQ(format_duration(250), "250ms");
  EXPECT_EQ(format_duration(1500), "1.5s");
  EXPECT_EQ(format_duration(90'000), "1.5min");
  EXPECT_EQ(format_duration(2 * 3'600'000), "2.00h");
  EXPECT_EQ(format_duration(-1500), "-1.5s");
}

TEST(Strings, DurationRoundTripHelpers) {
  EXPECT_EQ(seconds(3), 3000);
  EXPECT_EQ(minutes(2), 120'000);
  EXPECT_EQ(hours(1), 3'600'000);
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

}  // namespace
}  // namespace woha
