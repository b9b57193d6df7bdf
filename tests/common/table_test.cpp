#include "common/table.hpp"

#include <gtest/gtest.h>

namespace woha {
namespace {

TEST(TextTable, AlignsColumns) {
  TextTable t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer-name", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name         value"), std::string::npos);
  EXPECT_NE(s.find("longer-name  22"), std::string::npos);
  // Separator line under header.
  EXPECT_NE(s.find("------"), std::string::npos);
}

TEST(TextTable, RejectsWidthMismatch) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
}

TEST(TextTable, RejectsEmptyHeader) {
  EXPECT_THROW(TextTable({}), std::invalid_argument);
}

TEST(TextTable, Csv) {
  TextTable t({"x", "y"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n");
}

TEST(TextTable, NumberFormatting) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(std::int64_t{42}), "42");
  EXPECT_EQ(TextTable::percent(0.1234), "12.3%");
  EXPECT_EQ(TextTable::percent(0.5, 0), "50%");
}

TEST(TextTable, NoTrailingSpaces) {
  TextTable t({"a", "b"});
  t.add_row({"x", "y"});
  for (const auto& line : {t.to_string()}) {
    std::size_t pos = 0;
    while ((pos = line.find('\n', pos)) != std::string::npos) {
      if (pos > 0) {
        EXPECT_NE(line[pos - 1], ' ');
      }
      ++pos;
    }
  }
}

}  // namespace
}  // namespace woha
