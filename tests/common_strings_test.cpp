#include "common/error.hpp"
#include "common/strings.hpp"

#include <gtest/gtest.h>

namespace qvg {
namespace {

TEST(FormatFixedTest, Rounds) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.5, 0), "2");  // bankers-independent: %.0f of 2.5
  EXPECT_EQ(format_fixed(-1.005, 1), "-1.0");
  EXPECT_EQ(format_fixed(10.0, 3), "10.000");
}

TEST(PadTest, LeftAndRight) {
  EXPECT_EQ(pad_left("ab", 5), "   ab");
  EXPECT_EQ(pad_right("ab", 5), "ab   ");
  EXPECT_EQ(pad_left("abcdef", 3), "abcdef");
  EXPECT_EQ(pad_right("abcdef", 3), "abcdef");
}

TEST(SplitTest, BasicFields) {
  const auto fields = split("a,b,c", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[2], "c");
}

TEST(SplitTest, KeepsEmptyFields) {
  const auto fields = split("a,,c,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[3], "");
}

TEST(SplitTest, EmptyString) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(RenderTableTest, AlignsColumns) {
  const auto table = render_table({"name", "value"}, {{"a", "1"}, {"bbbb", "22"}});
  EXPECT_NE(table.find("| name "), std::string::npos);
  EXPECT_NE(table.find("| bbbb "), std::string::npos);
  // All lines share the same width.
  std::size_t first_line_len = table.find('\n');
  std::size_t pos = 0;
  while (pos < table.size()) {
    const std::size_t next = table.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, first_line_len);
    pos = next + 1;
  }
}

TEST(RenderTableTest, MismatchedRowThrows) {
  EXPECT_THROW(render_table({"a", "b"}, {{"only-one"}}), ContractViolation);
}

}  // namespace
}  // namespace qvg
