#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <vector>

#include "util/exec.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nsdc {
namespace {

TEST(Units, PsRoundTrip) {
  EXPECT_DOUBLE_EQ(to_ps(from_ps(12.5)), 12.5);
  EXPECT_DOUBLE_EQ(to_ps(1e-12), 1.0);
  EXPECT_DOUBLE_EQ(to_ns(1e-9), 1.0);
}

TEST(Units, FfRoundTrip) {
  EXPECT_DOUBLE_EQ(to_ff(from_ff(0.4)), 0.4);
  EXPECT_DOUBLE_EQ(from_ff(1.0), 1e-15);
}

TEST(Units, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(-1.0, 0), "-1");
  EXPECT_EQ(format_fixed(0.5, 3), "0.500");
}

TEST(Units, FormatTimePicosecondRange) {
  EXPECT_EQ(format_time(42e-12), "42.000 ps");
  EXPECT_EQ(format_time(1.5e-9), "1.500 ns");
  EXPECT_EQ(format_time(2.25e-3), "2.250 ms");
}

TEST(Table, PrintAligned) {
  Table t({"a", "bb"});
  t.add_row({"xxx", "y"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("a"), std::string::npos);
  EXPECT_NE(out.find("xxx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, ArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumericRow) {
  Table t({"name", "v1", "v2"});
  t.add_row_numeric("row", {1.234, 5.678}, 2);
  EXPECT_EQ(t.cell(0, 1), "1.23");
  EXPECT_EQ(t.cell(0, 2), "5.68");
}

TEST(Table, CsvEscaping) {
  Table t({"x"});
  t.add_row({"a,b \"quoted\""});
  std::ostringstream os;
  t.write_csv(os);
  EXPECT_EQ(os.str(), "x\n\"a,b \"\"quoted\"\"\"\n");
}

TEST(Table, CellOutOfRangeThrows) {
  Table t({"x"});
  t.add_row({"v"});
  EXPECT_THROW(t.cell(1, 0), std::out_of_range);
  EXPECT_THROW(t.cell(0, 1), std::out_of_range);
}

TEST(Threading, VisitsEveryIndexOnce) {
  const std::size_t n = 1000;
  std::vector<std::atomic<int>> hits(n);
  ExecContext{.threads = 4}.parallel_for(
      n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Threading, ZeroCountIsNoop) {
  ExecContext{}.parallel_for(
      0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(Threading, SingleThreadFallback) {
  std::vector<int> order;
  ExecContext{.threads = 1}.parallel_for(
      5, [&](std::size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

}  // namespace
}  // namespace nsdc
