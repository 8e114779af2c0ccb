// Accumulator / Log2Histogram / RatioCounter + unit conversions + table/CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/stats.hpp"
#include "util/csv.hpp"
#include "util/file.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace nwc {
namespace {

TEST(Accumulator, BasicMoments) {
  sim::Accumulator a;
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.mean(), 0.0);
  a.add(2);
  a.add(4);
  a.add(9);
  EXPECT_EQ(a.count(), 3u);
  EXPECT_DOUBLE_EQ(a.sum(), 15.0);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, MergePreservesExtremes) {
  sim::Accumulator a, b;
  a.add(1);
  a.add(10);
  b.add(-5);
  b.add(20);
  a += b;
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.min(), -5.0);
  EXPECT_DOUBLE_EQ(a.max(), 20.0);
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  sim::Accumulator a, empty;
  a.add(3);
  a += empty;
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.min(), 3.0);
}

TEST(Log2Histogram, BucketsByPowerOfTwo) {
  sim::Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(1024);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.bucket(0), 2u);  // 0 and 1
  EXPECT_EQ(h.bucket(1), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket(10), 1u);
}

TEST(Log2Histogram, QuantileBounds) {
  sim::Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(10);    // bucket 3 (8..15)
  for (int i = 0; i < 10; ++i) h.add(5000);  // bucket 12
  EXPECT_EQ(h.quantileUpperBound(0.5), 15u);
  EXPECT_EQ(h.quantileUpperBound(0.99), 8191u);
}

TEST(RatioCounter, Rates) {
  sim::RatioCounter r;
  EXPECT_DOUBLE_EQ(r.rate(), 0.0);
  r.hit();
  r.miss();
  r.miss();
  r.add(true);
  EXPECT_EQ(r.hits(), 2u);
  EXPECT_EQ(r.misses(), 2u);
  EXPECT_DOUBLE_EQ(r.rate(), 0.5);
}

TEST(Units, PaperConversions) {
  // 1 pcycle = 5 ns: 52 us ring round trip = 10400 pcycles.
  EXPECT_EQ(util::usToTicks(52.0), 10400u);
  // 2 ms min seek = 400k pcycles; 22 ms = 4.4M.
  EXPECT_EQ(util::msToTicks(2.0), 400000u);
  EXPECT_EQ(util::msToTicks(22.0), 4400000u);
  EXPECT_DOUBLE_EQ(util::ticksToUs(10400), 52.0);
  EXPECT_DOUBLE_EQ(util::ticksToMs(400000), 2.0);
}

TEST(AsciiTable, FormatsAligned) {
  util::AsciiTable t({"App", "Value"});
  t.addRow({"em3d", util::AsciiTable::fmt(49.2)});
  t.addRow({"fft"});
  const std::string s = t.toString();
  EXPECT_NE(s.find("em3d"), std::string::npos);
  EXPECT_NE(s.find("49.2"), std::string::npos);
  EXPECT_NE(s.find("| App "), std::string::npos);
}

TEST(AsciiTable, Formatters) {
  EXPECT_EQ(util::AsciiTable::fmt(1.25, 2), "1.25");
  EXPECT_EQ(util::AsciiTable::fmtInt(42), "42");
  EXPECT_EQ(util::AsciiTable::fmtPct(0.637), "64%");
}

TEST(Csv, EscapesSpecialCells) {
  EXPECT_EQ(util::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(util::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::CsvWriter::escape("q\"q"), "\"q\"\"q\"");
}

TEST(Csv, WritesFile) {
  const std::string path = "/tmp/nwc_csv_test.csv";
  {
    util::CsvWriter w(path, {"a", "b"});
    w.addRow({"1", "x,y"});
  }
  std::ifstream in(path);
  std::string l1, l2;
  std::getline(in, l1);
  std::getline(in, l2);
  EXPECT_EQ(l1, "a,b");
  EXPECT_EQ(l2, "1,\"x,y\"");
  std::remove(path.c_str());
}

// Expects `write` to throw a message naming /dev/full: a write that fits in
// the stream's buffer fails only when the file is flushed and closed.
template <class F>
void expectFullDiskThrows(F write) {
  try {
    write();
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("/dev/full"), std::string::npos) << ex.what();
  }
}

TEST(Csv, FullDiskThrowsNamingThePath) {
  expectFullDiskThrows([] {
    util::CsvWriter w("/dev/full", {"a", "b"});
    w.addRow({"1", "2"});
    w.close();
  });
}

TEST(WriteFile, FullDiskThrowsNamingThePath) {
  expectFullDiskThrows([] { util::writeFile("/dev/full", "small\n"); });
}

TEST(WriteFile, RoundTripsThroughReadFile) {
  const std::string path = "/tmp/nwc_write_file_test.txt";
  util::writeFile(path, "a\nb");
  EXPECT_EQ(util::readFile(path), "a\nb");
  std::remove(path.c_str());
  EXPECT_THROW(util::readFile(path), std::runtime_error);
}

}  // namespace
}  // namespace nwc
