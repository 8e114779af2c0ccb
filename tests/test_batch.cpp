// Batch experiment driver: spec parsing, grid execution, output files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "apps/batch.hpp"

namespace nwc::apps {
namespace {

TEST(BatchSpec, DefaultsCoverFullMatrix) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(""));
  EXPECT_EQ(spec.apps.size(), 7u);
  EXPECT_EQ(spec.systems.size(), 2u);
  EXPECT_EQ(spec.prefetches.size(), 2u);
  EXPECT_EQ(spec.seeds.size(), 1u);
  EXPECT_EQ(spec.runCount(), 28u);
  EXPECT_DOUBLE_EQ(spec.scale, 1.0);
}

TEST(BatchSpec, ParsesLists) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[batch]\n"
      "apps = sor, radix\n"
      "systems = standard, nwcache, dcd, remote\n"
      "prefetch = naive\n"
      "seeds = 1, 2, 3\n"
      "scale = 0.25\n"));
  EXPECT_EQ(spec.apps, (std::vector<std::string>{"sor", "radix"}));
  EXPECT_EQ(spec.systems.size(), 4u);
  EXPECT_EQ(spec.prefetches.size(), 1u);
  EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(spec.runCount(), 2u * 4u * 1u * 3u);
  EXPECT_DOUBLE_EQ(spec.scale, 0.25);
}

TEST(BatchSpec, AppliesMachineSection) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 65536\n[batch]\napps = sor\n"));
  EXPECT_EQ(spec.base.memory_per_node, 65536u);
}

TEST(BatchSpec, RejectsBadInput) {
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\napps = doom\n")),
               std::runtime_error);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\nscale = 2.0\n")),
               std::runtime_error);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\nsystems = warp\n")),
               std::runtime_error);
}

TEST(BatchSpec, ValidatesEveryCellMachineBeforeRunning) {
  // The ring keys are checked only on nwcache, so the grid's systems
  // decide whether the same [machine] section is legal.
  const std::string machine = "[machine]\nring_channels = 0\n[batch]\napps = sor\n";
  EXPECT_NO_THROW(BatchSpec::fromIni(util::IniFile::parse(machine + "systems = standard\n")));
  try {
    BatchSpec::fromIni(util::IniFile::parse(machine + "systems = standard, nwcache\n"));
    ADD_FAILURE() << "accepted an nwcache cell without ring channels";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("ring_channels"), std::string::npos) << e.what();
  }
}

TEST(BatchSpec, RejectsUnknownKeysByName) {
  // A typo and keys of options that no longer exist must not be silently
  // ignored: the error names the offending key.
  for (const std::string key : {"sim_treads", "sim_threads", "trace_dir", "trace_mode"}) {
    try {
      BatchSpec::fromIni(util::IniFile::parse("[batch]\napps = sor\n" + key + " = 4\n"));
      ADD_FAILURE() << "accepted [batch] " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "unknown [batch] key: " + key);
    }
  }
}

TEST(BatchRun, ExecutesGridAndWritesOutputs) {
  const std::string csv = "/tmp/nwc_batch_test.csv";
  const std::string jsonl = "/tmp/nwc_batch_test.jsonl";
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard, nwcache\nprefetch = optimal\n"
      "scale = 0.1\ncsv = " + csv + "\njsonl = " + jsonl + "\n"));
  std::ostringstream progress;
  const BatchResult res = runBatch(spec, &progress);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_TRUE(res.all_ok);
  EXPECT_NE(progress.str().find("[2/2]"), std::string::npos);

  // Both output files have one line per run (+ CSV header).
  std::ifstream c(csv), j(jsonl);
  std::string line;
  int csv_lines = 0, jsonl_lines = 0;
  while (std::getline(c, line)) ++csv_lines;
  while (std::getline(j, line)) ++jsonl_lines;
  EXPECT_EQ(csv_lines, 3);
  EXPECT_EQ(jsonl_lines, 2);
  std::remove(csv.c_str());
  std::remove(jsonl.c_str());
}

TEST(BatchSpec, ParsesJobs) {
  const auto spec = BatchSpec::fromIni(
      util::IniFile::parse("[batch]\napps = sor\njobs = 4\n"));
  EXPECT_EQ(spec.jobs, 4u);
  EXPECT_EQ(BatchSpec::fromIni(util::IniFile::parse("")).jobs, 0u);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\njobs = -1\n")),
               std::runtime_error);
}

// Reads a whole file; empty string if it does not exist.
std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

TEST(BatchRun, ParallelMatchesSerialByteForByte) {
  const std::string spec_text =
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix, sor\nsystems = standard, nwcache\n"
      "prefetch = optimal\nseeds = 1, 2\nscale = 0.05\n";
  const std::string csv1 = "/tmp/nwc_batch_j1.csv";
  const std::string jsonl1 = "/tmp/nwc_batch_j1.jsonl";
  const std::string csv4 = "/tmp/nwc_batch_j4.csv";
  const std::string jsonl4 = "/tmp/nwc_batch_j4.jsonl";

  auto serial = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "jobs = 1\ncsv = " + csv1 + "\njsonl = " + jsonl1 + "\n"));
  auto parallel = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "jobs = 4\ncsv = " + csv4 + "\njsonl = " + jsonl4 + "\n"));

  const BatchResult r1 = runBatch(serial);
  const BatchResult r4 = runBatch(parallel);
  ASSERT_EQ(r1.runs.size(), 8u);
  ASSERT_EQ(r4.runs.size(), 8u);
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(summaryJson(r1.runs[i], serial.scale),
              summaryJson(r4.runs[i], parallel.scale))
        << "summaries diverge at grid index " << i;
  }
  EXPECT_EQ(slurp(csv1), slurp(csv4));
  EXPECT_EQ(slurp(jsonl1), slurp(jsonl4));
  EXPECT_FALSE(slurp(csv1).empty());
  for (const auto& p : {csv1, jsonl1, csv4, jsonl4}) std::remove(p.c_str());
}

// Runs a one-cell radix grid with jobs = 1, so the cell executes on the
// calling thread; returns the cell's CSV row.
std::vector<std::string> serialRadixRow(const std::string& machine_keys) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\n" + machine_keys +
      "[batch]\napps = radix\nsystems = nwcache\nprefetch = optimal\n"
      "scale = 0.1\njobs = 1\n"));
  const BatchResult res = runBatch(spec);
  EXPECT_EQ(res.runs.size(), 1u);
  EXPECT_TRUE(res.all_ok);
  return res.runs.empty() ? std::vector<std::string>{}
                          : summaryCsvRow(res.runs[0], spec.scale);
}

TEST(BatchRun, NoStateLeaksBetweenMachinesOnOneWorker) {
  // Cells run back to back on a worker share its thread-local state: the
  // coroutine-frame freelist and the mesh route-table cache. A paging-bound
  // 8-node cell, a 32-node cell, then the first cell again: the repeat must
  // match the first run, and a run alone on a fresh thread.
  const std::string paging = "nodes = 8\nmemory_per_node = 16384\n";
  const std::vector<std::string> first = serialRadixRow(paging);
  const std::vector<std::string> wide = serialRadixRow("nodes = 32\n");
  const std::vector<std::string> repeat = serialRadixRow(paging);
  std::vector<std::string> alone;
  std::thread([&] { alone = serialRadixRow(paging); }).join();
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first, wide);
  EXPECT_EQ(repeat, first);
  EXPECT_EQ(repeat, alone);
}

TEST(BatchRun, ResumeMatchesFreshRunByteForByte) {
  const std::string spec_text =
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard, nwcache\n"
      "prefetch = optimal\nseeds = 1\nscale = 0.05\n";
  const std::string csv_full = "/tmp/nwc_batch_full.csv";
  const std::string jsonl_full = "/tmp/nwc_batch_full.jsonl";
  const std::string csv_res = "/tmp/nwc_batch_res.csv";
  const std::string jsonl_res = "/tmp/nwc_batch_res.jsonl";

  auto full = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "csv = " + csv_full + "\njsonl = " + jsonl_full + "\n"));
  runBatch(full);

  // Simulate a crash after the first cell: keep only its checkpoint line,
  // then resume. The resumed grid must reproduce the full run's outputs
  // byte-for-byte without rerunning the checkpointed cell.
  {
    std::ifstream in(jsonl_full);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    std::ofstream out(jsonl_res);
    out << first << "\n";
  }
  auto resume = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "resume = true\ncsv = " + csv_res + "\njsonl = " + jsonl_res +
      "\n"));
  std::ostringstream progress;
  const BatchResult res = runBatch(resume, &progress);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_TRUE(res.all_ok);
  // Only the missing cell reran.
  EXPECT_NE(progress.str().find("[1/1]"), std::string::npos);
  EXPECT_EQ(slurp(csv_full), slurp(csv_res));
  EXPECT_EQ(slurp(jsonl_full), slurp(jsonl_res));

  // Resuming a complete checkpoint runs nothing and leaves it unchanged.
  std::ostringstream progress2;
  runBatch(resume, &progress2);
  EXPECT_EQ(progress2.str().find(" on "), std::string::npos);
  EXPECT_EQ(slurp(jsonl_full), slurp(jsonl_res));

  for (const auto& p : {csv_full, jsonl_full, csv_res, jsonl_res}) {
    std::remove(p.c_str());
  }
}

TEST(BatchRun, ResumeRequiresJsonl) {
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[batch]\napps = radix\nsystems = standard\nprefetch = optimal\n"
      "resume = true\n"));
  EXPECT_THROW(runBatch(spec), std::runtime_error);
}

TEST(BatchRun, SeedsVaryTiming) {
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard\nprefetch = naive\n"
      "seeds = 1, 2\nscale = 0.1\n"));
  const BatchResult res = runBatch(spec);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_NE(res.runs[0].exec_time, res.runs[1].exec_time);
  EXPECT_TRUE(res.runs[0].verified);
  EXPECT_TRUE(res.runs[1].verified);
}

TEST(SummaryJson, ContainsKeyFields) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kNaive);
  cfg.memory_per_node = 32 * 1024;
  const RunSummary s = runApp(cfg, "radix", 0.1);
  const std::string j = summaryJson(s, 0.1);
  EXPECT_NE(j.find("\"app\":\"radix\""), std::string::npos);
  EXPECT_NE(j.find("\"system\":\"nwcache\""), std::string::npos);
  EXPECT_NE(j.find("\"exec_pcycles\":"), std::string::npos);
  EXPECT_NE(j.find("\"verified\":true"), std::string::npos);
}

TEST(SummaryCsv, HeaderMatchesRowWidth) {
  machine::MachineConfig cfg;
  const RunSummary s = runApp(cfg, "radix", 0.05);
  EXPECT_EQ(summaryCsvHeader().size(), summaryCsvRow(s, 0.05).size());
}

}  // namespace
}  // namespace nwc::apps
