// Batch experiment driver: spec parsing, grid execution, output files.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/batch.hpp"
#include "obs/registry.hpp"

namespace nwc::apps {
namespace {

TEST(BatchSpec, DefaultsCoverFullMatrix) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(""));
  EXPECT_EQ(spec.apps.size(), 7u);
  EXPECT_EQ(spec.systems.size(), 2u);
  EXPECT_EQ(spec.prefetches.size(), 2u);
  EXPECT_EQ(spec.seeds.size(), 1u);
  EXPECT_EQ(spec.runCount(), 28u);
  EXPECT_DOUBLE_EQ(spec.grid.scale, 1.0);
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
  EXPECT_DOUBLE_EQ(spec.grid.scale, 0.25);
}

TEST(BatchSpec, AppliesMachineSection) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 65536\n[batch]\napps = sor\n"));
  EXPECT_EQ(spec.base.memory_per_node, 65536u);
}

TEST(BatchSpec, RejectsBadInput) {
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\napps = doom\n")),
               std::runtime_error);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\nsystems = warp\n")),
               std::runtime_error);
  // The scale is a finite number in (0, 1], checked as every front end
  // checks it; the error names the key.
  for (const std::string bad : {"2.0", "1.5", "nan", "inf", "0", "-0.5", "0.5x"}) {
    try {
      BatchSpec::fromIni(util::IniFile::parse("[batch]\nscale = " + bad + "\n"));
      ADD_FAILURE() << "accepted scale " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()),
                "[batch] scale must be a number in (0, 1], got '" + bad + "'");
    }
  }
  // Every seeds entry is a whole number in [0, 2^64); the error names the key.
  for (const std::string bad : {"abc", "-2", "3x", "18446744073709551616"}) {
    try {
      BatchSpec::fromIni(util::IniFile::parse("[batch]\nseeds = 1, " + bad + "\n"));
      ADD_FAILURE() << "accepted seeds entry " << bad;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("[batch] seeds"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find("'" + bad + "'"), std::string::npos) << e.what();
    }
  }
}

TEST(BatchSpec, CellStemNamesCoordinatesInAFileSafeForm) {
  machine::MachineConfig cfg;
  cfg.withSystem(machine::SystemKind::kNWCache, machine::Prefetch::kNaive);
  cfg.seed = 42;
  EXPECT_EQ(cellStem(7, "radix", cfg), "cell0007_radix_nwcache_naive_s42");
  EXPECT_EQ(cellStem(12345, "synth:clients=2;ops=9", cfg),
            "cell12345_synth-clients-2-ops-9_nwcache_naive_s42");
  EXPECT_EQ(cellStem(0, "trace:/tmp/a b.nwcb", cfg),
            "cell0000_trace--tmp-a-b.nwcb_nwcache_naive_s42");
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
  for (const std::string key :
       {"sim_treads", "sim_threads", "trace_dir", "trace_mode", "status", "resume", "csv"}) {
    try {
      BatchSpec::fromIni(util::IniFile::parse("[batch]\napps = sor\n" + key + " = 4\n"));
      ADD_FAILURE() << "accepted [batch] " << key;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "unknown [batch] key: " + key);
    }
  }
}

TEST(BatchRun, ExecutesGridAndWritesOutputs) {
  const std::string jsonl = "/tmp/nwc_batch_test.jsonl";
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\nmemory_per_node = 32768\n"
      "[batch]\napps = radix\nsystems = standard, nwcache\nprefetch = optimal\n"
      "scale = 0.1\njsonl = " + jsonl + "\n"));
  std::ostringstream progress;
  spec.grid.progress = &progress;
  const BatchResult res = runBatch(spec);
  ASSERT_EQ(res.runs.size(), 2u);
  EXPECT_TRUE(res.all_ok);
  EXPECT_NE(progress.str().find("[2/2]"), std::string::npos);

  // One line per run, in grid order: the cell index, then the summary.
  std::ifstream j(jsonl);
  std::string line;
  for (std::size_t i = 0; i < res.runs.size(); ++i) {
    ASSERT_TRUE(std::getline(j, line));
    EXPECT_EQ(line, "{\"cell\":" + std::to_string(i) + "," +
                        summaryJson(res.runs[i], spec.grid.scale).substr(1));
  }
  EXPECT_FALSE(std::getline(j, line));
  std::remove(jsonl.c_str());
}

TEST(BatchRun, FullDiskThrowsNamingTheJsonl) {
  auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[batch]\napps = radix\nsystems = standard\nscale = 0.02\n"
      "jsonl = /dev/full\n"));
  try {
    runBatch(spec);
    ADD_FAILURE() << "no exception";
  } catch (const std::runtime_error& ex) {
    EXPECT_NE(std::string(ex.what()).find("/dev/full"), std::string::npos) << ex.what();
  }
}

TEST(BatchSpec, ParsesJobs) {
  const auto spec = BatchSpec::fromIni(
      util::IniFile::parse("[batch]\napps = sor\njobs = 4\n"));
  EXPECT_EQ(spec.grid.jobs, 4u);
  EXPECT_EQ(BatchSpec::fromIni(util::IniFile::parse("")).grid.jobs, 0u);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\njobs = -1\n")),
               std::runtime_error);
  EXPECT_THROW(BatchSpec::fromIni(util::IniFile::parse("[batch]\njobs = 4097\n")),
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
  const std::string jsonl1 = "/tmp/nwc_batch_j1.jsonl";
  const std::string jsonl4 = "/tmp/nwc_batch_j4.jsonl";

  auto serial = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "jobs = 1\njsonl = " + jsonl1 + "\n"));
  auto parallel = BatchSpec::fromIni(util::IniFile::parse(
      spec_text + "jobs = 4\njsonl = " + jsonl4 + "\n"));

  const BatchResult r1 = runBatch(serial);
  const BatchResult r4 = runBatch(parallel);
  ASSERT_EQ(r1.runs.size(), 8u);
  ASSERT_EQ(r4.runs.size(), 8u);
  for (std::size_t i = 0; i < r1.runs.size(); ++i) {
    EXPECT_EQ(summaryJson(r1.runs[i], serial.grid.scale),
              summaryJson(r4.runs[i], parallel.grid.scale))
        << "summaries diverge at grid index " << i;
  }
  EXPECT_EQ(slurp(jsonl1), slurp(jsonl4));
  EXPECT_FALSE(slurp(jsonl1).empty());
  for (const auto& p : {jsonl1, jsonl4}) std::remove(p.c_str());
}

TEST(RunGrid, MetricsDirWritesOneRegistryPerCellAtAnyJobCount) {
  std::vector<GridCell> cells;
  for (const std::string app : {"radix", "sor"}) {
    for (auto sys : {machine::SystemKind::kStandard, machine::SystemKind::kNWCache}) {
      machine::MachineConfig cfg;
      cfg.withSystem(sys, machine::Prefetch::kOptimal);
      cfg.memory_per_node = 32 * 1024;
      cells.push_back({app, cfg});
    }
  }
  const std::filesystem::path tmp = std::filesystem::temp_directory_path();
  const std::string dir1 = tmp / "nwc_grid_metrics_j1";
  const std::string dir4 = tmp / "nwc_grid_metrics_j4";
  const std::string lone = tmp / "nwc_grid_metrics_lone.json";
  for (const auto& d : {dir1, dir4}) std::filesystem::remove_all(d);

  GridOptions opt;
  opt.scale = 0.05;
  opt.jobs = 1;
  opt.metrics_dir = dir1;
  const std::vector<RunSummary> r1 = runGrid(cells, opt);
  opt.jobs = 4;
  opt.metrics_dir = dir4;
  const std::vector<RunSummary> r4 = runGrid(cells, opt);
  ASSERT_EQ(r1.size(), cells.size());
  ASSERT_EQ(r4.size(), cells.size());

  const auto files = [](const std::string& dir) {
    std::size_t n = 0;
    for (const auto& f : std::filesystem::directory_iterator(dir)) n += f.is_regular_file();
    return n;
  };
  EXPECT_EQ(files(dir1), cells.size());
  EXPECT_EQ(files(dir4), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const std::string name = "/" + cellStem(i, cells[i].app, cells[i].cfg) + ".json";
    const std::string j1 = slurp(dir1 + name);
    EXPECT_FALSE(j1.empty()) << name;
    EXPECT_EQ(j1, slurp(dir4 + name)) << name;
    // The same bytes as a lone run exporting its own registry.
    obs::MetricsRegistry reg;
    ObsSinks sinks;
    sinks.registry = &reg;
    runApp(cells[i].cfg, cells[i].app, opt.scale, sinks);
    reg.writeJson(lone);
    EXPECT_EQ(j1, slurp(lone)) << name;
  }
  for (const auto& d : {dir1, dir4, lone}) std::filesystem::remove_all(d);
}

// Runs a one-cell radix grid with jobs = 1, so the cell executes on the
// calling thread; returns the cell's JSON summary.
std::string serialRadixSummary(const std::string& machine_keys) {
  const auto spec = BatchSpec::fromIni(util::IniFile::parse(
      "[machine]\n" + machine_keys +
      "[batch]\napps = radix\nsystems = nwcache\nprefetch = optimal\n"
      "scale = 0.1\njobs = 1\n"));
  const BatchResult res = runBatch(spec);
  EXPECT_EQ(res.runs.size(), 1u);
  EXPECT_TRUE(res.all_ok);
  return res.runs.empty() ? std::string{} : summaryJson(res.runs[0], spec.grid.scale);
}

TEST(BatchRun, NoStateLeaksBetweenMachinesOnOneWorker) {
  // Cells run back to back on a worker share its thread-local state: the
  // coroutine-frame freelist and the mesh route-table cache. A paging-bound
  // 8-node cell, a 32-node cell, then the first cell again: the repeat must
  // match the first run, and a run alone on a fresh thread.
  const std::string paging = "nodes = 8\nmemory_per_node = 16384\n";
  const std::string first = serialRadixSummary(paging);
  const std::string wide = serialRadixSummary("nodes = 32\n");
  const std::string repeat = serialRadixSummary(paging);
  std::string alone;
  std::thread([&] { alone = serialRadixSummary(paging); }).join();
  ASSERT_FALSE(first.empty());
  EXPECT_NE(first, wide);
  EXPECT_EQ(repeat, first);
  EXPECT_EQ(repeat, alone);
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

}  // namespace
}  // namespace nwc::apps
