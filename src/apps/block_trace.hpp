// Recorded block-trace workloads: an in-memory representation, its one
// on-disk encoding (a committable, hand-editable text form), and the
// deterministic synthetic generator that produces them.
//
// A trace is a set of per-client request streams. Each request names an
// object (served at page grain), a read/write flag, and the open-loop
// inter-arrival gap (in processor cycles) since the client's previous
// request. Gaps are part of the trace — replay does not re-draw think
// time — so a recorded trace replays byte-identically anywhere.
//
// See docs/WORKLOADS.md for the format specification and generator knobs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace nwc::apps {

/// First line of every block-trace file.
inline constexpr const char* kBlockTraceSignature = "# nwc-block-trace-v1";

/// Caps on what a trace file or a synthetic spec may declare, checked
/// before anything is sized (docs/WORKLOADS.md).
inline constexpr std::uint64_t kMaxBlockObjects = std::uint64_t{1} << 20;
inline constexpr std::uint64_t kMaxBlockClients = std::uint64_t{1} << 16;
inline constexpr std::uint64_t kMaxBlockOps = std::uint64_t{1} << 24;  // all clients
/// The longest gap, 2^40 - 1 ticks: the bound MachineConfig::validate puts
/// on any derived delay.
inline constexpr std::uint64_t kMaxBlockGap = (std::uint64_t{1} << 40) - 1;

/// One client request: wait `gap` ticks after the previous request's
/// scheduled arrival, then read/write object `obj`. Packed into one word,
/// 8 bytes a request; the caps above keep every field in its bits.
struct BlockOp {
  std::uint64_t gap : 43 = 0;
  std::uint64_t obj : 20 = 0;
  bool write : 1 = false;
};
static_assert(sizeof(BlockOp) == 8);
static_assert(kMaxBlockGap < (std::uint64_t{1} << 43));
static_assert(kMaxBlockObjects <= (std::uint64_t{1} << 20));

struct BlockTrace {
  /// Object-id space: every op's obj is in [0, objects).
  std::uint64_t objects = 0;
  /// One open-loop request stream per client.
  std::vector<std::vector<BlockOp>> clients;

  std::uint64_t totalOps() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c.size();
    return n;
  }
};

/// Knobs for the synthetic generator; parsed from "synth:k=v;k=v" specs.
/// Defaults describe a modest skewed read-mostly storage mix.
struct SyntheticSpec {
  std::uint64_t clients = 8;      // independent request streams
  std::uint64_t objects = 4096;   // object-id space (pages)
  std::uint64_t ops = 2000;       // requests per client (before scale)
  double read_ratio = 0.7;        // P(read) outside bursts
  double zipf_theta = 0.9;        // object popularity skew (0 = uniform)
  double burst_prob = 0.02;       // P(a request starts a write burst)
  std::uint64_t burst_len = 16;   // writes per burst
  double diurnal_amp = 0.0;       // load curve amplitude in [0, 1)
  std::uint64_t diurnal_period = 2'000'000;  // load curve period (ticks)
  double think_mean = 2000.0;     // mean inter-arrival gap (ticks)
  std::uint64_t seed = 0x5eed;

  /// Parses a spec with or without its "synth:" prefix. Unknown keys,
  /// malformed values and sizes past the kMaxBlock* caps (clients x ops
  /// counts against kMaxBlockOps; the largest gap a draw can produce,
  /// 37 x think_mean / (1 - diurnal_amp), against kMaxBlockGap) throw
  /// std::invalid_argument.
  static SyntheticSpec parse(const std::string& spec);

  /// Canonical "synth:..." spelling (every knob, fixed order) — equal specs
  /// produce equal strings, used as the workload name in summaries.
  std::string canonical() const;
};

/// Deterministically expands a spec into a trace. `scale` shrinks per-client
/// op counts exactly as it shrinks kernel inputs (floor, minimum 1). Pure:
/// depends only on (spec, scale), never on thread count or host state.
BlockTrace generateBlockTrace(const SyntheticSpec& spec, double scale = 1.0);

/// Writes the text encoding (kBlockTraceSignature header; one
/// "gap obj r|w" line per op), streamed to the file. Throws
/// std::runtime_error on I/O failure.
void writeBlockTrace(const std::string& path, const BlockTrace& trace);

/// Reads a trace written by writeBlockTrace (or by hand), parsing the file
/// line by line without holding its text. Throws std::runtime_error on I/O
/// failure, a missing header, a malformed body or a declared size or gap
/// past the kMaxBlock* caps.
BlockTrace readBlockTrace(const std::string& path);

/// Summary statistics for tools (nwctrace info/stat).
struct BlockTraceStats {
  std::uint64_t clients = 0;
  std::uint64_t objects = 0;       // declared id space
  std::uint64_t unique_objects = 0;  // ids actually referenced
  std::uint64_t total_ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t span_ticks = 0;    // max per-client sum of gaps
  double est_zipf_theta = 0.0;     // popularity skew estimate
};

BlockTraceStats summarizeBlockTrace(const BlockTrace& trace);

/// Least-squares slope of log(frequency) vs log(rank) over a popularity
/// histogram — the zipfian theta that best explains the counts. Returns 0
/// for degenerate inputs (fewer than two distinct referenced objects).
double estimateZipfTheta(const std::vector<std::uint64_t>& counts);

}  // namespace nwc::apps
