#include "machine/config_io.hpp"

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <variant>

#include "util/enum_names.hpp"

namespace nwc::machine {

SystemKind systemKindFromString(const std::string& s) {
  return util::enumFromName(kSystemKindNames, s, "system kind");
}

Prefetch prefetchFromString(const std::string& s) {
  return util::enumFromName(kPrefetchNames, s, "prefetch policy");
}

namespace {

// Integers print exactly; everything else in %g.
std::string fmt(double v) {
  const bool whole = std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15;
  char buf[40];
  std::snprintf(buf, sizeof buf, whole ? "%.0f" : "%g", v);
  return buf;
}

std::string describe(const KeyRange& r) {
  if (std::isinf(r.hi)) return (r.lo_open ? "finite and > " : "finite and >= ") + fmt(r.lo);
  return "in [" + fmt(r.lo) + ", " + fmt(r.hi) + "]";
}

// The directory tracks sharers, and each page entry the nodes caching it,
// in a 64-bit node mask.
constexpr int kMaxNodes = 64;
// Every ms/us delay and every page transfer becomes a tick count through a
// double. The longest must stay far below 2^53, so each conversion is exact.
constexpr double kMaxDerivedTicks = 1099511627776.0;  // 2^40 pcycles
constexpr double kInf = std::numeric_limits<double>::infinity();

// The kinds of constraint. Keys that size an allocation get an upper bound
// that keeps the largest machine well under 1 GiB of host memory.
constexpr KeyRange inRange(double lo, double hi) { return {lo, hi}; }
constexpr KeyRange positive() { return {0.0, kInf, /*lo_open=*/true}; }
constexpr KeyRange nonNegative() { return {0.0, kInf}; }
constexpr KeyRange probability() { return {0.0, 1.0}; }
constexpr KeyRange latency() { return {0.0, 1e6}; }  // pcycles

using Slot = std::variant<int*, std::uint64_t*, double*, bool*, SystemKind*, Prefetch*,
                          AdmissionKind*, DestageKind*>;

constexpr const auto& namesOf(const SystemKind*) { return kSystemKindNames; }
constexpr const auto& namesOf(const Prefetch*) { return kPrefetchNames; }
constexpr const auto& namesOf(const AdmissionKind*) { return kAdmissionKindNames; }
constexpr const auto& namesOf(const DestageKind*) { return kDestageKindNames; }

struct Field {
  const char* key;
  const char* member;  // the MachineConfig member the key sets
  Slot (*slot)(MachineConfig&);
  std::optional<KeyRange> range;  // numeric keys only

  // Read access; `slot` only hands out the address.
  Slot slotOf(const MachineConfig& c) const { return slot(const_cast<MachineConfig&>(c)); }

  [[noreturn]] void reject(const std::string& got) const {
    throw std::invalid_argument(
        "[machine] " + std::string(key) +
        (key == std::string(member) ? "" : " (MachineConfig." + std::string(member) + ")") +
        " must be " + describe(*range) + ", got " + got);
  }
};

#define NWC_FIELD(key, member, range) \
  Field { key, #member, [](MachineConfig& c) -> Slot { return &c.member; }, range }

// Every [machine] key with its constraint. docs/CONFIG.md lists the same
// table.
const Field kFields[] = {
    NWC_FIELD("nodes", num_nodes, inRange(1, kMaxNodes)),
    NWC_FIELD("io_nodes", num_io_nodes, inRange(1, kMaxNodes)),
    NWC_FIELD("page_bytes", page_bytes, inRange(512, 1 << 20)),
    NWC_FIELD("tlb_miss_latency", tlb_miss_latency, latency()),
    NWC_FIELD("tlb_shootdown_latency", tlb_shootdown_latency, latency()),
    NWC_FIELD("interrupt_latency", interrupt_latency, latency()),
    NWC_FIELD("memory_per_node", memory_per_node, inRange(1, 16 << 20)),
    NWC_FIELD("memory_bus_bps", memory_bus_bps, positive()),
    NWC_FIELD("io_bus_bps", io_bus_bps, positive()),
    NWC_FIELD("net_link_bps", net_link_bps, positive()),
    NWC_FIELD("ring_channels", ring_channels, inRange(0, 8192)),
    NWC_FIELD("ring_round_trip_us", ring_round_trip_us, nonNegative()),
    NWC_FIELD("ring_bps", ring_bps, positive()),
    NWC_FIELD("ring_channel_bytes", ring_channel_bytes, inRange(0, 16 << 20)),
    NWC_FIELD("ring_receivers", ring_receivers, inRange(1, 64)),
    NWC_FIELD("ring_retune_us", ring_retune_us, nonNegative()),
    NWC_FIELD("ring_shared_receivers", ring_shared_receivers, std::nullopt),
    NWC_FIELD("disk_cache_bytes", disk_cache_bytes, inRange(1, 16 << 20)),
    NWC_FIELD("min_seek_ms", min_seek_ms, nonNegative()),
    NWC_FIELD("max_seek_ms", max_seek_ms, nonNegative()),
    NWC_FIELD("rot_ms", rot_ms, nonNegative()),
    NWC_FIELD("disk_bps", disk_bps, positive()),
    NWC_FIELD("pcycle_ns", pcycle_ns, inRange(0.001, 1000)),
    NWC_FIELD("tlb_entries", tlb_entries, inRange(1, 4096)),
    NWC_FIELD("l1_bytes", l1.size_bytes, inRange(1, 1 << 20)),
    NWC_FIELD("l2_bytes", l2.size_bytes, inRange(1, 4 << 20)),
    NWC_FIELD("l1_hit_latency", l1_hit_latency, latency()),
    NWC_FIELD("l2_hit_latency", l2_hit_latency, latency()),
    NWC_FIELD("dram_latency", dram_latency, latency()),
    NWC_FIELD("write_buffer_entries", write_buffer_entries, inRange(1, 4096)),
    NWC_FIELD("hop_latency", hop_latency, latency()),
    NWC_FIELD("ctrl_msg_bytes", ctrl_msg_bytes, inRange(0, 64 << 10)),
    NWC_FIELD("controller_overhead", controller_overhead, latency()),
    NWC_FIELD("system", system, std::nullopt),
    NWC_FIELD("prefetch", prefetch, std::nullopt),
    NWC_FIELD("min_free_frames", min_free_frames, inRange(1, 1 << 20)),
    NWC_FIELD("pages_per_group", pages_per_group, inRange(1, 1 << 20)),
    NWC_FIELD("seed", seed, inRange(0, 0x1p64)),
    // 0 would send every reference, L1 hits too, through the access
    // coroutine; where the compiler emits no tail call for the hand-off
    // (sanitizer builds), the hand-offs nest until the stack overflows.
    NWC_FIELD("access_quantum", access_quantum, inRange(1, 1e6)),
    NWC_FIELD("compute_cycle_scale", compute_cycle_scale, inRange(0, 1000)),
    NWC_FIELD("hint_accuracy", hint_accuracy, probability()),
    NWC_FIELD("ring_victim_reads", ring_victim_reads, std::nullopt),
    NWC_FIELD("ring_bypass_network", ring_bypass_network, std::nullopt),
    NWC_FIELD("log_disk_bps", log_disk_bps, positive()),
    NWC_FIELD("ring_admission", ring_admission, std::nullopt),
    NWC_FIELD("destage_policy", destage_policy, std::nullopt),
    NWC_FIELD("sieve_threshold", sieve_threshold, inRange(1, 1 << 16)),
    NWC_FIELD("policy_ghost_pages", policy_ghost_pages, inRange(1, 1 << 16)),
};
#undef NWC_FIELD

[[noreturn]] void fail(const std::string& msg) {
  throw std::invalid_argument("[machine] " + msg);
}

const Field& field(const std::string& key) {
  for (const Field& f : kFields) {
    if (f.key == key) return f;
  }
  throw std::runtime_error("unknown [machine] key: " + key);
}

}  // namespace

std::optional<KeyRange> keyRange(const std::string& key) { return field(key).range; }

int applyIni(const util::IniFile& ini, MachineConfig& cfg) {
  int applied = 0;
  for (const auto& [full_key, text] : ini.values()) {
    if (full_key.rfind("machine.", 0) != 0) continue;
    const Field& f = field(full_key.substr(8));
    std::visit(
        [&](auto* p) {
          using T = std::remove_pointer_t<decltype(p)>;
          if constexpr (std::is_same_v<T, bool>) {
            *p = *ini.getBool(full_key);
          } else if constexpr (std::is_enum_v<T>) {
            *p = util::enumFromName(namesOf(p), text, f.key);
          } else if constexpr (std::is_integral_v<T>) {
            // Read as unsigned, so every seed round-trips; text past 64 bits
            // is out of range. No integer key takes a negative value, and -5
            // is reported as -5, not as the value it would wrap to.
            char* end = nullptr;
            errno = 0;
            const std::uint64_t u = std::strtoull(text.c_str(), &end, 0);
            if (end == text.c_str() || *end != '\0') {
              throw std::runtime_error("ini: " + full_key + " is not an integer: " + text);
            }
            const bool negative = u != 0 && text.find('-') != std::string::npos;
            if (negative || errno == ERANGE || !f.range->contains(static_cast<double>(u))) {
              f.reject(text);
            }
            *p = static_cast<T>(u);
          } else {
            const double v = *ini.getDouble(full_key);
            if (!f.range->contains(v)) f.reject(text);
            *p = v;
          }
        },
        f.slot(cfg));
    ++applied;
  }
  return applied;
}

util::IniFile toIni(const MachineConfig& cfg) {
  const auto text = [](auto* p) -> std::string {
    using T = std::remove_pointer_t<decltype(p)>;
    if constexpr (std::is_same_v<T, bool>) return *p ? "true" : "false";
    else if constexpr (std::is_enum_v<T>) return util::enumName(namesOf(p), *p);
    else return std::to_string(*p);
  };
  util::IniFile ini;
  for (const Field& f : kFields) {
    ini.set("machine." + std::string(f.key), std::visit(text, f.slotOf(cfg)));
  }
  return ini;
}

void MachineConfig::validate() const {
  for (const Field& f : kFields) {
    if (!f.range) continue;
    const double v =
        std::visit([](auto* p) { return static_cast<double>(*p); }, f.slotOf(*this));
    if (!f.range->contains(v)) f.reject(fmt(v));
  }

  if (num_io_nodes > num_nodes) {
    fail("io_nodes (MachineConfig.num_io_nodes) must be <= nodes, got " +
         std::to_string(num_io_nodes) + " > " + std::to_string(num_nodes));
  }
  if (min_seek_ms > max_seek_ms) {
    fail("min_seek_ms must be <= max_seek_ms, got " + fmt(min_seek_ms) + " > " +
         fmt(max_seek_ms));
  }
  for (const auto& [key, cache] : {std::pair{"l1_bytes", l1}, std::pair{"l2_bytes", l2}}) {
    const std::uint64_t set_bytes = std::uint64_t{cache.line_bytes} * cache.assoc;
    if (set_bytes == 0 || cache.size_bytes % set_bytes != 0) {
      fail(std::string(key) + " must be a multiple of line_bytes x assoc (" +
           std::to_string(set_bytes) + " bytes): a cache holds whole sets, got " +
           std::to_string(cache.size_bytes));
    }
  }
  if (page_bytes % l1.line_bytes != 0 || page_bytes % l2.line_bytes != 0) {
    fail("page_bytes must be a multiple of the L1 and L2 line sizes (" +
         std::to_string(l1.line_bytes) + ", " + std::to_string(l2.line_bytes) +
         " bytes): eviction invalidates a page line by line, got " +
         std::to_string(page_bytes));
  }
  // The ring keys are read only on nwcache.
  if (hasRing() && ring_channels < 1) fail("ring_channels must be >= 1 on nwcache, got 0");
  for (const auto& [key, bytes] :
       {std::pair{"memory_per_node", memory_per_node},
        std::pair{"disk_cache_bytes", disk_cache_bytes},
        std::pair{"ring_channel_bytes", hasRing() ? ring_channel_bytes : page_bytes}}) {
    if (bytes < page_bytes) {
      fail(std::string(key) + " must hold at least one page (page_bytes = " +
           std::to_string(page_bytes) + "), got " + std::to_string(bytes));
    }
  }

  // The longest delay the config derives, in ns. Each key is in range on
  // its own; the ratio to pcycle_ns is what overflows.
  const double page_ns = static_cast<double>(page_bytes) * 1e9;  // over a rate
  const std::pair<const char*, double> delays[] = {
      {"max_seek_ms + rot_ms", (max_seek_ms + rot_ms) * 1e6},
      {"ring_round_trip_us", ring_round_trip_us * 1e3},
      {"ring_retune_us", ring_retune_us * 1e3},
      {"a page_bytes transfer at memory_bus_bps", page_ns / memory_bus_bps},
      {"a page_bytes transfer at io_bus_bps", page_ns / io_bus_bps},
      {"a page_bytes transfer at net_link_bps", page_ns / net_link_bps},
      {"a page_bytes transfer at ring_bps", page_ns / ring_bps},
      {"a page_bytes transfer at disk_bps", page_ns / disk_bps},
      {"a page_bytes transfer at log_disk_bps", page_ns / log_disk_bps},
  };
  for (const auto& [what, ns] : delays) {
    const double ticks = ns / pcycle_ns;
    if (!(ticks < kMaxDerivedTicks)) {
      fail(std::string(what) + " is " + fmt(ticks) + " pcycles at pcycle_ns = " +
           fmt(pcycle_ns) + "; the longest delay must stay below 2^40 pcycles");
    }
  }
}

}  // namespace nwc::machine
