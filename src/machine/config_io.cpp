#include "machine/config_io.hpp"

#include <cmath>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "util/enum_names.hpp"

namespace nwc::machine {

SystemKind systemKindFromString(const std::string& s) {
  return util::enumFromName(kSystemKindNames, s, "system kind");
}

Prefetch prefetchFromString(const std::string& s) {
  return util::enumFromName(kPrefetchNames, s, "prefetch policy");
}

AdmissionKind admissionKindFromString(const std::string& s) {
  return util::enumFromName(kAdmissionKindNames, s, "admission policy");
}

DestageKind destageKindFromString(const std::string& s) {
  return util::enumFromName(kDestageKindNames, s, "destage policy");
}

namespace {

struct Field {
  std::function<void(MachineConfig&, const util::IniFile&, const std::string&)> apply;
  std::function<std::string(const MachineConfig&)> render;
};

// Reads an integer key; an unsigned field rejects a negative value, which
// would otherwise wrap to a huge one.
template <typename T>
std::int64_t getCount(const util::IniFile& ini, const std::string& key) {
  const std::int64_t v = *ini.getInt(key);
  if (std::is_unsigned_v<T> && v < 0) {
    throw std::invalid_argument("[machine] " + key.substr(key.find('.') + 1) +
                                " must be >= 0, got " + std::to_string(v));
  }
  return v;
}

// Reads a real-valued key. Every one is a rate, a time or a scale factor,
// so a negative or non-finite value is rejected; a probability must also
// stay at or below 1.
double getReal(const util::IniFile& ini, const std::string& key, bool probability) {
  const double v = *ini.getDouble(key);
  if (!std::isfinite(v) || v < 0.0 || (probability && v > 1.0)) {
    throw std::invalid_argument("[machine] " + key.substr(key.find('.') + 1) +
                                (probability ? " must be in [0, 1]"
                                             : " must be finite and >= 0") +
                                ", got " + *ini.get(key));
  }
  return v;
}

const std::map<std::string, Field>& fieldTable() {
  static const std::map<std::string, Field> kFields = [] {
    std::map<std::string, Field> f;

    auto add_int = [&f](const std::string& name, auto member) {
      f[name] = Field{
          [member](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
            using T = std::decay_t<decltype(c.*member)>;
            c.*member = static_cast<T>(getCount<T>(ini, key));
          },
          [member](const MachineConfig& c) { return std::to_string(c.*member); }};
    };
    auto add_double = [&f](const std::string& name, auto member,
                           bool probability = false) {
      f[name] = Field{
          [member, probability](MachineConfig& c, const util::IniFile& ini,
                                const std::string& key) {
            c.*member = getReal(ini, key, probability);
          },
          [member](const MachineConfig& c) { return std::to_string(c.*member); }};
    };
    auto add_bool = [&f](const std::string& name, auto member) {
      f[name] = Field{
          [member](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
            c.*member = *ini.getBool(key);
          },
          [member](const MachineConfig& c) { return (c.*member) ? "true" : "false"; }};
    };

    add_int("nodes", &MachineConfig::num_nodes);
    add_int("io_nodes", &MachineConfig::num_io_nodes);
    add_int("page_bytes", &MachineConfig::page_bytes);
    add_int("tlb_miss_latency", &MachineConfig::tlb_miss_latency);
    add_int("tlb_shootdown_latency", &MachineConfig::tlb_shootdown_latency);
    add_int("interrupt_latency", &MachineConfig::interrupt_latency);
    add_int("memory_per_node", &MachineConfig::memory_per_node);
    add_double("memory_bus_bps", &MachineConfig::memory_bus_bps);
    add_double("io_bus_bps", &MachineConfig::io_bus_bps);
    add_double("net_link_bps", &MachineConfig::net_link_bps);
    add_int("ring_channels", &MachineConfig::ring_channels);
    add_double("ring_round_trip_us", &MachineConfig::ring_round_trip_us);
    add_double("ring_bps", &MachineConfig::ring_bps);
    add_int("ring_channel_bytes", &MachineConfig::ring_channel_bytes);
    add_int("ring_receivers", &MachineConfig::ring_receivers);
    add_double("ring_retune_us", &MachineConfig::ring_retune_us);
    add_bool("ring_shared_receivers", &MachineConfig::ring_shared_receivers);
    add_int("disk_cache_bytes", &MachineConfig::disk_cache_bytes);
    add_double("min_seek_ms", &MachineConfig::min_seek_ms);
    add_double("max_seek_ms", &MachineConfig::max_seek_ms);
    add_double("rot_ms", &MachineConfig::rot_ms);
    add_double("disk_bps", &MachineConfig::disk_bps);
    add_double("pcycle_ns", &MachineConfig::pcycle_ns);
    add_int("tlb_entries", &MachineConfig::tlb_entries);
    add_int("l1_hit_latency", &MachineConfig::l1_hit_latency);
    add_int("l2_hit_latency", &MachineConfig::l2_hit_latency);
    add_int("dram_latency", &MachineConfig::dram_latency);
    add_int("write_buffer_entries", &MachineConfig::write_buffer_entries);
    add_int("hop_latency", &MachineConfig::hop_latency);
    add_int("ctrl_msg_bytes", &MachineConfig::ctrl_msg_bytes);
    add_int("controller_overhead", &MachineConfig::controller_overhead);
    add_int("min_free_frames", &MachineConfig::min_free_frames);
    add_int("pages_per_group", &MachineConfig::pages_per_group);
    add_int("seed", &MachineConfig::seed);
    add_int("access_quantum", &MachineConfig::access_quantum);
    add_double("compute_cycle_scale", &MachineConfig::compute_cycle_scale);
    add_bool("ring_victim_reads", &MachineConfig::ring_victim_reads);
    add_bool("ring_bypass_network", &MachineConfig::ring_bypass_network);
    add_double("log_disk_bps", &MachineConfig::log_disk_bps);
    add_double("hint_accuracy", &MachineConfig::hint_accuracy, /*probability=*/true);
    add_int("sieve_threshold", &MachineConfig::sieve_threshold);
    add_int("policy_ghost_pages", &MachineConfig::policy_ghost_pages);
    add_int("policy_lru_pages", &MachineConfig::policy_lru_pages);

    f["system"] = Field{
        [](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
          c.system = systemKindFromString(*ini.get(key));
        },
        [](const MachineConfig& c) { return toString(c.system); }};
    f["prefetch"] = Field{
        [](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
          c.prefetch = prefetchFromString(*ini.get(key));
        },
        [](const MachineConfig& c) { return toString(c.prefetch); }};
    f["ring_admission"] = Field{
        [](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
          c.ring_admission = admissionKindFromString(*ini.get(key));
        },
        [](const MachineConfig& c) { return toString(c.ring_admission); }};
    f["destage_policy"] = Field{
        [](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
          c.destage_policy = destageKindFromString(*ini.get(key));
        },
        [](const MachineConfig& c) { return toString(c.destage_policy); }};
    f["l1_bytes"] = Field{
        [](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
          c.l1.size_bytes = static_cast<std::uint64_t>(getCount<std::uint64_t>(ini, key));
        },
        [](const MachineConfig& c) { return std::to_string(c.l1.size_bytes); }};
    f["l2_bytes"] = Field{
        [](MachineConfig& c, const util::IniFile& ini, const std::string& key) {
          c.l2.size_bytes = static_cast<std::uint64_t>(getCount<std::uint64_t>(ini, key));
        },
        [](const MachineConfig& c) { return std::to_string(c.l2.size_bytes); }};
    return f;
  }();
  return kFields;
}

}  // namespace

int applyIni(const util::IniFile& ini, MachineConfig& cfg) {
  int applied = 0;
  const auto& table = fieldTable();
  for (const auto& [full_key, value] : ini.values()) {
    (void)value;
    if (full_key.rfind("machine.", 0) != 0) continue;
    const std::string name = full_key.substr(8);
    const auto it = table.find(name);
    if (it == table.end()) {
      throw std::runtime_error("unknown [machine] key: " + name);
    }
    it->second.apply(cfg, ini, full_key);
    ++applied;
  }
  return applied;
}

util::IniFile toIni(const MachineConfig& cfg) {
  util::IniFile ini;
  for (const auto& [name, field] : fieldTable()) {
    ini.set("machine." + name, field.render(cfg));
  }
  return ini;
}

}  // namespace nwc::machine
