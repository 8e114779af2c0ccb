#include "apps/block_trace.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "util/rand.hpp"

namespace nwc::apps {

namespace {

[[noreturn]] void specError(const std::string& spec, const std::string& why) {
  throw std::invalid_argument("synthetic spec '" + spec + "': " + why);
}

std::uint64_t parseU64(const std::string& spec, const std::string& key,
                       const std::string& v) {
  try {
    std::size_t pos = 0;
    const unsigned long long n = std::stoull(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return n;
  } catch (const std::exception&) {
    specError(spec, key + " wants an unsigned integer, got '" + v + "'");
  }
}

double parseF64(const std::string& spec, const std::string& key,
                const std::string& v) {
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    if (!std::isfinite(d)) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    specError(spec, key + " wants a finite number, got '" + v + "'");
  }
}

std::string fmtF64(double v, int digits = 6) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*g", digits, v);
  return buf;
}

// Splits `line` at runs of blanks into `tok`; returns how many tokens the
// line holds, counting past tok.size() without storing the excess.
template <std::size_t N>
std::size_t splitTokens(std::string_view line, std::array<std::string_view, N>& tok) {
  std::size_t n = 0;
  std::size_t i = 0;
  for (;;) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i == line.size()) return n;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    if (n < N) tok[n] = line.substr(start, i - start);
    ++n;
  }
}

// An unsigned decimal token with nothing else in it (no sign, no space).
// Values past 2^64 - 1 saturate there, so they fail the caps by name.
bool parseCount(std::string_view s, std::uint64_t& v) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ptr != end || s.empty()) return false;
  if (ec == std::errc::result_out_of_range) {
    v = std::numeric_limits<std::uint64_t>::max();
    return true;
  }
  return ec == std::errc{};
}

// Parses everything after the signature line, one line at a time.
BlockTrace parseText(const std::string& path, std::istream& in) {
  std::string line;
  std::array<std::string_view, 3> tok;
  std::size_t ntok = 0;
  auto fail = [&](const std::string& why) -> void {
    throw std::runtime_error(path + ": malformed block trace (" + why + ")");
  };
  // Advances to the next line that is neither blank nor a comment.
  auto nextLine = [&]() -> bool {
    while (std::getline(in, line)) {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.empty() || line[0] == '#') continue;
      ntok = splitTokens(line, tok);
      return true;
    }
    return false;
  };
  // A "keyword N" header line.
  auto header = [&](const char* kw, std::uint64_t& n) {
    if (!nextLine()) fail(std::string("missing ") + kw + " line");
    if (ntok != 2 || tok[0] != kw || !parseCount(tok[1], n)) {
      fail(std::string("expected '") + kw + " N'");
    }
  };
  BlockTrace t;
  std::uint64_t nclients = 0;
  header("objects", t.objects);
  if (t.objects > kMaxBlockObjects) {
    fail("objects " + std::string(tok[1]) + " exceeds the cap of " +
         std::to_string(kMaxBlockObjects));
  }
  header("clients", nclients);
  if (nclients > kMaxBlockClients) {
    fail("clients " + std::string(tok[1]) + " exceeds the cap of " +
         std::to_string(kMaxBlockClients));
  }
  t.clients.resize(nclients);
  std::uint64_t total_ops = 0;
  for (std::uint64_t c = 0; c < nclients; ++c) {
    const std::string client = "client " + std::to_string(c);
    if (!nextLine()) fail("missing client header");
    std::uint64_t idx = 0, nops = 0;
    if (ntok != 3 || tok[0] != "client" || !parseCount(tok[1], idx) || idx != c ||
        !parseCount(tok[2], nops)) {
      fail("expected '" + client + " N'");
    }
    // The declared count is checked, never reserved: only the op lines
    // actually present are stored.
    if (nops > kMaxBlockOps - total_ops) {
      fail(client + " declares " + std::string(tok[2]) + " ops; a trace holds at most " +
           std::to_string(kMaxBlockOps) + " ops in all");
    }
    total_ops += nops;
    auto& ops = t.clients[c];
    for (std::uint64_t i = 0; i < nops; ++i) {
      if (!nextLine()) fail("truncated op list");
      std::uint64_t gap = 0, obj = 0;
      if (ntok != 3 || !parseCount(tok[0], gap) || !parseCount(tok[1], obj) ||
          (tok[2] != "r" && tok[2] != "w")) {
        fail(client + ": expected 'gap obj r|w', got '" + line + "'");
      }
      if (gap > kMaxBlockGap) {
        fail(client + ": gap " + std::string(tok[0]) + " exceeds the cap of " +
             std::to_string(kMaxBlockGap) + " ticks");
      }
      if (obj >= t.objects) fail(client + ": object id out of range");
      ops.push_back(BlockOp{gap, obj, tok[2] == "w"});
    }
  }
  if (nextLine()) fail("trailing lines");
  return t;
}

}  // namespace

SyntheticSpec SyntheticSpec::parse(const std::string& spec) {
  std::string body = spec;
  if (body.rfind("synth:", 0) == 0) {
    body = body.substr(6);
  } else if (body == "synth") {
    body.clear();
  }
  SyntheticSpec s;
  std::istringstream in(body);
  std::string kv;
  while (std::getline(in, kv, ';')) {
    if (kv.empty()) continue;
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos) specError(spec, "expected key=value, got '" + kv + "'");
    const std::string k = kv.substr(0, eq);
    const std::string v = kv.substr(eq + 1);
    if (k == "clients") {
      s.clients = parseU64(spec, k, v);
    } else if (k == "objects") {
      s.objects = parseU64(spec, k, v);
    } else if (k == "ops") {
      s.ops = parseU64(spec, k, v);
    } else if (k == "read_ratio") {
      s.read_ratio = parseF64(spec, k, v);
    } else if (k == "zipf_theta" || k == "theta") {
      s.zipf_theta = parseF64(spec, k, v);
    } else if (k == "burst_prob") {
      s.burst_prob = parseF64(spec, k, v);
    } else if (k == "burst_len") {
      s.burst_len = parseU64(spec, k, v);
    } else if (k == "diurnal_amp") {
      s.diurnal_amp = parseF64(spec, k, v);
    } else if (k == "diurnal_period") {
      s.diurnal_period = parseU64(spec, k, v);
    } else if (k == "think_mean") {
      s.think_mean = parseF64(spec, k, v);
    } else if (k == "seed") {
      s.seed = parseU64(spec, k, v);
    } else {
      specError(spec, "unknown key '" + k + "'");
    }
  }
  if (s.clients == 0) specError(spec, "clients must be >= 1");
  if (s.objects == 0) specError(spec, "objects must be >= 1");
  if (s.ops == 0) specError(spec, "ops must be >= 1");
  if (s.objects > kMaxBlockObjects) {
    specError(spec, "objects must be <= " + std::to_string(kMaxBlockObjects));
  }
  if (s.clients > kMaxBlockClients) {
    specError(spec, "clients must be <= " + std::to_string(kMaxBlockClients));
  }
  if (s.ops > kMaxBlockOps / s.clients) {
    specError(spec, "ops must be <= " + std::to_string(kMaxBlockOps / s.clients) +
                        " at clients=" + std::to_string(s.clients) + " (at most " +
                        std::to_string(kMaxBlockOps) + " ops in all)");
  }
  if (s.read_ratio < 0.0 || s.read_ratio > 1.0)
    specError(spec, "read_ratio must be in [0, 1]");
  if (s.zipf_theta < 0.0) specError(spec, "zipf_theta must be >= 0");
  if (s.burst_prob < 0.0 || s.burst_prob > 1.0)
    specError(spec, "burst_prob must be in [0, 1]");
  if (s.diurnal_amp < 0.0 || s.diurnal_amp >= 1.0)
    specError(spec, "diurnal_amp must be in [0, 1)");
  if (s.diurnal_period == 0) specError(spec, "diurnal_period must be >= 1");
  if (s.think_mean <= 0.0) specError(spec, "think_mean must be > 0");
  // exponential() draws at most 36.74 x think_mean (-log of the smallest
  // uniform, 2^-53), and the load curve divides a draw by at least
  // 1 - diurnal_amp.
  const double longest = 37.0 * s.think_mean / (1.0 - s.diurnal_amp);
  if (longest > static_cast<double>(kMaxBlockGap)) {
    specError(spec, "think_mean " + fmtF64(s.think_mean, 12) + " at diurnal_amp " +
                        fmtF64(s.diurnal_amp, 12) + " can draw a gap of " +
                        fmtF64(longest, 15) + " ticks; 37 x think_mean / (1 - diurnal_amp) " +
                        "must not exceed " + std::to_string(kMaxBlockGap));
  }
  return s;
}

std::string SyntheticSpec::canonical() const {
  std::string out = "synth:";
  out += "clients=" + std::to_string(clients);
  out += ";objects=" + std::to_string(objects);
  out += ";ops=" + std::to_string(ops);
  out += ";read_ratio=" + fmtF64(read_ratio);
  out += ";zipf_theta=" + fmtF64(zipf_theta);
  out += ";burst_prob=" + fmtF64(burst_prob);
  out += ";burst_len=" + std::to_string(burst_len);
  out += ";diurnal_amp=" + fmtF64(diurnal_amp);
  out += ";diurnal_period=" + std::to_string(diurnal_period);
  out += ";think_mean=" + fmtF64(think_mean);
  out += ";seed=" + std::to_string(seed);
  return out;
}

BlockTrace generateBlockTrace(const SyntheticSpec& spec, double scale) {
  const std::uint64_t ops_per_client = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(spec.ops) * scale));

  util::Xoshiro256ss root(spec.seed);

  // Zipf ranks map to scattered object ids via a seeded permutation so hot
  // objects spread across the address space (and thus across disks/nodes)
  // instead of clustering at low addresses.
  std::vector<std::uint64_t> perm(spec.objects);
  std::iota(perm.begin(), perm.end(), std::uint64_t{0});
  {
    util::Xoshiro256ss shuffle = root.fork(0x0b7ec7);
    for (std::uint64_t i = spec.objects - 1; i > 0; --i) {
      const std::uint64_t j = shuffle.below(i + 1);
      std::swap(perm[i], perm[j]);
    }
  }
  const util::ZipfianSampler zipf(spec.objects, spec.zipf_theta);

  BlockTrace t;
  t.objects = spec.objects;
  t.clients.resize(spec.clients);
  const double two_pi = 2.0 * 3.14159265358979323846;
  for (std::uint64_t c = 0; c < spec.clients; ++c) {
    // One independent stream per client: adding clients never perturbs the
    // draws of existing ones, and generation order (or host threading)
    // cannot change the result.
    util::Xoshiro256ss rng = root.fork(c + 1);
    auto& ops = t.clients[c];
    ops.reserve(ops_per_client);
    std::uint64_t burst_left = 0;
    std::uint64_t clock = 0;  // this client's scheduled-arrival clock
    for (std::uint64_t i = 0; i < ops_per_client; ++i) {
      BlockOp op;
      op.obj = perm[zipf.sample(rng.uniform())];
      if (burst_left > 0) {
        op.write = true;
        --burst_left;
      } else if (spec.burst_len > 0 && rng.chance(spec.burst_prob)) {
        op.write = true;
        burst_left = spec.burst_len - 1;
      } else {
        op.write = !rng.chance(spec.read_ratio);
      }
      // Open-loop think time, modulated by the diurnal load curve: higher
      // load(t) compresses gaps (more requests per tick). A flat curve
      // skips the sine: 1.0 + 0.0 * sin(x) is exactly 1.0.
      const double load =
          spec.diurnal_amp == 0.0
              ? 1.0
              : 1.0 + spec.diurnal_amp *
                          std::sin(two_pi * static_cast<double>(clock) /
                                   static_cast<double>(spec.diurnal_period));
      op.gap = static_cast<std::uint64_t>(rng.exponential(spec.think_mean) / load);
      clock += op.gap;
      ops.push_back(op);
    }
  }
  return t;
}

void writeBlockTrace(const std::string& path, const BlockTrace& trace) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error(path + ": cannot write block trace");
  out << kBlockTraceSignature << "\n";
  out << "objects " << trace.objects << "\n";
  out << "clients " << trace.clients.size() << "\n";
  // One "gap obj r|w" line per op, formatted in place: 20 digits at most
  // per number.
  char buf[48];
  for (std::size_t c = 0; c < trace.clients.size(); ++c) {
    out << "client " << c << " " << trace.clients[c].size() << "\n";
    for (const BlockOp& op : trace.clients[c]) {
      char* p = std::to_chars(buf, buf + 20, static_cast<std::uint64_t>(op.gap)).ptr;
      *p++ = ' ';
      p = std::to_chars(p, p + 20, static_cast<std::uint64_t>(op.obj)).ptr;
      *p++ = ' ';
      *p++ = op.write ? 'w' : 'r';
      *p++ = '\n';
      out.write(buf, p - buf);
    }
  }
  out.close();
  if (!out) throw std::runtime_error(path + ": cannot write block trace");
}

BlockTrace readBlockTrace(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(path + ": cannot open block trace");
  std::string head(std::char_traits<char>::length(kBlockTraceSignature), '\0');
  in.read(head.data(), static_cast<std::streamsize>(head.size()));
  head.resize(static_cast<std::size_t>(in.gcount()));
  if (head != kBlockTraceSignature) {
    throw std::runtime_error(path + ": not a block trace (want a \"" +
                             kBlockTraceSignature + "\" header)");
  }
  // The rest of the signature line is a comment.
  in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  return parseText(path, in);
}

BlockTraceStats summarizeBlockTrace(const BlockTrace& trace) {
  BlockTraceStats s;
  s.clients = trace.clients.size();
  s.objects = trace.objects;
  std::vector<std::uint64_t> counts(trace.objects, 0);
  for (const auto& ops : trace.clients) {
    std::uint64_t span = 0;
    for (const BlockOp& op : ops) {
      ++s.total_ops;
      if (op.write) {
        ++s.writes;
      } else {
        ++s.reads;
      }
      span += op.gap;
      if (op.obj < counts.size()) ++counts[op.obj];
    }
    s.span_ticks = std::max(s.span_ticks, span);
  }
  for (const std::uint64_t c : counts) {
    if (c > 0) ++s.unique_objects;
  }
  s.est_zipf_theta = estimateZipfTheta(counts);
  return s;
}

double estimateZipfTheta(const std::vector<std::uint64_t>& counts) {
  std::vector<std::uint64_t> hot;
  for (const std::uint64_t c : counts) {
    if (c > 0) hot.push_back(c);
  }
  if (hot.size() < 2) return 0.0;
  std::sort(hot.begin(), hot.end(), std::greater<>());
  // Least-squares fit of log(freq) = a - theta * log(rank): the slope of
  // the popularity curve on log-log axes.
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  const double n = static_cast<double>(hot.size());
  for (std::size_t i = 0; i < hot.size(); ++i) {
    const double x = std::log(static_cast<double>(i + 1));
    const double y = std::log(static_cast<double>(hot[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  const double denom = n * sxx - sx * sx;
  if (denom <= 0.0) return 0.0;
  const double slope = (n * sxy - sx * sy) / denom;
  return std::max(0.0, -slope);
}

}  // namespace nwc::apps
