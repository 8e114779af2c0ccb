// nwcgen: generate a deterministic synthetic block trace and write it in
// the block-trace text encoding. The output replays through
// nwcsim/nwcbatch/benches as "trace:FILE" and inspects with nwctrace.
//
//   nwcgen --spec='synth:clients=8;objects=4096;ops=2000' --out=wl.nwcbt
//   nwcgen --spec=synth --scale=0.1 --out=wl.nwcbt
//
// Generation is a pure function of (--spec, --scale): re-running the same
// command yields a byte-identical file on any host at any thread count.
// A generated trace served live ("synth:...") and the written file served
// as "trace:FILE" produce byte-identical simulation results.
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "apps/block_trace.hpp"
#include "util/ini.hpp"

namespace {

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: nwcgen --out=FILE [options]\n"
      "  --out=FILE     output path (required)\n"
      "  --spec=SPEC    \"synth[:k=v;k=v...]\" generator knobs; keys:\n"
      "                 clients, objects, ops, read_ratio, zipf_theta,\n"
      "                 burst_prob, burst_len, diurnal_amp, diurnal_period,\n"
      "                 think_mean, seed (defaults: see docs/WORKLOADS.md)\n"
      "  --scale=F      shrink per-client op counts: a number in (0,1],\n"
      "                 like nwcsim --scale=\n"
      "  --quiet        suppress the summary line\n");
  std::exit(code);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nwc;

  std::string out_path;
  std::string spec = "synth";
  std::string scale_text = "1";
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--out=", 0) == 0) {
      out_path = a.substr(6);
    } else if (a.rfind("--spec=", 0) == 0) {
      spec = a.substr(7);
    } else if (a.rfind("--scale=", 0) == 0) {
      scale_text = a.substr(8);
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--help" || a == "-h") {
      usage(0);
    } else {
      std::fprintf(stderr, "nwcgen: unknown flag %s (see --help)\n", a.c_str());
      return 2;
    }
  }
  if (out_path.empty()) usage(2);

  try {
    const double scale = util::positiveFlag("--scale", scale_text, false, 1.0);
    const apps::SyntheticSpec s = apps::SyntheticSpec::parse(spec);
    const apps::BlockTrace t = apps::generateBlockTrace(s, scale);
    apps::writeBlockTrace(out_path, t);
    if (!quiet) {
      const apps::BlockTraceStats st = apps::summarizeBlockTrace(t);
      std::printf(
          "%s: %llu clients, %llu ops (%llu r / %llu w), %llu objects, %s\n",
          out_path.c_str(), static_cast<unsigned long long>(st.clients),
          static_cast<unsigned long long>(st.total_ops),
          static_cast<unsigned long long>(st.reads),
          static_cast<unsigned long long>(st.writes),
          static_cast<unsigned long long>(st.objects),
          s.canonical().c_str());
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "nwcgen: %s\n", ex.what());
    return 2;
  }
  return 0;
}
