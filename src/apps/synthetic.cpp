#include "apps/synthetic.hpp"

#include <memory>
#include <stdexcept>

#include "apps/app_context.hpp"
#include "apps/registry.hpp"

namespace nwc::apps {

BlockServeWorkload::BlockServeWorkload(std::string name, BlockTrace trace)
    : name_(std::move(name)),
      trace_(std::move(trace)),
      total_ops_(trace_.totalOps()) {}

void BlockServeWorkload::setup(AppContext& ctx) {
  machine::Machine& m = ctx.machine();
  page_bytes_ = m.config().page_bytes;
  data_bytes_ = trace_.objects * page_bytes_;
  // One page per object: the whole store starts on disk, exactly like a
  // kernel's mmap'd file, and pages in through the configured IoBackend.
  base_ = m.allocRegion(data_bytes_, "blockstore");
}

sim::Task<> BlockServeWorkload::drive(AppContext& ctx, int cpu) {
  machine::Machine& m = ctx.machine();
  sim::Engine& eng = m.engine();
  const std::size_t ncpu = static_cast<std::size_t>(ctx.numCpus());

  // Clients are striped across front-end nodes; this cpu merges its
  // clients' streams in scheduled-arrival order (ties broken by client id,
  // so the interleave is a pure function of the trace).
  struct Cursor {
    std::size_t client;
    std::size_t idx;
    std::uint64_t at;
  };
  std::vector<Cursor> cur;
  for (std::size_t c = static_cast<std::size_t>(cpu); c < trace_.clients.size();
       c += ncpu) {
    if (trace_.clients[c].empty()) continue;
    cur.push_back(Cursor{c, 0, trace_.clients[c][0].gap});
  }

  while (!cur.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < cur.size(); ++i) {
      if (cur[i].at < cur[best].at ||
          (cur[i].at == cur[best].at && cur[i].client < cur[best].client)) {
        best = i;
      }
    }
    Cursor& k = cur[best];
    const BlockOp& op = trace_.clients[k.client][k.idx];
    // Open-loop arrivals: requests land at their scheduled time when the
    // server keeps up, and queue behind the previous request (waitUntil in
    // the past is a synchronous no-op) when it does not.
    if (k.at > eng.now()) co_await eng.waitUntil(k.at);
    co_await m.blockAccess(cpu, base_ + op.obj * page_bytes_, op.write);
    ++issued_;

    ++k.idx;
    if (k.idx >= trace_.clients[k.client].size()) {
      cur[best] = cur.back();
      cur.pop_back();
    } else {
      k.at += trace_.clients[k.client][k.idx].gap;
    }
  }
}

bool BlockServeWorkload::verify() const {
  return issued_ == total_ops_;
}

bool isWorkloadSpec(const std::string& spec) {
  return spec == "synth" || spec.rfind("synth:", 0) == 0 ||
         spec.rfind("trace:", 0) == 0;
}

std::unique_ptr<WorkloadSource> makeWorkload(const std::string& spec,
                                             double scale) {
  if (spec == "synth" || spec.rfind("synth:", 0) == 0) {
    const SyntheticSpec s = SyntheticSpec::parse(spec);
    return std::make_unique<BlockServeWorkload>(s.canonical(),
                                                generateBlockTrace(s, scale));
  }
  if (spec.rfind("trace:", 0) == 0) {
    const std::string path = spec.substr(6);
    if (path.empty()) throw std::invalid_argument("trace: spec wants a path");
    try {
      // Recorded traces replay as-is; scale shrinks only synthetic specs.
      return std::make_unique<BlockServeWorkload>(spec, readBlockTrace(path));
    } catch (const std::runtime_error& ex) {
      throw std::invalid_argument(ex.what());
    }
  }
  throw std::invalid_argument("unknown workload spec: " + spec);
}

std::string workloadSpecError(const std::string& spec) {
  if (!isWorkloadSpec(spec)) {
    if (findApp(spec) == nullptr) return "unknown application: " + spec;
    return {};
  }
  if (spec.rfind("trace:", 0) == 0) {
    const std::string path = spec.substr(6);
    if (path.empty()) return "trace: spec wants a path";
    // The whole file is parsed, so a grid never runs cells before a bad
    // trace stops it.
    try {
      (void)readBlockTrace(path);
    } catch (const std::runtime_error& ex) {
      return ex.what();
    }
    return {};
  }
  try {
    (void)SyntheticSpec::parse(spec);
  } catch (const std::invalid_argument& ex) {
    return ex.what();
  }
  return {};
}

}  // namespace nwc::apps
