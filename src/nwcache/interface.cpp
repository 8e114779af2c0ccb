#include "nwcache/interface.hpp"

#include <algorithm>
#include <cassert>

#include "obs/registry.hpp"

namespace nwc::ring {

TunableReceiverBank::TunableReceiverBank(const ReceiverParams& p,
                                         const std::string& name)
    : params_(p), tuned_(static_cast<std::size_t>(p.receivers), -1) {
  assert(p.receivers >= 1);
  for (int i = 0; i < p.receivers; ++i) {
    rx_.emplace_back(name + "_rx" + std::to_string(i));
  }
}

TunableReceiverBank::Grant TunableReceiverBank::request(sim::Tick now, Use use,
                                                        int channel,
                                                        sim::Tick service) {
  int idx;
  if (params_.dedicated) {
    // Receiver 0 drains; the highest other receiver serves victim reads.
    // With one receiver both roles contend for it — the saturation case the
    // white-box tests pin down: requests queue, they are never dropped.
    idx = use == Use::kDrain ? 0 : std::min(1, receivers() - 1);
  } else {
    // Pooled: earliest-available receiver; among ties prefer one already
    // tuned to `channel` (skips the retune), then the lowest index.
    idx = 0;
    sim::Tick best = std::max(now, rx_[0].busyUntil());
    bool best_tuned = tuned_[0] == channel;
    for (int i = 1; i < receivers(); ++i) {
      const sim::Tick avail =
          std::max(now, rx_[static_cast<std::size_t>(i)].busyUntil());
      const bool is_tuned = tuned_[static_cast<std::size_t>(i)] == channel;
      if (avail < best || (avail == best && is_tuned && !best_tuned)) {
        idx = i;
        best = avail;
        best_tuned = is_tuned;
      }
    }
  }

  Grant g;
  g.receiver = idx;
  if (tuned_[static_cast<std::size_t>(idx)] != channel) {
    g.retune = params_.retune_ticks;
    if (g.retune > 0) ++retunes_;
    tuned_[static_cast<std::size_t>(idx)] = channel;
  }
  g.done = rx_[static_cast<std::size_t>(idx)].request(now, g.retune + service);
  g.queued = g.done - g.retune - service - now;
  return g;
}

NwcFifos::NwcFifos(int channels) : fifos_(static_cast<std::size_t>(channels)) {}

void NwcFifos::push(int channel, const SwapRecord& rec) {
  fifos_[static_cast<std::size_t>(channel)].push_back(rec);
  ++pushes_;
}

int NwcFifos::size(int channel) const {
  return static_cast<int>(fifos_[static_cast<std::size_t>(channel)].size());
}

int NwcFifos::totalSize() const {
  int n = 0;
  for (const auto& q : fifos_) n += static_cast<int>(q.size());
  return n;
}

int NwcFifos::heaviestChannel() const {
  int best = -1;
  int best_size = 0;
  for (std::size_t c = 0; c < fifos_.size(); ++c) {
    const int s = static_cast<int>(fifos_[c].size());
    if (s > best_size) {
      best_size = s;
      best = static_cast<int>(c);
    }
  }
  return best;
}

std::optional<SwapRecord> NwcFifos::front(int channel) const {
  const auto& q = fifos_[static_cast<std::size_t>(channel)];
  if (q.empty()) return std::nullopt;
  return q.front();
}

std::optional<SwapRecord> NwcFifos::popFront(int channel) {
  auto& q = fifos_[static_cast<std::size_t>(channel)];
  if (q.empty()) return std::nullopt;
  SwapRecord r = q.front();
  q.pop_front();
  return r;
}

std::optional<SwapRecord> NwcFifos::removePage(sim::PageId page) {
  for (auto& q : fifos_) {
    for (auto it = q.begin(); it != q.end(); ++it) {
      if (it->page == page) {
        SwapRecord r = *it;
        q.erase(it);
        return r;
      }
    }
  }
  return std::nullopt;
}

void NwcFifos::publishMetrics(obs::MetricsRegistry& reg,
                              const std::string& prefix) const {
  reg.counter(prefix + "pushes", pushes_);
  reg.gauge(prefix + "queued", totalSize());
}

}  // namespace nwc::ring
