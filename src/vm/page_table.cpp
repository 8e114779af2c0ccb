#include "vm/page_table.hpp"

namespace nwc::vm {

const char* toString(PageState s) {
  switch (s) {
    case PageState::kDisk: return "disk";
    case PageState::kTransit: return "transit";
    case PageState::kResident: return "resident";
    case PageState::kRing: return "ring";
    case PageState::kSwapping: return "swapping";
    default: return "?";
  }
}

PageTable::PageTable(sim::Engine& eng, std::int64_t num_pages) {
  addPages(eng, num_pages);
}

void PageTable::addPages(sim::Engine& eng, std::int64_t count) {
  entries_.reserve(entries_.size() + static_cast<std::size_t>(count));
  for (std::int64_t i = 0; i < count; ++i) entries_.emplace_back(eng);
}

void PageTable::setState(sim::PageId p, PageState s) {
  PageEntry& e = entry(p);
  e.state = s;
  e.changed.notifyAll();
}

std::int64_t PageTable::countInState(PageState s) const {
  std::int64_t n = 0;
  for (const PageEntry& e : entries_) n += e.state == s ? 1 : 0;
  return n;
}

}  // namespace nwc::vm
