#include "graph/graph_builder.h"

#include <bit>
#include <cassert>

namespace commsig {

namespace {

NodeId SrcOf(uint64_t key) { return static_cast<NodeId>(key >> 32); }
NodeId DstOf(uint64_t key) { return static_cast<NodeId>(key); }

}  // namespace

GraphBuilder::GraphBuilder(size_t num_nodes) : num_nodes_(num_nodes) {}

void GraphBuilder::AddEdge(NodeId src, NodeId dst, double weight) {
  assert(src < num_nodes_ && dst < num_nodes_);
  assert(weight > 0.0);
  if (4 * (num_edges_ + 1) > 3 * slots_.size()) Grow();
  const uint64_t key = uint64_t{src} << 32 | dst;
  const size_t mask = slots_.size() - 1;
  for (size_t i = Home(key);; i = (i + 1) & mask) {
    Slot& slot = slots_[i];
    if (slot.key == key) {
      slot.weight += weight;
      return;
    }
    if (slot.key == kEmptyKey) {
      // 0.0 + w, not w: every sum starts from +0.0, so an edge observed
      // only as -0.0 weighs +0.0.
      slot = {key, 0.0 + weight};
      ++num_edges_;
      return;
    }
  }
}

bool GraphBuilder::TryAddEdge(NodeId src, NodeId dst, double weight) {
  if (src >= num_nodes_ || dst >= num_nodes_) return false;
  if (!(weight > 0.0 && weight <= kMaxRecordWeight)) return false;
  AddEdge(src, dst, weight);
  return true;
}

void GraphBuilder::Grow() {
  const size_t capacity = slots_.empty() ? 16 : slots_.size() * 2;
  std::vector<Slot> old = std::move(slots_);
  slots_.assign(capacity, Slot{kEmptyKey, 0.0});
  shift_ = 64 - std::countr_zero(capacity);
  const size_t mask = capacity - 1;
  for (const Slot& slot : old) {
    if (slot.key == kEmptyKey) continue;
    size_t i = Home(slot.key);
    while (slots_[i].key != kEmptyKey) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

CommGraph GraphBuilder::Build() && {
  CommGraph g;
  const size_t n = num_nodes_;
  // Packs the E edges to the front of the table without a branch per
  // slot, so the passes below read only edges.
  size_t packed = 0;
  for (size_t i = 0; i < slots_.size(); ++i) {
    const Slot slot = slots_[i];
    slots_[packed] = slot;
    packed += slot.key != kEmptyKey;
  }
  slots_.resize(packed);

  g.out_index_.assign(n + 1, 0);
  g.in_index_.assign(n + 1, 0);
  for (const Slot& slot : slots_) {
    g.out_index_[SrcOf(slot.key) + size_t{1}] += 1;
    g.in_index_[DstOf(slot.key) + size_t{1}] += 1;
  }
  for (size_t i = 1; i <= n; ++i) {
    g.out_index_[i] += g.out_index_[i - 1];
    g.in_index_[i] += g.in_index_[i - 1];
  }

  // Counting sort in two scatters. The table goes into the in-edge array
  // grouped by dst (any src order within a group); walking those groups in
  // ascending dst then fills every src's out row in ascending dst.
  g.out_edges_.resize(num_edges_);
  g.in_edges_.resize(num_edges_);
  std::vector<size_t> cursor(g.in_index_.begin(), g.in_index_.end() - 1);
  for (const Slot& slot : slots_) {
    g.in_edges_[cursor[DstOf(slot.key)]++] = {SrcOf(slot.key), slot.weight};
  }
  slots_ = std::vector<Slot>();  // releases the table; `= {}` would keep it
  cursor.assign(g.out_index_.begin(), g.out_index_.end() - 1);
  for (NodeId u = 0; u < n; ++u) {
    for (const Edge& e : g.InEdges(u)) {
      g.out_edges_[cursor[e.node]++] = {u, e.weight};
    }
  }

  // Tallies accumulate in (src, dst) order. Scattering in src order keeps
  // each in-adjacency range sorted by source, since sources are visited in
  // increasing id order.
  g.out_weight_.assign(n, 0.0);
  g.in_weight_.assign(n, 0.0);
  cursor.assign(g.in_index_.begin(), g.in_index_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      g.out_weight_[v] += e.weight;
      g.in_weight_[e.node] += e.weight;
      g.total_weight_ += e.weight;
      g.in_edges_[cursor[e.node]++] = {v, e.weight};
    }
  }

  g.bipartite_.left_size = left_size_;
  return g;
}

}  // namespace commsig
