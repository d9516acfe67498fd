#include "core/incremental.h"

#include <utility>

#include "graph/graph_delta.h"
#include "obs/obs.h"
#include "obs/window_stats.h"

namespace commsig {

IncrementalSignatureEngine::IncrementalSignatureEngine(
    const SignatureScheme& scheme, std::vector<NodeId> nodes)
    : scheme_(&scheme), nodes_(std::move(nodes)) {}

const std::vector<Signature>& IncrementalSignatureEngine::AdvanceBorrowed(
    const CommGraph& g) {
  COMMSIG_SPAN("timeline/advance");
  obs::WindowRecord record;
  record.window_index = windows_advanced_;
  record.events = g.NumEdges();
  record.focal_nodes = nodes_.size();

  // The dirty/reused split is maintained by the schemes' shared
  // RecomputeDirty skeleton as process-wide counters; the per-window
  // attribution is the counter delta across this advance. (With several
  // engines advancing concurrently the split becomes approximate; the
  // stage latencies stay exact either way.)
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& dirty_counter = reg.GetCounter("timeline/nodes_dirty");
  obs::Counter& reused_counter = reg.GetCounter("timeline/nodes_reused");
  const uint64_t dirty_before = dirty_counter.Value();
  const uint64_t reused_before = reused_counter.Value();

  if (prev_graph_ == nullptr) {
    obs::ScopedStageTimer timer(record, obs::PipelineStage::kDirtyRecompute);
    current_ = scheme_->IncrementalComputeAll(g, nodes_, nullptr, {}, state_);
    record.dirty_nodes = nodes_.size();  // a prime recomputes everyone
  } else {
    std::unique_ptr<GraphDelta> delta;
    {
      obs::ScopedStageTimer timer(record, obs::PipelineStage::kDeltaDiff);
      delta = std::make_unique<GraphDelta>(*prev_graph_, g);
    }
    {
      obs::ScopedStageTimer timer(record,
                                  obs::PipelineStage::kDirtyRecompute);
      current_ = scheme_->IncrementalComputeAll(g, nodes_, delta.get(),
                                                std::move(current_), state_);
    }
    record.dirty_nodes = dirty_counter.Value() - dirty_before;
    record.reused_nodes = reused_counter.Value() - reused_before;
  }
  obs::WindowStatsAggregator::Global().Record(record);
  ++windows_advanced_;
  prev_graph_ = &g;
  return current_;
}

void IncrementalSignatureEngine::Reset() {
  prev_graph_ = nullptr;
  current_.clear();
  state_.reset();
  windows_advanced_ = 0;
}

}  // namespace commsig
