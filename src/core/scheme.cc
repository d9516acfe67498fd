#include "core/scheme.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/csv.h"
#include "core/rwr_push.h"
#include "graph/graph_delta.h"
#include "obs/obs.h"

namespace commsig {

std::span<const ApplicationRequirement> ApplicationRequirements() {
  // Paper Table I.
  static constexpr std::array<ApplicationRequirement, 3> kTable = {{
      {"multiusage-detection", Requirement::kLow, Requirement::kHigh,
       Requirement::kHigh},
      {"label-masquerading", Requirement::kHigh, Requirement::kHigh,
       Requirement::kMedium},
      {"anomaly-detection", Requirement::kHigh, Requirement::kLow,
       Requirement::kHigh},
  }};
  return kTable;
}

const std::vector<CharacteristicLink>& CharacteristicLinks() {
  // Paper Table II.
  // NOLINT(analyze-hygiene-naked-new): leaked singleton
  static const auto& kLinks = *new std::vector<CharacteristicLink>{
      {GraphCharacteristic::kEngagement,
       {SignatureProperty::kPersistence, SignatureProperty::kRobustness}},
      {GraphCharacteristic::kNovelty, {SignatureProperty::kUniqueness}},
      {GraphCharacteristic::kLocality, {SignatureProperty::kUniqueness}},
      {GraphCharacteristic::kTransitivity,
       {SignatureProperty::kPersistence, SignatureProperty::kRobustness}},
  };
  return kLinks;
}

std::vector<Signature> SignatureScheme::ComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes) const {
  std::vector<Signature> out;
  out.reserve(nodes.size());
  for (NodeId v : nodes) out.push_back(Compute(g, v));
  return out;
}

std::vector<Signature> SignatureScheme::RecomputeDirty(
    const CommGraph& g, std::span<const NodeId> nodes,
    std::vector<Signature> previous,
    const std::function<bool(NodeId)>& is_dirty) const {
  std::vector<NodeId> dirty_nodes;
  std::vector<size_t> dirty_slots;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (is_dirty(nodes[i])) {
      dirty_nodes.push_back(nodes[i]);
      dirty_slots.push_back(i);
    }
  }
  // Route dirty recomputes through ComputeAll, not per-node Compute, so a
  // scheme's batched sweep amortization carries over to the dirty subset.
  std::vector<Signature> recomputed = ComputeAll(g, dirty_nodes);

  // Clean signatures ride along by move: a reuse is O(1), no allocation.
  std::vector<Signature> out = std::move(previous);
  for (size_t j = 0; j < dirty_slots.size(); ++j) {
    out[dirty_slots[j]] = std::move(recomputed[j]);
  }
  COMMSIG_COUNTER_ADD("timeline/nodes_dirty", dirty_nodes.size());
  COMMSIG_COUNTER_ADD("timeline/nodes_reused",
                      nodes.size() - dirty_nodes.size());
  return out;
}

std::vector<Signature> SignatureScheme::IncrementalComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes, const GraphDelta* delta,
    std::vector<Signature> previous,
    std::unique_ptr<IncrementalState>& state) const {
  (void)state;  // the base rule is stateless; schemes with warm state override
  if (delta == nullptr || previous.size() != nodes.size()) {
    COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size());
    return ComputeAll(g, nodes);
  }
  return RecomputeDirty(g, nodes, std::move(previous),
                        [&](NodeId v) { return delta->LocalDirty(v); });
}

bool SignatureScheme::KeepCandidate(const CommGraph& g, NodeId focal,
                                    NodeId candidate) const {
  if (candidate == focal) return false;  // Definition 1: u != v
  if (options_.restrict_to_opposite_partition &&
      g.bipartite().IsBipartite()) {
    return g.InLeftPartition(focal) != g.InLeftPartition(candidate);
  }
  return true;
}

namespace {

/// Hands each `key=value` item of `spec`, a bare `name` or `name(k=v,...)`,
/// to `set`, which returns false for an unknown key or a bad value. Empty
/// parentheses and a trailing comma are fine; an empty item is not.
template <typename Set>
Status ParseParams(std::string_view spec, std::string_view name, Set&& set) {
  if (spec == name) return Status::OK();
  const std::string what(name);
  if (spec.size() < name.size() + 2 || spec[name.size()] != '(' ||
      spec.back() != ')') {
    return Status::InvalidArgument("bad " + what + " spec: " +
                                   std::string(spec));
  }
  std::string_view params =
      spec.substr(name.size() + 1, spec.size() - name.size() - 2);
  while (!params.empty()) {
    const size_t comma = std::min(params.find(','), params.size());
    const std::string_view item = params.substr(0, comma);
    params.remove_prefix(std::min(comma + 1, params.size()));
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos ||
        !set(item.substr(0, eq), std::string(item.substr(eq + 1)))) {
      return Status::InvalidArgument("bad " + what + " param '" +
                                     std::string(item) + "' in " +
                                     std::string(spec));
    }
  }
  return Status::OK();
}

bool ParseMode(const std::string& value, TraversalMode& out) {
  if (value == "directed") {
    out = TraversalMode::kDirected;
  } else if (value == "symmetric") {
    out = TraversalMode::kSymmetric;
  } else {
    return false;
  }
  return true;
}

}  // namespace

Result<std::unique_ptr<SignatureScheme>> CreateScheme(std::string_view spec,
                                                      SchemeOptions options) {
  if (spec == "tt") return MakeTopTalkers(options);
  if (spec == "ut") {
    return MakeUnexpectedTalkers(options, UtWeighting::kInverseInDegree);
  }
  if (spec == "ut-tfidf") {
    return MakeUnexpectedTalkers(options, UtWeighting::kTfIdf);
  }
  if (spec.rfind("rwr-push", 0) == 0) {
    RwrPushOptions push;
    const Status s = ParseParams(
        spec, "rwr-push", [&push](std::string_view key, const std::string& v) {
          if (key == "c") {
            return TryParseDouble(v, push.reset) && push.reset > 0.0 &&
                   push.reset <= 1.0;
          }
          if (key == "eps") {
            return TryParseDouble(v, push.epsilon) && push.epsilon > 0.0 &&
                   std::isfinite(push.epsilon);
          }
          return key == "mode" && ParseMode(v, push.traversal);
        });
    if (!s.ok()) return s;
    return MakeRwrPush(options, push);
  }
  if (spec.rfind("rwr", 0) == 0) {
    RwrOptions rwr;
    const Status s = ParseParams(
        spec, "rwr", [&rwr](std::string_view key, const std::string& v) {
          if (key == "c") {
            return TryParseDouble(v, rwr.reset) && rwr.reset >= 0.0 &&
                   rwr.reset <= 1.0;
          }
          if (key == "h") {  // capped at max_iterations; the paper runs 3-7
            return TryParseUint(v, rwr.max_hops) &&
                   rwr.max_hops <= rwr.max_iterations;
          }
          return key == "mode" && ParseMode(v, rwr.traversal);
        });
    if (!s.ok()) return s;
    return MakeRwr(options, rwr);
  }
  return Status::InvalidArgument("unknown scheme spec: " + std::string(spec));
}

}  // namespace commsig
