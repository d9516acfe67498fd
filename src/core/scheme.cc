#include "core/scheme.h"

#include <array>
#include <cstdlib>

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

// Parses "key=value" pairs inside "rwr(...)".
bool ParseRwrParams(std::string_view params, RwrOptions& opts,
                    bool& has_hops) {
  has_hops = false;
  while (!params.empty()) {
    size_t comma = params.find(',');
    std::string_view item =
        comma == std::string_view::npos ? params : params.substr(0, comma);
    params = comma == std::string_view::npos ? std::string_view{}
                                             : params.substr(comma + 1);
    size_t eq = item.find('=');
    if (eq == std::string_view::npos) return false;
    std::string key(item.substr(0, eq));
    std::string value(item.substr(eq + 1));
    char* end = nullptr;
    if (key == "c") {
      opts.reset = std::strtod(value.c_str(), &end);
      if (end != value.c_str() + value.size()) return false;
      if (opts.reset < 0.0 || opts.reset > 1.0) return false;
    } else if (key == "h") {
      unsigned long h = std::strtoul(value.c_str(), &end, 10);
      if (end != value.c_str() + value.size()) return false;
      opts.max_hops = h;
      has_hops = true;
    } else if (key == "mode") {
      if (value == "directed") {
        opts.traversal = TraversalMode::kDirected;
      } else if (value == "symmetric") {
        opts.traversal = TraversalMode::kSymmetric;
      } else {
        return false;
      }
    } else {
      return false;
    }
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
    if (spec != "rwr-push") {
      if (spec.size() < 10 || spec[8] != '(' || spec.back() != ')') {
        return Status::InvalidArgument("bad rwr-push spec: " +
                                       std::string(spec));
      }
      std::string_view params = spec.substr(9, spec.size() - 10);
      while (!params.empty()) {
        size_t comma = params.find(',');
        std::string_view item = comma == std::string_view::npos
                                    ? params
                                    : params.substr(0, comma);
        params = comma == std::string_view::npos ? std::string_view{}
                                                 : params.substr(comma + 1);
        size_t eq = item.find('=');
        if (eq == std::string_view::npos) {
          return Status::InvalidArgument("bad rwr-push param");
        }
        std::string key(item.substr(0, eq));
        std::string value(item.substr(eq + 1));
        char* end = nullptr;
        if (key == "c") {
          push.reset = std::strtod(value.c_str(), &end);
          if (end != value.c_str() + value.size() || push.reset <= 0.0 ||
              push.reset > 1.0) {
            return Status::InvalidArgument("bad rwr-push c");
          }
        } else if (key == "eps") {
          push.epsilon = std::strtod(value.c_str(), &end);
          if (end != value.c_str() + value.size() || push.epsilon <= 0.0) {
            return Status::InvalidArgument("bad rwr-push eps");
          }
        } else if (key == "mode") {
          if (value == "directed") {
            push.traversal = TraversalMode::kDirected;
          } else if (value == "symmetric") {
            push.traversal = TraversalMode::kSymmetric;
          } else {
            return Status::InvalidArgument("bad rwr-push mode");
          }
        } else {
          return Status::InvalidArgument("unknown rwr-push param: " + key);
        }
      }
    }
    return MakeRwrPush(options, push);
  }
  if (spec.rfind("rwr", 0) == 0) {
    RwrOptions rwr;
    if (spec != "rwr") {
      if (spec.size() < 5 || spec[3] != '(' || spec.back() != ')') {
        return Status::InvalidArgument("bad rwr spec: " + std::string(spec));
      }
      bool has_hops = false;
      if (!ParseRwrParams(spec.substr(4, spec.size() - 5), rwr, has_hops)) {
        return Status::InvalidArgument("bad rwr params: " + std::string(spec));
      }
    }
    return MakeRwr(options, rwr);
  }
  return Status::InvalidArgument("unknown scheme spec: " + std::string(spec));
}

}  // namespace commsig
