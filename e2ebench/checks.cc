#include "checks.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <unordered_map>
#include <utility>

namespace commsig::e2e {
namespace {

constexpr uint32_t kUnknown = std::numeric_limits<uint32_t>::max();

/// App outputs computed from RWR signatures that agree to `rwr_epsilon_`
/// in weight may differ this much in distance (the L1 weight drift spread
/// over a signature's total weight, with a wide margin).
constexpr double kRwrDistanceEpsilon = 1e-4;

/// Reader node id -> generator node id, by label.
std::vector<uint32_t> GeneratorIds(const Interner& interner,
                                   const Reference& ref) {
  std::vector<uint32_t> ids(interner.size(), kUnknown);
  for (NodeId v = 0; v < interner.size(); ++v) {
    auto it = ref.id_of_label.find(interner.LabelOf(v));
    if (it != ref.id_of_label.end()) ids[v] = it->second;
  }
  return ids;
}

/// TT/UT promise bit-identity. RWR reuses a signature while its drift
/// bound stays within `eps`: weights both hold may differ by `eps`, and an
/// entry only one holds must be a near-tie at the other's top-k boundary.
bool SameSignature(const Signature& a, const Signature& b, size_t k,
                   double eps) {
  if (eps == 0.0) return a == b;
  auto ea = a.entries();
  auto eb = b.entries();
  double min_a = std::numeric_limits<double>::infinity();
  double min_b = min_a;
  for (const auto& e : ea) min_a = std::min(min_a, e.weight);
  for (const auto& e : eb) min_b = std::min(min_b, e.weight);
  size_t i = 0, j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j == eb.size() || (i < ea.size() && ea[i].node < eb[j].node)) {
      if (eb.size() < k || ea[i].weight > min_b + eps) return false;
      ++i;
    } else if (i == ea.size() || eb[j].node < ea[i].node) {
      if (ea.size() < k || eb[j].weight > min_a + eps) return false;
      ++j;
    } else {
      if (std::abs(ea[i].weight - eb[j].weight) > eps) return false;
      ++i;
      ++j;
    }
  }
  return true;
}

bool SameMultiusage(const std::vector<MultiusagePair>& a,
                    const std::vector<MultiusagePair>& b, double eps) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].a != b[i].a || a[i].b != b[i].b ||
        std::abs(a[i].distance - b[i].distance) > eps) {
      return false;
    }
  }
  return true;
}

bool SameMasquerade(const MasqueradeDetection& a, const MasqueradeDetection& b,
                    double eps) {
  return std::abs(a.delta - b.delta) <= eps &&
         a.non_suspects == b.non_suspects && a.detected == b.detected;
}

/// Share of signatures equal to at least one other in `sigs`.
double DuplicateShare(const std::vector<Signature>& sigs) {
  if (sigs.empty()) return 0.0;
  std::vector<std::pair<uint64_t, size_t>> keyed;
  keyed.reserve(sigs.size());
  for (size_t i = 0; i < sigs.size(); ++i) {
    uint64_t h = 1469598103934665603ull;
    for (const auto& e : sigs[i].entries()) {
      h = (h ^ e.node) * 1099511628211ull;
      h = (h ^ std::hash<double>()(e.weight)) * 1099511628211ull;
    }
    keyed.emplace_back(h, i);
  }
  std::sort(keyed.begin(), keyed.end());
  std::vector<bool> duplicated(sigs.size(), false);
  for (size_t a = 0; a < keyed.size(); ++a) {
    for (size_t b = a + 1; b < keyed.size() && keyed[b].first == keyed[a].first;
         ++b) {
      if (sigs[keyed[a].second] == sigs[keyed[b].second]) {
        duplicated[keyed[a].second] = true;
        duplicated[keyed[b].second] = true;
      }
    }
  }
  return static_cast<double>(
             std::count(duplicated.begin(), duplicated.end(), true)) /
         static_cast<double>(sigs.size());
}

void CheckEvents(const std::vector<TraceEvent>& events,
                 const Interner& interner, const Reference& ref,
                 CheckTally& tally) {
  const std::vector<uint32_t> gen = GeneratorIds(interner, ref);
  std::unordered_map<uint64_t, double> got;
  got.reserve(ref.weights.size());
  for (const TraceEvent& e : events) {
    const uint32_t src = e.src < gen.size() ? gen[e.src] : kUnknown;
    const uint32_t dst = e.dst < gen.size() ? gen[e.dst] : kUnknown;
    if (src == kUnknown || dst == kUnknown) {
      tally.Expect(false, [] {
        return std::string("ingested event with a label the generator "
                           "never wrote");
      });
      continue;
    }
    got[PackKey(src, dst, e.time / ref.bucket_length)] += e.weight;
  }
  for (const auto& [key, weight] : ref.weights) {
    auto it = got.find(key);
    const double have = it == got.end() ? 0.0 : it->second;
    tally.Expect(have == weight, [&] {
      return "ingested weight " + std::to_string(have) + " != generated " +
             std::to_string(weight);
    });
  }
  for (const auto& [key, weight] : got) {
    if (!ref.weights.contains(key)) {
      tally.Expect(false, [] {
        return std::string("ingested (src, dst, bucket) the generator never "
                           "wrote");
      });
    }
  }
}

void CheckWindows(std::span<const CommGraph> windows, size_t count,
                  const WorkloadSpec& spec, const Interner& interner,
                  const Reference& ref, CheckTally& tally) {
  // Per (src, dst): buckets ascending with running weight sums.
  struct Series {
    std::vector<uint64_t> buckets;
    std::vector<double> prefix;  // prefix[i] = sum of the first i weights
  };
  std::unordered_map<uint64_t, std::vector<std::pair<uint64_t, double>>> raw;
  for (const auto& [key, weight] : ref.weights) {
    raw[key >> 22].emplace_back(key & ((1ull << 22) - 1), weight);
  }
  const uint64_t span = spec.window_length / ref.bucket_length;
  std::unordered_map<uint64_t, Series> series;
  std::vector<int64_t> edge_diff(count + 1, 0);
  for (auto& [pair, entries] : raw) {
    std::sort(entries.begin(), entries.end());
    Series& s = series[pair];
    s.prefix.push_back(0.0);
    // Windows containing bucket b are [b - span + 1, b]; their union over
    // the pair's buckets is where the pair is an edge.
    int64_t open_lo = -1, open_hi = -2;
    for (const auto& [bucket, weight] : entries) {
      s.buckets.push_back(bucket);
      s.prefix.push_back(s.prefix.back() + weight);
      const int64_t lo = std::max<int64_t>(
          0, static_cast<int64_t>(bucket) - static_cast<int64_t>(span) + 1);
      const int64_t hi = std::min<int64_t>(static_cast<int64_t>(bucket),
                                           static_cast<int64_t>(count) - 1);
      if (lo > hi) continue;
      if (lo > open_hi + 1) {
        if (open_hi >= open_lo && open_lo >= 0) {
          ++edge_diff[open_lo];
          --edge_diff[open_hi + 1];
        }
        open_lo = lo;
      }
      open_hi = std::max(open_hi, hi);
    }
    if (open_hi >= open_lo && open_lo >= 0) {
      ++edge_diff[open_lo];
      --edge_diff[open_hi + 1];
    }
  }

  const std::vector<uint32_t> gen = GeneratorIds(interner, ref);
  int64_t expected_edges = 0;
  for (size_t w = 0; w < count && w < windows.size(); ++w) {
    expected_edges += edge_diff[w];
    const CommGraph& g = windows[w];
    tally.Expect(static_cast<int64_t>(g.NumEdges()) == expected_edges, [&] {
      return "window " + std::to_string(w) + " has " +
             std::to_string(g.NumEdges()) + " edges, expected " +
             std::to_string(expected_edges);
    });
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      for (const Edge& e : g.OutEdges(v)) {
        double expected = -1.0;
        if (gen[v] != kUnknown && gen[e.node] != kUnknown) {
          auto it = series.find(PackKey(gen[v], gen[e.node], 0) >> 22);
          if (it != series.end()) {
            const Series& s = it->second;
            auto first = std::lower_bound(s.buckets.begin(), s.buckets.end(),
                                          static_cast<uint64_t>(w));
            auto last = std::lower_bound(s.buckets.begin(), s.buckets.end(),
                                         static_cast<uint64_t>(w) + span);
            expected = s.prefix[last - s.buckets.begin()] -
                       s.prefix[first - s.buckets.begin()];
          }
        }
        tally.Expect(e.weight == expected, [&] {
          return "window " + std::to_string(w) + " edge weight " +
                 std::to_string(e.weight) + " != generated " +
                 std::to_string(expected);
        });
      }
    }
  }
  if (windows.size() < count) {
    tally.Expect(false, [&] {
      return "pipeline built " + std::to_string(windows.size()) +
             " windows, expected at least " + std::to_string(count);
    });
  }
}

}  // namespace

MultiusageDetector MakeMultiusageDetector(SignatureDistance dist) {
  return MultiusageDetector(dist, {.threshold = 0.5, .max_pairs = 50});
}

MasqueradeDetector MakeMasqueradeDetector(SignatureDistance dist) {
  return MasqueradeDetector(dist, {.top_ell = 3, .delta_divisor = 5.0});
}

CheckObserver::CheckObserver(const WorkloadSpec& spec, Scale scale,
                             uint64_t seed)
    : spec_(spec),
      ref_(Generate(spec, scale, seed, nullptr)),
      dist_(DistanceKind::kScaledHellinger) {
  const RwrOptions defaults;
  rwr_epsilon_ = defaults.incremental_max_drift + defaults.tolerance;
}

void CheckObserver::OnIngested(const std::vector<TraceEvent>& events,
                               const Interner& interner) {
  CheckEvents(events, interner, ref_, ingest_);
  // Events per window and windows per event, over the windows run.
  const uint64_t length = spec_.window_length;
  const uint64_t stride = spec_.stride;
  const uint64_t count = spec_.windows;
  std::vector<int64_t> diff(count + 1, 0);
  double landings = 0.0;
  for (const TraceEvent& e : events) {
    const uint64_t hi = e.time / stride;
    const uint64_t lo = e.time < length ? 0 : (e.time - length) / stride + 1;
    if (lo >= count) continue;
    const uint64_t top = std::min<uint64_t>(hi, count - 1);
    landings += static_cast<double>(top - lo + 1);
    ++diff[lo];
    --diff[top + 1];
  }
  windows_per_event_ =
      events.empty() ? 0.0 : landings / static_cast<double>(events.size());
  int64_t running = 0;
  for (size_t w = 0; w < count; ++w) {
    running += diff[w];
    events_per_window_.push_back(static_cast<double>(running));
  }
}

void CheckObserver::OnWindows(
    std::span<const CommGraph> windows, size_t count, const Interner& interner,
    const std::vector<NodeId>& focal,
    const std::vector<const SignatureScheme*>& schemes) {
  CheckWindows(windows, count, spec_, interner, ref_, windows_);
  schemes_ = schemes;
  focal_ = focal;
  prev_scratch_.assign(schemes_.size(), {});
  duplicate_share_sum_.assign(schemes_.size(), 0.0);
  for (size_t w = 0; w < count; ++w) {
    edges_per_window_.push_back(static_cast<double>(windows[w].NumEdges()));
  }
}

void CheckObserver::OnWindow(const CommGraph& g, const WindowOutputs& out) {
  const MultiusageDetector multiusage = MakeMultiusageDetector(dist_);
  const MasqueradeDetector masquerade = MakeMasqueradeDetector(dist_);
  auto where = [&](const std::string& key, const char* what) {
    return "window " + std::to_string(window_) + " " + key + " " + what;
  };
  for (size_t s = 0; s < schemes_.size(); ++s) {
    const std::string& key = spec_.scheme_keys[s];
    const bool rwr = key.starts_with("rwr");
    std::vector<Signature> scratch = schemes_[s]->ComputeAll(g, focal_);
    const std::vector<Signature>& incremental = *out.signatures[s];
    for (size_t i = 0; i < focal_.size(); ++i) {
      outputs_.Expect(i < incremental.size() &&
                          SameSignature(incremental[i], scratch[i], spec_.k,
                                        rwr ? rwr_epsilon_ : 0.0),
                      [&] {
                        return where(key, "signature differs from scratch "
                                          "for focal #") +
                               std::to_string(i);
                      });
    }
    duplicate_share_sum_[s] += DuplicateShare(incremental);

    const double app_eps = rwr ? kRwrDistanceEpsilon : 0.0;
    outputs_.Expect(
        SameMultiusage(out.multiusage[s], multiusage.Detect(focal_, scratch),
                       app_eps),
        [&] { return where(key, "multiusage differs from scratch"); });
    if (window_ > 0) {
      outputs_.Expect(
          SameMasquerade(out.masquerade[s],
                         masquerade.Detect(focal_, prev_scratch_[s], scratch),
                         app_eps),
          [&] { return where(key, "masquerade differs from scratch"); });
    }
    prev_scratch_[s] = std::move(scratch);
  }
  ++window_;
}

std::vector<double> CheckObserver::DuplicateShares() const {
  std::vector<double> shares;
  for (double sum : duplicate_share_sum_) {
    shares.push_back(window_ == 0 ? 0.0 : sum / static_cast<double>(window_));
  }
  return shares;
}

}  // namespace commsig::e2e
