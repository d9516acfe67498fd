#include "core/signature.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.h"
#include "obs/obs.h"

namespace commsig {

Signature Signature::FromTopK(std::vector<Entry> candidates, size_t k) {
  // Drop non-positive and non-finite weights first; Definition 1 takes
  // weights in R+, and a +Inf weight (e.g. from a corrupted volume) would
  // otherwise outrank every legitimate entry and poison normalization.
  candidates.erase(
      std::remove_if(candidates.begin(), candidates.end(),
                     [](const Entry& e) {
                       return !(e.weight > 0.0) || !std::isfinite(e.weight);
                     }),
      candidates.end());
  COMMSIG_COUNTER_ADD("signature/built", 1);
  COMMSIG_HISTOGRAM_OBSERVE("signature/candidates", candidates.size());

  if (candidates.size() > k) {
    // Rank by (weight desc, node asc) so the cut at k is deterministic.
    auto rank = [](const Entry& a, const Entry& b) {
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.node < b.node;
    };
    std::nth_element(candidates.begin(), candidates.begin() + k,
                     candidates.end(), rank);
    candidates.resize(k);
  }

  std::sort(candidates.begin(), candidates.end(),
            [](const Entry& a, const Entry& b) { return a.node < b.node; });

  Signature sig;
  sig.entries_ = std::move(candidates);
  sig.RecomputeTotal();
  return sig;
}

Signature::TopKSelector::TopKSelector(size_t k) : k_(k) { Reset(); }

namespace {

// Index of the lowest-ranked entry under (weight desc, node asc).
size_t WeakestIndex(const std::vector<Signature::Entry>& best) {
  size_t weakest = 0;
  for (size_t i = 1; i < best.size(); ++i) {
    const Signature::Entry& a = best[i];
    const Signature::Entry& b = best[weakest];
    if (a.weight < b.weight || (a.weight == b.weight && a.node > b.node)) {
      weakest = i;
    }
  }
  return weakest;
}

}  // namespace

void Signature::TopKSelector::Admit(Entry e) {
  if (best_.size() < k_) {
    best_.push_back(e);
    if (best_.size() < k_) return;
  } else {
    best_[weakest_] = e;
  }
  weakest_ = WeakestIndex(best_);
  floor_ = best_[weakest_];
}

Signature Signature::TopKSelector::Take() {
  COMMSIG_COUNTER_ADD("signature/built", 1);
  COMMSIG_HISTOGRAM_OBSERVE("signature/candidates", seen_);
  std::sort(best_.begin(), best_.end(),
            [](const Entry& a, const Entry& b) { return a.node < b.node; });
  Signature sig;
  sig.entries_ = std::move(best_);
  sig.RecomputeTotal();
  Reset();
  return sig;
}

void Signature::TopKSelector::Reset() {
  // Take moves best_ out, so each selection reserves its k slots once.
  best_.clear();
  best_.reserve(k_);
  seen_ = 0;
  weakest_ = 0;
  floor_ = {kInvalidNode,
            k_ == 0 ? std::numeric_limits<double>::infinity() : 0.0};
}

double Signature::WeightOf(NodeId node) const {
  auto it = std::lower_bound(
      entries_.begin(), entries_.end(), node,
      [](const Entry& e, NodeId id) { return e.node < id; });
  if (it != entries_.end() && it->node == node) return it->weight;
  return 0.0;
}

void Signature::RecomputeTotal() {
  const size_t n = entries_.size();
  packed_ids_.resize(n);
  packed_weights_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    packed_ids_[i] = entries_[i].node;
    packed_weights_[i] = entries_[i].weight;
  }
  // Σw and Σw² must use the same canonical 4-lane accumulation order as the
  // packed distance kernels (distance.cc AccumulateMatches): when two
  // identical signatures intersect, the kernel's numerator sums exactly these
  // weights in exactly this order, and identity distances come out as an
  // exact 0 only if the cached totals match that sum bit-for-bit.
  const double* w = packed_weights_.data();
  simd::VecD total_acc = simd::Zero();
  simd::VecD sq_acc = simd::Zero();
  size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    const simd::VecD v = simd::LoadU(w + i);
    total_acc = simd::Add(total_acc, v);
    sq_acc = simd::Add(sq_acc, simd::Mul(v, v));
  }
  double total = simd::ReduceAdd(total_acc);
  double squares = simd::ReduceAdd(sq_acc);
  for (; i < n; ++i) {
    total += w[i];
    squares += w[i] * w[i];
  }
  total_weight_ = total;
  sum_squares_ = squares;
}

Signature Signature::Normalized() const {
  Signature out = *this;
  double total = TotalWeight();
  if (total > 0.0) {
    for (Entry& e : out.entries_) e.weight /= total;
  }
  out.RecomputeTotal();
  return out;
}

std::string Signature::ToString(const Interner& interner) const {
  std::vector<Entry> by_weight(entries_.begin(), entries_.end());
  std::sort(by_weight.begin(), by_weight.end(),
            [](const Entry& a, const Entry& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              return a.node < b.node;
            });
  std::string out = "{";
  for (size_t i = 0; i < by_weight.size(); ++i) {
    if (i > 0) out += ", ";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4g", by_weight[i].weight);
    out += interner.LabelOf(by_weight[i].node);
    out += ":";
    out += buf;
  }
  out += "}";
  return out;
}

}  // namespace commsig
