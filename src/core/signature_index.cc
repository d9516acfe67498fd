#include "core/signature_index.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "common/check.h"
#include "obs/obs.h"

namespace commsig {

namespace {

// Norm range of a "plain" signature. Between two plain signatures no
// weight or norm product leaves the normal doubles: every weight is at most
// 2^255.5, so a product of two is at most 2^511, and the cosine norm
// product sqrt(Σa²·Σb²) lies in [2^-511, 2^511]. Outside it a product can
// overflow (SHel's sqrt(wa·wb) turns inf and the pair scores 0.0) or the
// norm product underflow (0/0 is NaN, not 1.0). A non-empty signature
// outside the range is a candidate of every probe, so the kernel decides
// its pairs; no real scheme comes near it (weights under ~1e-77 or over
// ~1e77).
constexpr double kMinSumSquares = 0x1p-511;
constexpr double kMaxSumSquares = 0x1p511;

// Rounding slack on a share floor, as a fraction of a signature's weight.
// The floors below are exact-arithmetic bounds; the kernels round. Every
// sum a kernel or the prefix below takes adds at most L + 4 positive terms
// (L: the index's longest signature), so it is off by a relative
// (L + 4)·2^-53, and Σ∪max, a difference of such sums, by at most three
// times that. Through the ratio, its two last roundings, SHel's square and
// the prefix sum, a computed Dist <= t implies an exact shared share of at
// least α − (9L + 46)·2^-53: under 1e-10 at L <= kMaxPrefixSize, so
// lowering α by 1e-9 never drops a pair whose computed distance is <= t.
// Between plain signatures an underflowing product only shrinks a term, or
// grows it by under 2^-537, negligible next to weights whose squares sum to
// at least 2^-511. An index with a longer signature probes every member.
constexpr double kShareSlack = 1e-9;
constexpr size_t kMaxPrefixSize = size_t{1} << 16;

// The share α of its own weight (its entry count, for Jaccard) that each
// side of a pair with Dist <= t < 1 must hold in members the other side
// also holds; 0 where the kind puts no floor on one side.
//  * SDice: Σ∩min >= (1−t)·Σ∪max >= (1−t)·W, and Σ∩min is at most the
//    shared weight.
//  * SHel: Cauchy–Schwarz gives Σ∩sqrt(wa·wb) <= sqrt(S_a·W_b), and
//    Σ∪max >= sqrt(W_a·W_b), so (1−t)² <= S_a / W_a.
//  * Jaccard: |∩| >= (1−t)·|∪| >= (1−t)·|σ|.
// Dice can pair a light signature with a heavy one it sits inside, and
// Cosine and Overlap are scale- or length-blind, so those take α = 0: any
// shared member.
double ShareFloor(DistanceKind kind, double t) {
  switch (kind) {
    case DistanceKind::kJaccard:
    case DistanceKind::kScaledDice:
      return 1.0 - t;
    case DistanceKind::kScaledHellinger:
      return (1.0 - t) * (1.0 - t);
    case DistanceKind::kDice:
    case DistanceKind::kCosine:
    case DistanceKind::kOverlap:
      return 0.0;
  }
  return 0.0;
}

bool Plain(const Signature& s) {
  return s.SumSquares() >= kMinSumSquares && s.SumSquares() <= kMaxSumSquares;
}

/// Per-thread scratch of the gathers and the row pass. A stamp per
/// signature index marks the ones the current pass has taken, so a pass
/// costs the postings it reads rather than a clear or a sort of them, and a
/// new pass starts by bumping `now` instead of clearing the stamps. A
/// candidate u of the row pass keeps its match list in [begin[u], end[u])
/// of `x` (the probe's weights) and `y` (u's), so the lists grow with the
/// row's matches.
struct RowScratch {
  /// The entries [lo, hi) of one posting that lie at or past `first`, and
  /// the probe's weight on that member.
  struct Tail {
    size_t lo;
    size_t hi;
    double weight;
  };
  std::vector<uint64_t> stamp;
  uint64_t now = 0;
  std::vector<uint32_t> begin, end;
  std::vector<double> x, y;
  std::vector<Tail> tails;
  std::vector<uint32_t> near;   // DistanceRow's candidates
  std::vector<double> scores;   // and their distances
};

RowScratch& LocalScratch(size_t n) {
  thread_local RowScratch scratch;
  if (scratch.stamp.size() < n) {
    scratch.stamp.resize(n, 0);
    scratch.begin.resize(n);
    scratch.end.resize(n);
  }
  return scratch;
}

/// Lists signature indices once each, in first-seen order, and leaves them
/// stamped with the scratch's current stamp, each at zero matches.
class Gatherer {
 public:
  Gatherer(size_t n, std::vector<uint32_t>& out)
      : scratch_(LocalScratch(n)), out_(out) {
    now_ = ++scratch_.now;
    out_.clear();
  }

  /// Lists `u` unless it is listed already.
  void Take(uint32_t u) {
    if (scratch_.stamp[u] == now_) return;
    scratch_.stamp[u] = now_;
    scratch_.end[u] = 0;
    out_.push_back(u);
  }

  /// Takes the entries of `ids` (ascending) that are >= `first`.
  void Add(std::span<const uint32_t> ids, size_t first) {
    for (auto it = std::lower_bound(ids.begin(), ids.end(), first);
         it != ids.end(); ++it) {
      Take(*it);
    }
  }

 private:
  RowScratch& scratch_;
  std::vector<uint32_t>& out_;
  uint64_t now_ = 0;
};

/// True when `s` holds some id twice (its packed ids are ascending).
bool RepeatsId(const Signature& s) {
  const Signature::PackedView p = s.packed();
  return std::adjacent_find(p.ids, p.ids + p.size) != p.ids + p.size;
}

}  // namespace

SignatureIndex::SignatureIndex(std::span<const Signature> sigs)
    : sigs_(sigs) {
  assert(sigs.size() < (uint64_t{1} << 32));
  size_t entries = 0;
  for (const Signature& s : sigs) entries += s.size();
  size_t capacity = 16;
  while (capacity < 2 * entries) capacity <<= 1;
  table_ids_.assign(capacity, 0);
  table_slots_.assign(capacity, 0);
  table_shift_ = 64 - std::countr_zero(capacity);

  // Two passes in signature order: count each member's signatures, then
  // fill its posting, so every posting comes out ascending. `last` keeps a
  // repeated id from listing its signature twice, and flags the signature.
  repeats_.assign(sigs.size(), 0);
  std::vector<uint32_t> count, last;
  for (size_t i = 0; i < sigs.size(); ++i) {
    const Signature& s = sigs[i];
    if (s.empty()) {
      empty_.push_back(static_cast<uint32_t>(i));
      continue;
    }
    if (!Plain(s)) extreme_.push_back(static_cast<uint32_t>(i));
    longest_ = std::max(longest_, s.size());
    const Signature::PackedView p = s.packed();
    for (size_t e = 0; e < p.size; ++e) {
      const uint32_t m = Intern(p.ids[e]);
      if (m == count.size()) {
        count.push_back(0);
        last.push_back(0);
      }
      if (last[m] == i + 1) {
        repeats_[i] = 1;
        continue;
      }
      last[m] = static_cast<uint32_t>(i + 1);
      ++count[m];
    }
  }
  starts_.assign(count.size() + 1, 0);
  for (size_t m = 0; m < count.size(); ++m) {
    starts_[m + 1] = starts_[m] + count[m];
  }
  postings_.resize(starts_.back());
  posting_weights_.resize(starts_.back());
  std::vector<uint32_t> next(starts_.begin(), starts_.end() - 1);
  std::fill(last.begin(), last.end(), 0);
  for (size_t i = 0; i < sigs.size(); ++i) {
    const Signature::PackedView p = sigs[i].packed();
    for (size_t e = 0; e < p.size; ++e) {
      const uint32_t m = Find(p.ids[e]);
      if (last[m] == i + 1) continue;
      last[m] = static_cast<uint32_t>(i + 1);
      posting_weights_[next[m]] = p.weights[e];
      postings_[next[m]++] = static_cast<uint32_t>(i);
    }
  }
}

size_t SignatureIndex::Home(NodeId member) const {
  return static_cast<size_t>((uint64_t{member} * 0x9E3779B97F4A7C15ull) >>
                             table_shift_);
}

uint32_t SignatureIndex::Intern(NodeId member) {
  const size_t mask = table_ids_.size() - 1;
  for (size_t h = Home(member);; h = (h + 1) & mask) {
    if (table_slots_[h] == 0) {
      table_ids_[h] = member;
      table_slots_[h] = ++members_;
      return members_ - 1;
    }
    if (table_ids_[h] == member) return table_slots_[h] - 1;
  }
}

uint32_t SignatureIndex::Find(NodeId member) const {
  const size_t mask = table_ids_.size() - 1;
  for (size_t h = Home(member);; h = (h + 1) & mask) {
    if (table_slots_[h] == 0) return kAbsent;
    if (table_ids_[h] == member) return table_slots_[h] - 1;
  }
}

std::span<const uint32_t> SignatureIndex::Posting(NodeId member) const {
  const uint32_t m = Find(member);
  if (m == kAbsent) return {};
  return std::span<const uint32_t>(postings_).subspan(
      starts_[m], starts_[m + 1] - starts_[m]);
}

void SignatureIndex::FindTails(const Signature& probe, size_t first) const {
  RowScratch& s = LocalScratch(sigs_.size());
  s.tails.clear();
  const Signature::PackedView p = probe.packed();
  for (size_t e = 0; e < p.size; ++e) {
    const uint32_t m = Find(p.ids[e]);
    if (m == kAbsent) continue;
    const auto begin = postings_.begin();
    const auto lo =
        std::lower_bound(begin + starts_[m], begin + starts_[m + 1], first);
    s.tails.push_back({static_cast<size_t>(lo - begin), starts_[m + 1],
                       p.weights[e]});
  }
}

void SignatureIndex::Near(const Signature& probe, size_t first,
                          std::vector<uint32_t>& out) const {
  Gatherer gather(sigs_.size(), out);
  RowScratch& s = LocalScratch(sigs_.size());
  s.tails.clear();
  if (first >= sigs_.size()) return;
  if (probe.empty()) {
    gather.Add(empty_, first);
    return;
  }
  if (Plain(probe)) {
    gather.Add(extreme_, first);
  } else {
    for (size_t u = first; u < sigs_.size(); ++u) {
      gather.Take(static_cast<uint32_t>(u));
    }
  }
  FindTails(probe, first);
  for (const RowScratch::Tail& t : s.tails) {
    for (size_t k = t.lo; k < t.hi; ++k) {
      gather.Take(postings_[k]);
      ++s.end[postings_[k]];
    }
  }
}

void SignatureIndex::Candidates(const Signature& probe, size_t first,
                                std::vector<uint32_t>& out) const {
  Near(probe, first, out);
  std::sort(out.begin(), out.end());
}

size_t SignatureIndex::DistanceRow(const Signature& probe,
                                   SignatureDistance dist, size_t first,
                                   std::span<double> out) const {
  COMMSIG_CHECK(first <= sigs_.size() && out.size() == sigs_.size() - first,
                "DistanceRow needs first <= size() and a row of size() - "
                "first values");
  std::fill(out.begin(), out.end(), 1.0);
  RowScratch& scratch = LocalScratch(sigs_.size());
  ScoreRow(probe, RepeatsId(probe), dist, first, /*marked=*/false,
           scratch.near, scratch.scores);
  for (size_t c = 0; c < scratch.near.size(); ++c) {
    out[scratch.near[c] - first] = scratch.scores[c];
  }
  return scratch.near.size();
}

// The row pass (DESIGN.md §14a). Walking the probe's members in ascending
// id and appending each shared member's two weights to its candidate's
// list hands every candidate its matches in the order the kernel's merge
// emits them, so the kernel's own finish returns the kernel's double. Two
// walks over the posting tails: one counts each candidate's matches (the
// one `Near` lists them in, unless a prefix listed them), so the lists
// can lie back to back, and one fills them. The merge pairs a repeated id
// greedily, occurrence by occurrence, which a posting that lists its
// signature once cannot do, so such pairs run the kernel.
void SignatureIndex::ScoreRow(const Signature& probe, bool probe_repeats,
                              SignatureDistance dist, size_t first,
                              bool marked, std::vector<uint32_t>& near,
                              std::vector<double>& scores) const {
  if (!marked) Near(probe, first, near);
  COMMSIG_COUNTER_ADD("distance/evaluations", near.size());
  scores.resize(near.size());
  const DistanceKernelFn kernel = DistanceKernel(dist.kind());
  if (probe_repeats) {
    for (size_t c = 0; c < near.size(); ++c) {
      scores[c] = kernel(probe, sigs_[near[c]]);
    }
    return;
  }
  RowScratch& s = LocalScratch(sigs_.size());
  const uint64_t now = s.now;
  if (marked) {
    // The prefix listed the candidates at zero matches. An index it did
    // not list counts too; its count is never read.
    FindTails(probe, first);
    for (const RowScratch::Tail& t : s.tails) {
      for (size_t k = t.lo; k < t.hi; ++k) ++s.end[postings_[k]];
    }
  }
  uint32_t total = 0;
  for (uint32_t u : near) {
    s.begin[u] = total;
    total += s.end[u];
    s.end[u] = s.begin[u];
  }
  if (s.x.size() < total) {
    s.x.resize(total);
    s.y.resize(total);
  }

  // Fill, member by member in ascending id.
  for (const RowScratch::Tail& t : s.tails) {
    for (size_t k = t.lo; k < t.hi; ++k) {
      const uint32_t u = postings_[k];
      if (s.stamp[u] != now) continue;
      s.x[s.end[u]] = t.weight;
      s.y[s.end[u]++] = posting_weights_[k];
    }
  }

  const DistanceFinishFn finish = DistanceFinish(dist.kind());
  for (size_t c = 0; c < near.size(); ++c) {
    const uint32_t u = near[c];
    scores[c] = repeats_[u] != 0
                    ? kernel(probe, sigs_[u])
                    : finish(probe.packed(), sigs_[u].packed(),
                             s.x.data() + s.begin[u], s.y.data() + s.begin[u],
                             s.end[u] - s.begin[u]);
  }
}

// Prefix filtering (Bayardo, Ma & Srikant, WWW 2007). Take σ_i's members
// rarest first (shortest posting) until their weight exceeds (1 − α)·W;
// the members left over weigh less than α·W. A partner j within the floor
// shares at least α·W of σ_i's weight, so it must hold one of the taken
// members, and probing their full postings finds every such j. One side's
// prefix suffices: pair (i, j) is found from i's. Repeated ids count as
// separate entries, which the argument allows.
void SignatureIndex::PrefixCandidates(size_t i, double alpha, bool by_count,
                                      std::vector<uint32_t>& out) const {
  const Signature& s = sigs_[i];
  const Signature::PackedView p = s.packed();
  struct Member {
    std::span<const uint32_t> posting;
    NodeId id;
    double weight;
  };
  thread_local std::vector<Member> order;
  order.clear();
  for (size_t e = 0; e < p.size; ++e) {
    order.push_back({Posting(p.ids[e]), p.ids[e], p.weights[e]});
  }
  std::sort(order.begin(), order.end(), [](const Member& a, const Member& b) {
    if (a.posting.size() != b.posting.size()) {
      return a.posting.size() < b.posting.size();
    }
    return a.id < b.id;
  });
  const double total =
      by_count ? static_cast<double>(p.size) : p.total_weight;
  const double bound = (1.0 - alpha) * total;
  Gatherer gather(sigs_.size(), out);
  double taken = 0.0;
  for (const Member& m : order) {
    gather.Add(m.posting, i + 1);
    taken += by_count ? 1.0 : m.weight;
    if (taken > bound) break;
  }
  gather.Add(extreme_, i + 1);
}

std::vector<SignatureIndex::Pair> SignatureIndex::ThresholdJoin(
    SignatureDistance dist, double t, size_t* scored) const {
  std::vector<Pair> pairs;
  size_t calls = 0;
  const size_t n = sigs_.size();
  // A negative or NaN t takes neither branch: no distance is below 0, and
  // nothing compares <= NaN.
  if (t >= 1.0) {
    std::vector<double> row;
    for (size_t i = 0; i < n; ++i) {
      row.resize(n - i - 1);
      calls += DistanceRow(sigs_[i], dist, i + 1, row);
      for (size_t j = i + 1; j < n; ++j) {
        const double d = row[j - i - 1];
        if (d <= t) {
          pairs.push_back(
              {static_cast<uint32_t>(i), static_cast<uint32_t>(j), d});
        }
      }
    }
  } else if (t >= 0.0) {
    const double alpha = longest_ <= kMaxPrefixSize
                             ? ShareFloor(dist.kind(), t) - kShareSlack
                             : 0.0;
    const bool by_count = dist.kind() == DistanceKind::kJaccard;
    std::vector<uint32_t> near;
    std::vector<double> scores;
    for (size_t i = 0; i < n; ++i) {
      const Signature& s = sigs_[i];
      const bool prefix = alpha > 0.0 && !s.empty() && Plain(s);
      if (prefix) PrefixCandidates(i, alpha, by_count, near);
      ScoreRow(s, repeats_[i] != 0, dist, i + 1, /*marked=*/prefix, near,
               scores);
      calls += near.size();
      for (size_t c = 0; c < near.size(); ++c) {
        if (scores[c] <= t) {
          pairs.push_back({static_cast<uint32_t>(i), near[c], scores[c]});
        }
      }
    }
  }
  if (scored != nullptr) *scored = calls;
  return pairs;
}

}  // namespace commsig
