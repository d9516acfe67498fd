#ifndef COMMSIG_CORE_SIGNATURE_INDEX_H_
#define COMMSIG_CORE_SIGNATURE_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/interner.h"
#include "core/distance.h"
#include "core/signature.h"

namespace commsig {

/// Postings from each member node to the indexed signatures that hold it,
/// so an all-pairs sweep scores only the pairs that can matter (DESIGN.md
/// §14a). It rests on one fact about every distance kind: two signatures
/// that share no member are at distance exactly 1.0, unless both are empty
/// (0.0). A pair outside `Candidates` therefore has a known value, and only
/// the rest are scored, so every output stays bit-identical to a
/// brute-force sweep (tests/ref/all_pairs.h holds those sweeps).
///
/// Each posting entry also holds the member's weight in that signature, so
/// a row pass scores a probe against all its candidates at once: it walks
/// the probe's members in ascending id, appends the two weights of every
/// shared member to that candidate's match list, and finishes each list
/// with the kernel's own per-kind reduction (`DistanceFinish`). The
/// matches arrive in the order the kernel's merge emits them, so each
/// value is the kernel's double. A pair where either side holds a repeated
/// id runs the kernel itself.
///
/// Memory follows Σ|σ|, not the node universe. The index borrows the
/// signatures: they must outlive it, unmodified.
class SignatureIndex {
 public:
  /// One qualifying pair of `ThresholdJoin`, with i < j.
  struct Pair {
    uint32_t i = 0;
    uint32_t j = 0;
    double distance = 1.0;
  };

  explicit SignatureIndex(std::span<const Signature> sigs);

  size_t size() const { return sigs_.size(); }

  /// Writes to `out`, ascending and once each, every index u >= `first`
  /// whose distance from `probe` is not known to be exactly 1.0: the
  /// signatures that share a member with `probe`, the empty ones when
  /// `probe` is empty, and every non-empty signature whose Σw² lies
  /// outside [2^-511, 2^511], where a weight or norm product could leave
  /// the normal doubles (all u >= `first` for such a probe). Every index
  /// left out is at distance exactly 1.0 from `probe` under every
  /// DistanceKind.
  void Candidates(const Signature& probe, size_t first,
                  std::vector<uint32_t>& out) const;

  /// out[u - first] = dist(probe, sigs[u]) for every u in [first, size()),
  /// bit-identical to calling the kernel on each: one row pass scores the
  /// `Candidates` and every other value is 1.0. Aborts unless
  /// first <= size() and `out.size()` is size() - first. Returns the number
  /// of candidates scored, which it adds to `distance/evaluations`.
  size_t DistanceRow(const Signature& probe, SignatureDistance dist,
                     size_t first, std::span<double> out) const;

  /// Every pair i < j with dist(sigs[i], sigs[j]) <= t, each once, in no
  /// particular order, at the kernel's distance. For t < 1 each signature
  /// marks the candidates found from a prefix of its members (prefix
  /// filtering, DESIGN.md §14a) and a row pass scores only those; at
  /// t >= 1 every pair qualifies, and each i runs a `DistanceRow` over
  /// j > i. A NaN distance never qualifies. `scored`, if given, receives
  /// the number of pairs scored.
  std::vector<Pair> ThresholdJoin(SignatureDistance dist, double t,
                                  size_t* scored = nullptr) const;

 private:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Open-addressed member table: Home is a member's first probe, Intern
  /// finds or adds its slot (0, 1, ... in first-seen order), Find returns
  /// it or kAbsent.
  size_t Home(NodeId member) const;
  uint32_t Intern(NodeId member);
  uint32_t Find(NodeId member) const;

  /// The indices of the signatures that hold `member`, ascending.
  std::span<const uint32_t> Posting(NodeId member) const;

  /// Sets the thread's row scratch to the posting tails (the entries >=
  /// `first`) of `probe`'s members, in ascending member id.
  void FindTails(const Signature& probe, size_t first) const;

  /// `Candidates` in no particular order. Leaves them stamped in the
  /// thread's row scratch, each with the number of `probe`'s posting
  /// tails that name it (its matches, unless `probe` repeats an id), and
  /// the tails there (none for an empty probe).
  void Near(const Signature& probe, size_t first,
            std::vector<uint32_t>& out) const;

  /// Candidates of sigs_[i] among u > i, in no particular order, that can
  /// sit within a share floor `alpha` > 0: the postings of its rarest
  /// members only (see the .cc). Leaves them stamped for `ScoreRow`.
  void PrefixCandidates(size_t i, double alpha, bool by_count,
                        std::vector<uint32_t>& out) const;

  /// The row pass: scores[c] = dist(probe, sigs_[near[c]]), where
  /// `probe_repeats` says that `probe` holds some id twice. With `marked`
  /// false it first sets `near` to `Near(probe, first)`; with `marked`
  /// true, `near` holds what the last `PrefixCandidates` listed, from
  /// index `first` on. Adds near.size() to `distance/evaluations`.
  void ScoreRow(const Signature& probe, bool probe_repeats,
                SignatureDistance dist, size_t first, bool marked,
                std::vector<uint32_t>& near,
                std::vector<double>& scores) const;

  std::span<const Signature> sigs_;
  std::vector<uint8_t> repeats_;  // 1 where sigs_[u] holds an id twice
  std::vector<NodeId> table_ids_;      // member held at each table position
  std::vector<uint32_t> table_slots_;  // its slot + 1; 0 = free position
  int table_shift_ = 0;                // 64 − log2(table size)
  uint32_t members_ = 0;               // distinct members (slots in use)
  std::vector<uint32_t> starts_;    // posting m is [starts_[m], starts_[m+1])
  std::vector<uint32_t> postings_;  // signature indices, ascending per member
  std::vector<double> posting_weights_;  // the member's weight in each
  std::vector<uint32_t> empty_;     // empty signatures, ascending
  std::vector<uint32_t> extreme_;   // Σw² outside [2^-511, 2^511], ascending
  size_t longest_ = 0;              // most entries in one signature
};

}  // namespace commsig

#endif  // COMMSIG_CORE_SIGNATURE_INDEX_H_
