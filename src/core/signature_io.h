#ifndef COMMSIG_CORE_SIGNATURE_IO_H_
#define COMMSIG_CORE_SIGNATURE_IO_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "core/signature.h"

namespace commsig {

/// A set of signatures keyed by their owner node — the unit a production
/// deployment persists between observation windows (COI-style profile
/// store: compute this week's signatures, save, load next week to compare).
struct SignatureSet {
  std::vector<NodeId> owners;
  std::vector<Signature> signatures;  // index-aligned with owners

  size_t size() const { return owners.size(); }

  /// Index of an owner, or SIZE_MAX if absent. O(n).
  size_t Find(NodeId owner) const;
};

/// Writes a signature set as CSV rows `owner_label,member_label,weight`
/// (one row per signature entry; owners with empty signatures are written
/// as a single `owner_label,,0` marker row so they round-trip). Read it back
/// with ingest::ReadSignatureSetPipelined.
Status WriteSignatureSetCsv(const SignatureSet& set, const Interner& interner,
                            const std::string& path);

}  // namespace commsig

#endif  // COMMSIG_CORE_SIGNATURE_IO_H_
