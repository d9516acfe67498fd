#include "core/signature_io.h"

#include <limits>
#include <string>

#include "common/csv.h"

namespace commsig {

size_t SignatureSet::Find(NodeId owner) const {
  for (size_t i = 0; i < owners.size(); ++i) {
    if (owners[i] == owner) return i;
  }
  return std::numeric_limits<size_t>::max();
}

Status WriteSignatureSetCsv(const SignatureSet& set, const Interner& interner,
                            const std::string& path) {
  if (set.owners.size() != set.signatures.size()) {
    return Status::InvalidArgument("owners/signatures size mismatch");
  }
  CsvWriter writer(path);
  if (!writer.status().ok()) return writer.status();
  writer.WriteRow({"# commsig-signatures owner,member,weight"});
  for (size_t i = 0; i < set.owners.size(); ++i) {
    const std::string& owner = interner.LabelOf(set.owners[i]);
    if (set.signatures[i].empty()) {
      writer.WriteRow({owner, "", "0"});
      continue;
    }
    for (const Signature::Entry& e : set.signatures[i].entries()) {
      writer.WriteRow(
          {owner, interner.LabelOf(e.node), std::to_string(e.weight)});
    }
  }
  return writer.Close();
}

}  // namespace commsig
