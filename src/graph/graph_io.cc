#include "graph/graph_io.h"

#include <string>

#include "common/csv.h"

namespace commsig {

Status WriteEdgeListCsv(const CommGraph& g, const Interner& interner,
                        const std::string& path) {
  CsvWriter writer(path);
  if (!writer.status().ok()) return writer.status();
  // Header comment is informational; readers skip '#' lines.
  writer.WriteRow({"# commsig-graph nodes=" + std::to_string(g.NumNodes()) +
                   " left=" + std::to_string(g.bipartite().left_size)});
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    for (const Edge& e : g.OutEdges(v)) {
      writer.WriteRow({interner.LabelOf(v), interner.LabelOf(e.node),
                       std::to_string(e.weight)});
    }
  }
  return writer.Close();
}

}  // namespace commsig
