#ifndef COMMSIG_GRAPH_GRAPH_IO_H_
#define COMMSIG_GRAPH_GRAPH_IO_H_

#include <string>

#include "common/interner.h"
#include "common/status.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Writes `g` as an edge-list CSV: one `src_label,dst_label,weight` row per
/// edge, where labels come from `interner`. A `# commsig-graph` header
/// comment records node count and bipartite split. Read it back with
/// ingest::ReadEdgeListPipelined.
Status WriteEdgeListCsv(const CommGraph& g, const Interner& interner,
                        const std::string& path);

}  // namespace commsig

#endif  // COMMSIG_GRAPH_GRAPH_IO_H_
