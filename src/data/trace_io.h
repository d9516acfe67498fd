#ifndef COMMSIG_DATA_TRACE_IO_H_
#define COMMSIG_DATA_TRACE_IO_H_

#include <string>
#include <vector>

#include "common/interner.h"
#include "common/status.h"
#include "graph/windower.h"

namespace commsig {

/// Writes a trace as CSV rows `src_label,dst_label,time,weight` — the
/// interchange format for loading real NetFlow-style or query-log data into
/// commsig. Read it back with ingest::ReadTraceEventsPipelined
/// (PipelineFormat::kTraceCsv).
Status WriteTraceCsv(const std::vector<TraceEvent>& events,
                     const Interner& interner, const std::string& path);

}  // namespace commsig

#endif  // COMMSIG_DATA_TRACE_IO_H_
