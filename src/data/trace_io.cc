#include "data/trace_io.h"

#include <string>

#include "common/csv.h"

namespace commsig {

Status WriteTraceCsv(const std::vector<TraceEvent>& events,
                     const Interner& interner, const std::string& path) {
  CsvWriter writer(path);
  if (!writer.status().ok()) return writer.status();
  writer.WriteRow({"# commsig-trace src,dst,time,weight"});
  for (const TraceEvent& e : events) {
    writer.WriteRow({interner.LabelOf(e.src), interner.LabelOf(e.dst),
                     std::to_string(e.time), std::to_string(e.weight)});
  }
  return writer.Close();
}

}  // namespace commsig
