#include "core/parallel.h"

#include "core/rwr_batch.h"
#include "obs/obs.h"

namespace commsig {

std::vector<Signature> ComputeAllParallel(const SignatureScheme& scheme,
                                          const CommGraph& g,
                                          std::span<const NodeId> nodes,
                                          ThreadPool& pool) {
  COMMSIG_SPAN("signature/compute_all");
  std::vector<Signature> out(nodes.size());
  if (nodes.empty()) return out;
  // Hand each worker a window of sources, not a single node: schemes with a
  // batched ComputeAll (RWR's block power iteration) amortize one graph
  // scan over the whole window, and schemes without one just run their
  // serial loop over the chunk — identical results either way.
  const size_t chunk = RwrBatchEngine::kDefaultBatchWidth;
  const size_t num_chunks = (nodes.size() + chunk - 1) / chunk;
  ParallelFor(pool, num_chunks, [&](size_t ci) {
    const size_t begin = ci * chunk;
    const size_t count = std::min(chunk, nodes.size() - begin);
    std::vector<Signature> sigs =
        scheme.ComputeAll(g, nodes.subspan(begin, count));
    for (size_t j = 0; j < count; ++j) out[begin + j] = std::move(sigs[j]);
  });
  return out;
}

}  // namespace commsig
