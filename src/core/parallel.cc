#include "core/parallel.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/rwr_batch.h"
#include "obs/obs.h"

namespace commsig {

std::vector<Signature> ComputeAllParallel(const SignatureScheme& scheme,
                                          const CommGraph& g,
                                          std::span<const NodeId> nodes,
                                          size_t threads) {
  COMMSIG_SPAN("signature/compute_all");
  std::vector<Signature> out(nodes.size());
  // Hand each worker a window of sources, not a single node: schemes with a
  // batched ComputeAll (RWR's block power iteration) amortize one graph
  // scan over the whole window, and schemes without one just run their
  // serial loop over the chunk — identical results either way.
  const size_t chunk = RwrBatchEngine::kDefaultBatchWidth;
  const size_t num_chunks = (nodes.size() + chunk - 1) / chunk;
  std::atomic<size_t> next_chunk{0};
  auto work = [&] {
    for (size_t ci = next_chunk.fetch_add(1, std::memory_order_relaxed);
         ci < num_chunks;
         ci = next_chunk.fetch_add(1, std::memory_order_relaxed)) {
      const size_t begin = ci * chunk;
      const size_t count = std::min(chunk, nodes.size() - begin);
      std::vector<Signature> sigs =
          scheme.ComputeAll(g, nodes.subspan(begin, count));
      std::move(sigs.begin(), sigs.end(), out.begin() + begin);
    }
  };
  const size_t workers = std::min(threads, num_chunks);
  std::vector<std::thread> helpers;
  for (size_t w = 1; w < workers; ++w) helpers.emplace_back(work);
  work();
  for (std::thread& t : helpers) t.join();
  return out;
}

}  // namespace commsig
