// Anonymization audit: quantify how re-identifiable an "anonymized" data
// release is. Week 1 is observed with true labels and the signature
// profiles are persisted to disk (the adversary's side information); week
// 2 is released under fresh pseudonyms. The attack reloads the stored
// profiles and matches them against the released graph with the Hungarian
// assignment.
//
//   $ ./build/examples/anonymization_audit

#include <cstdio>
#include <filesystem>

#include "apps/deanonymizer.h"
#include "core/scheme.h"
#include "core/signature_io.h"
#include "data/flow_generator.h"
#include "ingest/pipeline.h"

using namespace commsig;

int main() {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 150;
  cfg.num_external_hosts = 8000;
  cfg.num_windows = 2;
  cfg.seed = 2718;
  FlowDataset flows = FlowTraceGenerator(cfg).Generate();
  auto windows = flows.Windows();

  auto scheme = *CreateScheme(
      "tt", {.k = 10, .restrict_to_opposite_partition = true});

  // --- Week 1: profile and persist. ------------------------------------
  SignatureSet profiles;
  profiles.owners = flows.local_hosts;
  profiles.signatures = scheme->ComputeAll(windows[0], flows.local_hosts);
  const std::string store =
      (std::filesystem::temp_directory_path() / "commsig_profiles.csv")
          .string();
  if (Status s = WriteSignatureSetCsv(profiles, flows.interner, store);
      !s.ok()) {
    std::fprintf(stderr, "cannot persist profiles: %s\n",
                 s.ToString().c_str());
    return 1;
  }
  std::printf("persisted %zu signature profiles to %s\n", profiles.size(),
              store.c_str());

  // --- Week 2 is "anonymized" and released. ----------------------------
  AnonymizationPlan plan = PlanAnonymization(flows.local_hosts, /*seed=*/9);
  CommGraph released = Anonymize(windows[1], plan);

  // --- The attack: reload profiles, match against the release. ---------
  Interner attacker_view = flows.interner;  // labels are public metadata
  auto loaded = ingest::ReadSignatureSetPipelined(store, attacker_view, {});
  if (!loaded.ok()) {
    std::fprintf(stderr, "cannot reload profiles: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  auto anonymous = scheme->ComputeAll(released, flows.local_hosts);

  for (auto mode : {Deanonymizer::AssignmentMode::kGreedy,
                    Deanonymizer::AssignmentMode::kOptimal}) {
    Deanonymizer attacker(SignatureDistance(DistanceKind::kScaledHellinger),
                          {.one_to_one = true, .assignment = mode});
    auto ids = attacker.Identify(loaded->owners, loaded->signatures,
                                 flows.local_hosts, anonymous);
    double accuracy = DeanonymizationAccuracy(ids, plan);
    std::printf(
        "%-18s re-identified %.1f%% of hosts (random guessing: %.1f%%)\n",
        mode == Deanonymizer::AssignmentMode::kGreedy ? "greedy match:"
                                                      : "Hungarian match:",
        accuracy * 100.0, 100.0 / static_cast<double>(plan.pool.size()));
    if (mode == Deanonymizer::AssignmentMode::kOptimal) {
      std::printf("\nmost confident re-identifications:\n");
      for (size_t i = 0; i < std::min<size_t>(ids.size(), 5); ++i) {
        std::printf("  %s was released as %s (distance %.3f)%s\n",
                    flows.interner.LabelOf(ids[i].original).c_str(),
                    flows.interner.LabelOf(ids[i].pseudonym).c_str(),
                    ids[i].distance,
                    [&] {
                      for (size_t p = 0; p < plan.pool.size(); ++p) {
                        if (plan.pool[p] == ids[i].original &&
                            plan.pseudonym_of[p] == ids[i].pseudonym) {
                          return "  [correct]";
                        }
                      }
                      return "  [wrong]";
                    }());
      }
    }
  }
  std::filesystem::remove(store);
  return 0;
}
