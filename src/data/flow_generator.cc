#include "data/flow_generator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <unordered_set>

#include "common/random.h"
#include "data/zipf.h"
#include "graph/graph_builder.h"

namespace commsig {

std::vector<CommGraph> FlowDataset::Windows() const {
  TraceWindower windower(interner.size(), window_length, /*start_time=*/0,
                         static_cast<NodeId>(local_hosts.size()));
  std::vector<CommGraph> graphs = windower.Split(events);
  // Trailing silent windows still belong to the data set: pad with empty
  // graphs over the same universe.
  while (graphs.size() < num_windows) {
    GraphBuilder builder(interner.size());
    builder.SetBipartiteLeftSize(static_cast<NodeId>(local_hosts.size()));
    graphs.push_back(std::move(builder).Build());
  }
  return graphs;
}

namespace {

/// Which sub-population a profile destination was drawn from. Churn
/// replaces an entry with a fresh one of the same category, so community
/// membership is stable even as individual picks rotate.
enum class Category { kPopular, kCommunity, kTail };

/// A destination with its per-window session rate.
struct ProfileEntry {
  NodeId dest;
  double rate;
  Category category;
};

}  // namespace

FlowDataset FlowTraceGenerator::Generate() const {
  const FlowGeneratorConfig& cfg = config_;
  assert(cfg.num_local_hosts >= 2);
  assert(cfg.num_external_hosts > cfg.num_popular_services);
  assert(cfg.num_windows >= 1);

  Rng rng(cfg.seed);
  FlowDataset ds;
  ds.num_windows = cfg.num_windows;
  ds.window_length = cfg.window_length;

  // Node universe: local hosts first (V1), then externals (V2).
  for (size_t i = 0; i < cfg.num_local_hosts; ++i) {
    ds.local_hosts.push_back(
        ds.interner.Intern("10.0." + std::to_string(i / 256) + "." +
                           std::to_string(i % 256)));
  }
  std::vector<NodeId> externals;
  externals.reserve(cfg.num_external_hosts);
  for (size_t i = 0; i < cfg.num_external_hosts; ++i) {
    externals.push_back(ds.interner.Intern("ext-" + std::to_string(i)));
  }

  // External popularity: Zipf over all externals; the first
  // num_popular_services ranks are the universally popular head.
  ZipfSampler popularity(cfg.num_external_hosts, cfg.zipf_exponent);
  ZipfSampler head(cfg.num_popular_services, cfg.zipf_exponent);
  // Long tail: uniform over non-head externals; tail destinations are the
  // user-specific, discriminating part of a profile.
  const size_t tail_size = cfg.num_external_hosts - cfg.num_popular_services;

  auto sample_popular = [&](Rng& r) {
    return externals[head.Sample(r)];
  };
  auto sample_tail = [&](Rng& r) {
    return externals[cfg.num_popular_services + r.UniformInt(tail_size)];
  };
  auto sample_any = [&](Rng& r) {
    return externals[popularity.Sample(r)];
  };

  // Interest-group pools: tail destinations shared by group members.
  std::vector<std::vector<NodeId>> group_pool(cfg.num_interest_groups);
  for (auto& pool : group_pool) {
    std::unordered_set<NodeId> used;
    while (pool.size() < cfg.group_pool_size) {
      NodeId dest = sample_tail(rng);
      if (used.insert(dest).second) pool.push_back(dest);
    }
  }

  // --- Assign local hosts to users (multiusage ground truth). ----------
  std::vector<NodeId> unassigned = ds.local_hosts;
  rng.Shuffle(unassigned);
  uint32_t next_user = 0;
  size_t cursor = 0;
  ds.user_of_host.assign(cfg.num_local_hosts, 0);
  while (cursor < unassigned.size()) {
    uint32_t user = next_user++;
    size_t ips = 1;
    if (rng.Bernoulli(cfg.multi_ip_user_fraction) &&
        unassigned.size() - cursor >= 2) {
      ips = 2 + rng.UniformInt(std::max<size_t>(cfg.max_ips_per_user, 2) - 1);
      ips = std::min(ips, unassigned.size() - cursor);
    }
    for (size_t i = 0; i < ips; ++i) {
      NodeId host = unassigned[cursor++];
      ds.user_of_host[host] = user;
      ds.hosts_of_user[user].push_back(host);
    }
  }
  const uint32_t num_users = next_user;

  // --- Per-user profiles. ----------------------------------------------
  // Each user joins a distinctive combination of interest groups;
  // profiles mix popular services, group destinations, and the tail.
  std::vector<std::vector<uint32_t>> groups_of_user(num_users);
  for (uint32_t u = 0; u < num_users; ++u) {
    std::unordered_set<uint32_t> chosen;
    const size_t want =
        std::min(std::max<size_t>(cfg.groups_per_user, 1),
                 cfg.num_interest_groups);
    while (chosen.size() < want) {
      chosen.insert(static_cast<uint32_t>(
          rng.UniformInt(cfg.num_interest_groups)));
    }
    groups_of_user[u].assign(chosen.begin(), chosen.end());
    // `chosen` iterates in hash order, which libstdc++/libc++ lay out
    // differently; the group list indexes into rng draws, so an unsorted
    // copy would make the seeded dataset differ across standard libraries.
    std::sort(groups_of_user[u].begin(), groups_of_user[u].end());
  }

  auto fresh_entry = [&](uint32_t user, Category category,
                         Rng& r) -> ProfileEntry {
    NodeId dest = 0;  // all enumerators assign; init placates -Wmaybe-uninitialized
    switch (category) {
      case Category::kPopular:
        dest = sample_popular(r);
        break;
      case Category::kCommunity: {
        const auto& groups = groups_of_user[user];
        const auto& pool = group_pool[groups[r.UniformInt(groups.size())]];
        dest = pool[r.UniformInt(pool.size())];
        break;
      }
      case Category::kTail:
        dest = sample_tail(r);
        break;
    }
    // Exponential rate around the mean; popular services carry ~3x the
    // traffic of tail destinations.
    double rate = -cfg.mean_sessions * std::log(1.0 - r.UniformDouble() +
                                                1e-12);
    if (category == Category::kPopular) rate *= cfg.popular_rate_boost;
    if (category == Category::kTail) rate *= cfg.tail_rate_factor;
    rate = std::max(rate, 1.0);
    return {dest, rate, category};
  };

  auto fresh_category = [&](Rng& r) -> Category {
    double roll = r.UniformDouble();
    if (roll < cfg.popular_fraction) return Category::kPopular;
    if (roll < cfg.popular_fraction + cfg.community_fraction) {
      return Category::kCommunity;
    }
    return Category::kTail;
  };

  std::vector<std::vector<ProfileEntry>> profile(num_users);
  for (uint32_t u = 0; u < num_users; ++u) {
    size_t size = std::max<uint64_t>(4, rng.Poisson(cfg.mean_profile_size));
    std::unordered_set<NodeId> used;
    while (profile[u].size() < size) {
      ProfileEntry e = fresh_entry(u, fresh_category(rng), rng);
      if (used.insert(e.dest).second) profile[u].push_back(e);
    }
  }

  // Per-IP activity level: multi-IP users split their attention unevenly
  // (e.g. office desktop vs hotel laptop).
  std::vector<double> activity(cfg.num_local_hosts, 1.0);
  for (NodeId host : ds.local_hosts) {
    activity[host] = 0.5 + rng.UniformDouble();  // in [0.5, 1.5)
  }

  // --- Emit windows. -----------------------------------------------------
  for (size_t w = 0; w < cfg.num_windows; ++w) {
    const uint64_t window_start = w * cfg.window_length;
    for (NodeId host : ds.local_hosts) {
      const uint32_t user = ds.user_of_host[host];
      for (const ProfileEntry& e : profile[user]) {
        // Window coverage: only a subset of the profile shows up in any
        // one window.
        if (!rng.Bernoulli(cfg.profile_visibility)) continue;
        // Week-over-week volatility: the same destination swings in volume
        // across windows (log-normal jitter), so a host's top-k ranking is
        // not frozen even without churn.
        const double jitter =
            std::exp(cfg.rate_volatility * rng.Gaussian());
        uint64_t sessions = rng.Poisson(e.rate * activity[host] * jitter);
        if (sessions == 0) continue;
        // Split the window's sessions over a few flow records at distinct
        // times, exercising the aggregation path.
        size_t records = 1 + rng.UniformInt(3);
        records = std::min<size_t>(records, sessions);
        uint64_t remaining = sessions;
        for (size_t rec = 0; rec < records; ++rec) {
          uint64_t part = (rec + 1 == records)
                              ? remaining
                              : std::max<uint64_t>(1, remaining / (records - rec));
          remaining -= part;
          ds.events.push_back(
              {host, e.dest,
               window_start + rng.UniformInt(cfg.window_length),
               static_cast<double>(part)});
          if (remaining == 0) break;
        }
      }
      // One-off noise destinations, popularity-biased like real stray
      // traffic.
      uint64_t noise = rng.Poisson(cfg.noise_destinations);
      for (uint64_t s = 0; s < noise; ++s) {
        NodeId dest = sample_any(rng);
        uint64_t sessions = 1 + rng.Poisson(cfg.noise_sessions);
        ds.events.push_back(
            {host, dest, window_start + rng.UniformInt(cfg.window_length),
             static_cast<double>(sessions)});
      }
    }

    // Window-boundary churn: each user replaces a fraction of their
    // profile with fresh destinations *of the same category*, so community
    // membership outlives individual picks. Popular services churn much
    // more slowly.
    if (w + 1 < cfg.num_windows) {
      for (uint32_t u = 0; u < num_users; ++u) {
        std::unordered_set<NodeId> used;
        for (const ProfileEntry& e : profile[u]) used.insert(e.dest);
        for (ProfileEntry& e : profile[u]) {
          double churn = cfg.profile_churn;
          if (e.category == Category::kPopular) {
            churn *= cfg.popular_churn_factor;
          } else if (e.category == Category::kTail) {
            churn = std::min(1.0, churn * cfg.tail_churn_factor);
          }
          if (!rng.Bernoulli(churn)) continue;
          for (int attempt = 0; attempt < 8; ++attempt) {
            ProfileEntry fresh = fresh_entry(u, e.category, rng);
            if (used.insert(fresh.dest).second) {
              used.erase(e.dest);
              e = fresh;
              break;
            }
          }
        }
      }
    }
  }

  return ds;
}

}  // namespace commsig
