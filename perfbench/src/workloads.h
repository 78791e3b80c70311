// The benchmark's three workloads, each a closed batch of campaign cells
// built from a workload seed. See perfbench/README.md for why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/campaign.h"

namespace perfbench {

/// Seed whose grid hashes are pinned in perfbench/reference.json. For
/// fig1-paper it is also bench/fig1_mean_round's default --seed.
constexpr std::uint64_t kDefaultSeed = 20000625;

struct workload_def {
  std::string name;
  /// Scenario keys the grid uses, in cell order.
  std::vector<std::string> scenarios;
  /// Process counts the grid uses, ascending.
  std::vector<std::uint64_t> ns;
  /// The grid under `seed`.
  std::vector<leancon::campaign_cell> (*cells)(std::uint64_t seed);
};

/// fig1-paper, fig1-small, general-loop.
const std::vector<workload_def>& workloads();

/// The named workload; nullptr when unknown.
const workload_def* find_workload(const std::string& name);

}  // namespace perfbench
