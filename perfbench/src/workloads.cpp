#include "workloads.h"

#include <algorithm>
#include <limits>

#include "noise/catalog.h"

namespace perfbench {
namespace {

using leancon::campaign_cell;

const std::vector<std::uint64_t> kPaperNs{1, 10, 100, 1000, 10000, 100000};
const std::vector<std::uint64_t> kSmallNs{10, 100};
const std::vector<std::uint64_t> kGeneralNs{10, 100, 1000, 10000};

/// fig1-small trials per cell: sized so the grid takes a few seconds at 4
/// threads while every trial stays 10^2-10^3 ops.
constexpr std::uint64_t kSmallTrials = 20000;

/// general-loop per-cell op budget and trial cap (fig1_mean_round's cost
/// model: a trial costs about 48 n + 8 ops).
constexpr std::uint64_t kGeneralOpBudget = 50000000;
constexpr std::uint64_t kGeneralTrialCap = 20000;

std::vector<std::string> figure1_scenarios() {
  std::vector<std::string> keys;
  for (const auto& entry : leancon::figure1_catalog()) {
    keys.push_back("figure1-" + entry.key);
  }
  return keys;
}

/// The Figure 1 grid exactly as bench/fig1_mean_round builds it: n-major
/// with the six distributions inner, cell seed seed + d * 1000003 + n, and
/// max(6, min(cap, op_budget / (48 n + 8))) trials per cell.
std::vector<campaign_cell> figure1_grid(std::uint64_t seed,
                                        const std::vector<std::uint64_t>& ns,
                                        std::uint64_t cap,
                                        std::uint64_t op_budget) {
  const auto scenarios = figure1_scenarios();
  std::vector<campaign_cell> cells;
  for (const auto n : ns) {
    for (std::size_t d = 0; d < scenarios.size(); ++d) {
      const std::uint64_t per_trial = n * 48 + 8;
      campaign_cell cell;
      cell.scenario = scenarios[d];
      cell.params.n = n;
      cell.params.seed = seed + d * 1000003 + n;
      cell.trials =
          std::max<std::uint64_t>(6, std::min(cap, op_budget / per_trial));
      cell.ordinal = cells.size();
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

std::vector<campaign_cell> fig1_paper(std::uint64_t seed) {
  // bench/fig1_mean_round defaults: --trials=1000 --op-budget=6000000.
  return figure1_grid(seed, kPaperNs, 1000, 6000000);
}

std::vector<campaign_cell> fig1_small(std::uint64_t seed) {
  return figure1_grid(seed, kSmallNs, kSmallTrials,
                      std::numeric_limits<std::uint64_t>::max());
}

const std::vector<std::string>& general_scenarios() {
  static const std::vector<std::string> keys{"adv-pack", "adv-burst",
                                             "adv-random", "crash-heavy"};
  return keys;
}

std::vector<campaign_cell> general_loop(std::uint64_t seed) {
  leancon::campaign_grid grid;
  grid.scenarios = general_scenarios();
  grid.ns = kGeneralNs;
  grid.seed = seed;
  grid.trials_for = [](const std::string&, std::uint64_t n) {
    return std::max<std::uint64_t>(
        6, std::min(kGeneralTrialCap, kGeneralOpBudget / (n * 48 + 8)));
  };
  return grid.expand();
}

}  // namespace

const std::vector<workload_def>& workloads() {
  static const std::vector<workload_def> defs{
      {"fig1-paper", figure1_scenarios(), kPaperNs, fig1_paper},
      {"fig1-small", figure1_scenarios(), kSmallNs, fig1_small},
      {"general-loop", general_scenarios(), kGeneralNs, general_loop},
  };
  return defs;
}

const workload_def* find_workload(const std::string& name) {
  for (const auto& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
