// perfbench: runs one benchmark workload and prints what it measured as one
// JSON line on stdout. perfbench/run.py builds and drives it; see
// perfbench/README.md for the workloads, metrics and modes.
//
//   perfbench --mode=<setup|run|trace|selftest> --workload=<name>
//             --seed=<n> --threads=<k> [--seconds=<s>] [--scratch=<dir>]
//
//   setup     workload set-up only; prints the monotonic time it ended
//   run       untraced: one warm-up grid, then grids for --seconds
//   trace     per-layer: timed calls into each layer, sampled replays
//   selftest  replay == simulate() at small n for every workload scenario
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/campaign.h"
#include "exp/campaign_io.h"
#include "exp/worker_pool.h"
#include "obs/obs.h"
#include "replay.h"
#include "scenario/scenario.h"
#include "sim/runner.h"
#include "sim/trial_executor.h"
#include "util/json.h"
#include "workloads.h"

using namespace leancon;
using perfbench::workload_def;

namespace {

using steady = std::chrono::steady_clock;

/// Measured grids per untraced run at the least, however short --seconds.
constexpr int kMinReps = 3;
/// Per process count, the traced run replays sampled trials until it has
/// covered this many simulated ops (at least one trial) or kProbeTrials.
constexpr std::uint64_t kProbeOps = 1000000;
constexpr std::uint64_t kProbeTrials = 4000;
/// Process counts the per-layer metrics are reported at.
constexpr std::uint64_t kLayerNs[] = {10, 100, 1000, 10000, 100000};

double since(steady::time_point start) {
  return std::chrono::duration<double>(steady::now() - start).count();
}

/// User + system CPU seconds of every thread of this process.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// CLOCK_MONOTONIC in ns, the clock Python's time.monotonic_ns() reads: run.py
/// times set-up from just before it starts this process.
std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          steady::now().time_since_epoch())
          .count());
}

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

class json_object {
 public:
  json_object& num(const std::string& key, double v) {
    name(key);
    json::write_number(os_, v);
    return *this;
  }
  json_object& count(const std::string& key, std::uint64_t v) {
    name(key);
    json::write_uint(os_, v);
    return *this;
  }
  json_object& text(const std::string& key, const std::string& v) {
    name(key);
    json::write_string(os_, v);
    return *this;
  }
  json_object& flag(const std::string& key, bool v) {
    name(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  json_object& raw(const std::string& key, const std::string& json_text) {
    name(key);
    os_ << json_text;
    return *this;
  }
  std::string dump() const { return "{" + os_.str() + "}"; }

 private:
  void name(const std::string& key) {
    if (!empty_) os_ << ", ";
    empty_ = false;
    json::write_string(os_, key);
    os_ << ": ";
  }
  std::ostringstream os_;
  bool empty_ = true;
};

std::string json_array(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i != 0) out += ", ";
    out += items[i];
  }
  return out + "]";
}

struct options {
  std::string mode;
  std::string workload;
  std::uint64_t seed = perfbench::kDefaultSeed;
  double seconds = 10.0;
  unsigned threads = 4;
  std::string scratch = ".";
};

options parse(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      throw std::invalid_argument("expected --key=value, got " + arg);
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    if (key == "mode") {
      o.mode = value;
    } else if (key == "workload") {
      o.workload = value;
    } else if (key == "seed") {
      o.seed = std::stoull(value);
    } else if (key == "seconds") {
      o.seconds = std::stod(value);
    } else if (key == "threads") {
      o.threads = static_cast<unsigned>(std::stoul(value));
    } else if (key == "scratch") {
      o.scratch = value;
    } else {
      throw std::invalid_argument("unknown flag --" + key);
    }
  }
  if (o.threads == 0) throw std::invalid_argument("--threads must be >= 1");
  return o;
}

/// One pass of a workload's grid through run_campaign.
struct grid_run {
  std::vector<cell_result> results;
  double wall_s = 0.0;
  double core_s = 0.0;
  double chunk_s = 0.0;    ///< summed chunk seconds of the fresh cells
  std::uint64_t hash = 0;  ///< FNV-1a over the cells' campaign_io lines
  std::uint64_t ops = 0;   ///< simulated ops of the fresh cells
  std::uint64_t trials = 0;
  std::uint64_t failed = 0;  ///< undecided or safety-violating trials
};

grid_run run_grid(const std::vector<campaign_cell>& cells, worker_pool& pool,
                  unsigned threads, campaign_io* io = nullptr) {
  campaign_options opts;
  opts.threads = threads;
  opts.pool = &pool;
  opts.io = io;
  grid_run g;
  const double cpu0 = cpu_seconds();
  const auto start = steady::now();
  g.results = run_campaign(cells, opts);
  g.wall_s = since(start);
  g.core_s = cpu_seconds() - cpu0;

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < g.results.size(); ++i) {
    const cell_result& r = g.results[i];
    for (const unsigned char c : campaign_io::format_line(r, false)) {
      h ^= c;
      h *= 0x100000001b3ULL;
    }
    const auto trials = static_cast<std::uint64_t>(r.metrics.get("trials"));
    if (trials != cells[i].trials) {
      throw std::runtime_error("cell " + cells[i].label() + " ran " +
                               std::to_string(trials) + " trials, expected " +
                               std::to_string(cells[i].trials));
    }
    g.trials += trials;
    g.failed += static_cast<std::uint64_t>(r.metrics.get("undecided") +
                                           r.metrics.get("violations"));
    if (!r.resumed) {
      // total_ops_sum is mean x count in floating point; the count is whole.
      g.ops += static_cast<std::uint64_t>(
          std::llround(r.metrics.get("total_ops_sum")));
      g.chunk_s += r.seconds;
    }
  }
  g.hash = h;
  return g;
}

/// Per-cell values bench/fig1_mean_round prints, for run.py's reference
/// check.
std::string cells_json(const grid_run& g) {
  std::vector<std::string> items;
  for (const auto& r : g.results) {
    items.push_back(json_object()
                        .text("scenario", r.cell.scenario)
                        .count("n", r.cell.params.n)
                        .num("trials", r.metrics.get("trials"))
                        .num("mean_round", r.metrics.get("mean_round"))
                        .num("ci95", r.metrics.get("round_ci95"))
                        .dump());
  }
  return json_array(items);
}

/// What every mode pays before the first trial: the scenario registry and
/// each cell's workload built (run_campaign builds them again; this pass
/// validates the grid), then the worker pool started.
struct setup_result {
  std::unique_ptr<worker_pool> pool;
  double build_s = 0.0;
  double pool_s = 0.0;
};

setup_result set_up(const std::vector<campaign_cell>& cells,
                    unsigned threads) {
  setup_result s;
  auto t0 = steady::now();
  for (const auto& c : cells) (void)make_workload(c.scenario, c.params);
  s.build_s = since(t0);
  t0 = steady::now();
  s.pool = std::make_unique<worker_pool>(threads);
  s.pool_s = since(t0);
  return s;
}

int mode_run(const options& o, const workload_def& w) {
  const auto cells = w.cells(o.seed);
  setup_result setup = set_up(cells, o.threads);
  const std::uint64_t ready_ns = monotonic_ns();
  if (o.mode == "setup") {
    std::cout << json_object().count("ready_ns", ready_ns).dump() << "\n";
    return 0;
  }

  // Warm-up: per-thread simulator workspaces, page faults, clock ramp.
  const grid_run warm = run_grid(cells, *setup.pool, o.threads);
  std::uint64_t attempted = warm.trials;
  std::uint64_t failed = warm.failed;
  std::vector<std::string> reps;
  const auto start = steady::now();
  for (int count = 0; count < kMinReps || since(start) < o.seconds;
       ++count) {
    const grid_run g = run_grid(cells, *setup.pool, o.threads);
    if (g.hash != warm.hash) {
      throw std::runtime_error("grid results differ between repetitions");
    }
    reps.push_back(
        json_object().num("wall_s", g.wall_s).num("core_s", g.core_s).dump());
    attempted += g.trials;
    failed += g.failed;
  }
  std::cout << json_object()
                   .count("ready_ns", ready_ns)
                   .flag("obs_enabled", obs::enabled())
                   .raw("reps", json_array(reps))
                   .num("warmup_wall_s", warm.wall_s)
                   .text("hash", hex64(warm.hash))
                   .count("sim_ops", warm.ops)
                   .count("grid_trials", warm.trials)
                   .count("attempted", attempted)
                   .count("failed", failed)
                   .num("peak_rss_mib", peak_rss_mib())
                   .raw("cells", cells_json(warm))
                   .dump()
            << "\n";
  return 0;
}

// --- traced run: sampled replays -------------------------------------------

std::string n_label(std::uint64_t n) {
  switch (n) {
    case 10: return "n10";
    case 100: return "n100";
    case 1000: return "n1k";
    case 10000: return "n10k";
    case 100000: return "n100k";
    default: return "n" + std::to_string(n);
  }
}

/// Sums over the trials sampled at one process count.
struct layer_totals {
  bool on_grid = false;
  std::set<std::string> scenarios;
  std::uint64_t trials = 0;
  std::uint64_t ops = 0;
  std::uint64_t processes = 0;
  std::uint64_t sched_calls = 0;
  std::uint64_t pops = 0;
  std::uint64_t stale_pops = 0;
  std::uint64_t drawn = 0;
  std::uint64_t consumed = 0;
  std::uint64_t loop_consumed = 0;
  std::uint64_t crash_calls = 0;
  double loop_s = 0.0;  ///< simulate() wall time
  double trial_config_s = 0.0;
  double record_s = 0.0;  ///< sim_trial_outcome + trial_stats::record
  perfbench::layer_seconds blocks;
};

struct probe_cell {
  std::string scenario;
  workload work;
  std::uint64_t trials = 0;
};

perfbench::layer_seconds best_of(const perfbench::layer_seconds& a,
                                 const perfbench::layer_seconds& b) {
  return {std::min(a.init, b.init),       std::min(a.sched, b.sched),
          std::min(a.draw, b.draw),       std::min(a.machine, b.machine),
          std::min(a.memory, b.memory),   std::min(a.crash, b.crash)};
}

void add(perfbench::layer_seconds& into, const perfbench::layer_seconds& s) {
  into.init += s.init;
  into.sched += s.sched;
  into.draw += s.draw;
  into.machine += s.machine;
  into.memory += s.memory;
  into.crash += s.crash;
}

/// Samples one trial: simulate() timed (best of two), replayed and checked
/// against simulate(), then each layer's block timed (best of two).
void sample_trial(const probe_cell& pc, std::uint64_t trial,
                  perfbench::layer_timer& timer, layer_totals& t) {
  const sim_config& base = *pc.work.config;
  sim_result result;
  double loop_s = std::numeric_limits<double>::infinity();
  double config_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    auto t0 = steady::now();
    const sim_config trial_cfg = trial_config(base, trial);
    config_s = std::min(config_s, since(t0));
    t0 = steady::now();
    result = simulate(trial_cfg);
    loop_s = std::min(loop_s, since(t0));
  }

  perfbench::replay_trace trace;
  const perfbench::replay_outcome o =
      perfbench::replay_trial(trial_config(base, trial), trace);
  if (!perfbench::same_result(o, result)) {
    throw std::runtime_error("replay of " + pc.scenario + " n=" +
                             std::to_string(base.inputs.size()) + " trial " +
                             std::to_string(trial) +
                             " differs from simulate()");
  }
  const perfbench::layer_seconds first =
      timer.time(trial_config(base, trial), trace);
  const perfbench::layer_seconds blocks =
      best_of(first, timer.time(trial_config(base, trial), trace));

  double record_s = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 2; ++rep) {
    trial_stats stats;
    const auto t0 = steady::now();
    stats.record(sim_trial_outcome(base, result));
    record_s = std::min(record_s, since(t0));
  }

  t.scenarios.insert(pc.scenario);
  ++t.trials;
  t.ops += result.total_ops;
  t.processes += base.inputs.size();
  t.sched_calls += trace.sched.size();
  t.pops += o.pops;
  t.stale_pops += o.stale_pops;
  t.drawn += o.drawn;
  t.consumed += o.consumed;
  t.loop_consumed += o.loop_consumed;
  t.crash_calls += o.crash_calls;
  t.loop_s += loop_s;
  t.trial_config_s += config_s;
  t.record_s += record_s;
  add(t.blocks, blocks);
}

/// Samples trials at process count n: the workload's own cells at n,
/// round-robin from a seed-chosen cell; for an n off the workload's grid, the
/// workload's seed-chosen scenario at n.
layer_totals probe(std::uint64_t n, const workload_def& w,
                   const std::vector<campaign_cell>& cells,
                   std::uint64_t seed, perfbench::layer_timer& timer) {
  std::vector<probe_cell> pcs;
  for (const auto& c : cells) {
    if (c.params.n == n) {
      pcs.push_back({c.scenario, make_workload(c.scenario, c.params),
                     c.trials});
    }
  }
  layer_totals t;
  t.on_grid = !pcs.empty();
  if (pcs.empty()) {
    scenario_params p;
    p.n = n;
    p.seed = trial_seed(seed, n);
    const std::string& key = w.scenarios[seed % w.scenarios.size()];
    pcs.push_back({key, make_workload(key, p),
                   std::numeric_limits<std::uint64_t>::max()});
  }
  const std::size_t first = seed % pcs.size();
  for (std::uint64_t trial = 0;; ++trial) {
    bool any = false;
    for (std::size_t k = 0; k < pcs.size(); ++k) {
      if (t.trials > 0 && (t.ops >= kProbeOps || t.trials >= kProbeTrials)) {
        return t;
      }
      const probe_cell& pc = pcs[(first + k) % pcs.size()];
      if (trial >= pc.trials) continue;
      any = true;
      sample_trial(pc, trial, timer, t);
    }
    if (!any) return t;
  }
}

double per(double seconds, std::uint64_t count, double scale) {
  return count == 0 ? 0.0 : scale * seconds / static_cast<double>(count);
}

int mode_trace(const options& o, const workload_def& w) {
  const auto cells = w.cells(o.seed);
  setup_result setup = set_up(cells, o.threads);
  std::vector<double> pool_starts{setup.pool_s};
  for (int i = 0; i < 4; ++i) {
    const auto t0 = steady::now();
    const auto pool = std::make_unique<worker_pool>(o.threads);
    pool_starts.push_back(since(t0));
  }
  std::sort(pool_starts.begin(), pool_starts.end());
  worker_pool& pool = *setup.pool;

  // Grids: warm-up, traced and untraced at --threads, traced at one thread.
  // All four must hash alike (results are bit-identical for any thread
  // count).
  const grid_run warm = run_grid(cells, pool, o.threads);
  const grid_run traced = run_grid(cells, pool, o.threads);
  const grid_run untraced = run_grid(cells, pool, o.threads);
  const grid_run single = run_grid(cells, pool, 1);
  for (const grid_run* g : {&traced, &untraced, &single}) {
    if (g->hash != warm.hash) {
      throw std::runtime_error(
          "grid results differ between thread counts or repetitions");
    }
  }

  // campaign_io: append every cell, then a warm re-run resumes them all.
  const std::string path =
      o.scratch + "/cells-" + std::to_string(getpid()) + ".jsonl";
  double io_s = 0.0;
  {
    campaign_io io(path, /*resume=*/false);
    const auto t0 = steady::now();
    for (const auto& r : traced.results) io.emit(r);
    io_s = since(t0);
  }
  grid_run resumed;
  {
    campaign_io io(path, /*resume=*/true);
    resumed = run_grid(cells, pool, o.threads, &io);
  }
  std::remove(path.c_str());
  for (const auto& r : resumed.results) {
    if (!r.resumed) {
      throw std::runtime_error("resume re-ran cell " + r.cell.label());
    }
  }
  if (resumed.ops != 0 || resumed.hash != warm.hash) {
    throw std::runtime_error("resumed grid differs from the run it resumed");
  }

  perfbench::layer_timer timer;
  std::map<std::string, double> m;
  std::vector<std::string> probes;
  layer_totals on_grid;          // sums over the grid's own process counts
  double record_weighted = 0.0;  // record ns per trial x grid trials at n
  std::uint64_t record_weight = 0;
  double config_s = 0.0;
  std::uint64_t config_calls = 0;
  double crash_s = 0.0;
  std::uint64_t crash_calls = 0;
  for (const std::uint64_t n : kLayerNs) {
    const layer_totals t = probe(n, w, cells, o.seed, timer);
    const std::string s = "." + n_label(n);
    const double loop = per(t.loop_s, t.ops, 1e9);
    const double attributed = per(t.blocks.total(), t.ops, 1e9);
    m["sim.loop_ns" + s] = loop;
    m["sim.replay_ns" + s] = per(t.blocks.sched, t.sched_calls, 1e9);
    m["sched.draw_ns" + s] = per(t.blocks.draw, t.loop_consumed, 1e9);
    m["memory.exec_ns" + s] = per(t.blocks.memory, t.ops, 1e9);
    m["core.step_ns" + s] = per(t.blocks.machine, t.ops, 1e9);
    m["sim.init_ns" + s] = per(t.blocks.init, t.processes, 1e9);
    m["sim.attributed_ns" + s] = attributed;
    m["sim.residual_ns" + s] = loop - attributed;
    config_s += t.trial_config_s;
    config_calls += t.trials;
    crash_s += t.blocks.crash;
    crash_calls += t.crash_calls;
    if (t.on_grid) {
      std::uint64_t grid_trials = 0;
      for (const auto& c : cells) {
        if (c.params.n == n) grid_trials += c.trials;
      }
      record_weighted += per(t.record_s, t.trials, 1e9) *
                         static_cast<double>(grid_trials);
      record_weight += grid_trials;
      on_grid.pops += t.pops;
      on_grid.stale_pops += t.stale_pops;
      on_grid.drawn += t.drawn;
      on_grid.consumed += t.consumed;
    }
    std::vector<std::string> names;
    for (const auto& name : t.scenarios) names.push_back("\"" + name + "\"");
    probes.push_back(json_object()
                         .count("n", n)
                         .flag("on_grid", t.on_grid)
                         .raw("scenarios", json_array(names))
                         .count("trials", t.trials)
                         .count("ops", t.ops)
                         .count("crash_calls", t.crash_calls)
                         .dump());
  }

  const auto frac = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0
                      : static_cast<double>(part) / static_cast<double>(whole);
  };
  const std::uint64_t attempted =
      warm.trials + traced.trials + untraced.trials + single.trials;
  const std::uint64_t failed =
      warm.failed + traced.failed + untraced.failed + single.failed;
  m["sched.unused_draw_frac"] =
      frac(on_grid.drawn - on_grid.consumed, on_grid.drawn);
  m["sim.stale_pop_frac"] = frac(on_grid.stale_pops, on_grid.pops);
  m["sched.crash_ns"] = per(crash_s, crash_calls, 1e9);
  m["stats.record_ns"] =
      record_weight == 0 ? 0.0
                         : record_weighted / static_cast<double>(record_weight);
  m["sim.trial_config_ns"] = per(config_s, config_calls, 1e9);
  m["exp.busy_frac"] =
      traced.chunk_s / (traced.wall_s * static_cast<double>(o.threads));
  m["exp.speedup_t4"] = single.wall_s / traced.wall_s;
  m["scenario.build_ms"] = 1e3 * setup.build_s;
  m["exp.pool_start_ms"] = 1e3 * pool_starts[pool_starts.size() / 2];
  m["exp.io_us_per_cell"] = per(io_s, cells.size(), 1e6);
  m["exp.resume_ms"] = 1e3 * resumed.wall_s;
  m["sim.ops"] = static_cast<double>(warm.ops);
  m["sim.trials"] = static_cast<double>(warm.trials);
  m["trace_overhead_frac"] = traced.core_s / untraced.core_s - 1.0;
  m["failed_frac"] = frac(failed, attempted);

  json_object metrics;
  for (const auto& [name, value] : m) metrics.num(name, value);
  std::cout << json_object()
                   .raw("metrics", metrics.dump())
                   .text("hash", hex64(warm.hash))
                   .count("attempted", attempted)
                   .count("failed", failed)
                   .raw("cells", cells_json(warm))
                   .raw("details",
                        json_object()
                            .raw("probes", json_array(probes))
                            .num("wall_s_traced", traced.wall_s)
                            .num("wall_s_untraced", untraced.wall_s)
                            .num("wall_s_one_thread", single.wall_s)
                            .num("core_s_traced", traced.core_s)
                            .num("core_s_untraced", untraced.core_s)
                            .num("peak_rss_mib", peak_rss_mib())
                            .dump())
                   .dump()
            << "\n";
  return 0;
}

int mode_selftest() {
  std::set<std::string> scenarios;
  for (const auto& w : perfbench::workloads()) {
    scenarios.insert(w.scenarios.begin(), w.scenarios.end());
  }
  perfbench::layer_timer timer;
  std::uint64_t checked = 0;
  for (const auto& key : scenarios) {
    for (const std::uint64_t n : {2, 10, 37}) {
      scenario_params p;
      p.n = n;
      p.seed = perfbench::kDefaultSeed + n;
      const workload work = make_workload(key, p);
      for (std::uint64_t trial = 0; trial < 16; ++trial) {
        const sim_result r = simulate(trial_config(*work.config, trial));
        perfbench::replay_trace trace;
        const perfbench::replay_outcome o =
            perfbench::replay_trial(trial_config(*work.config, trial), trace);
        if (!perfbench::same_result(o, r)) {
          std::cerr << "selftest: replay of " << key << " n=" << n
                    << " trial " << trial << " differs from simulate()\n";
          return 1;
        }
        // Throws when a layer block does not reproduce the replay.
        timer.time(trial_config(*work.config, trial), trace);
        ++checked;
      }
    }
  }
  std::cout << json_object()
                   .text("selftest", "ok")
                   .count("trials_checked", checked)
                   .dump()
            << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const options o = parse(argc, argv);
    if (obs::enabled()) {
      throw std::runtime_error(
          "event tracing is on (LEANCON_TRACE is set); the benchmark "
          "measures the library with it off");
    }
    if (o.mode == "selftest") return mode_selftest();
#if !defined(NDEBUG) || !defined(__OPTIMIZE__)
    throw std::runtime_error(
        "refusing to measure a build without optimization (use Release)");
#endif
    const workload_def* w = perfbench::find_workload(o.workload);
    if (w == nullptr) {
      throw std::invalid_argument("unknown workload \"" + o.workload + "\"");
    }
    if (o.mode == "setup" || o.mode == "run") return mode_run(o, *w);
    if (o.mode == "trace") return mode_trace(o, *w);
    throw std::invalid_argument("unknown mode \"" + o.mode + "\"");
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
