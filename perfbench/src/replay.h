// Layer attribution by replay.
//
// simulate() (src/sim/simulator.cpp) runs a trial through five layers: the
// event_scheduler loser tree, increment_sampler draws, the lean machines,
// sim_memory, and, under a crash adversary, crash_adversary. The benchmark
// times them without touching src/: replay_trial() drives one trial through
// the same public calls in the order simulate() makes them, so its outcome
// can be checked against simulate()'s sim_result, and records each layer's
// call sequence. layer_timer::time() then re-issues each layer's sequence
// on its own, on reused state, as one timed block with no clock read per
// call.
//
// The replay supports what the benchmark's workloads use: the lean
// protocol, no invariant checker, no event hook, tracing off.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/lean_machine.h"
#include "memory/sim_memory.h"
#include "sched/crash_adversary.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace perfbench {

/// Outcome fields simulate() and the replay must agree on, plus the call
/// counts the replay observed.
struct replay_outcome {
  bool any_decided = false;
  int decision = -1;
  std::uint64_t first_decision_round = 0;
  double first_decision_time = 0.0;
  std::uint64_t total_ops = 0;

  std::uint64_t pops = 0;        ///< scheduler top() the loop acted on
  std::uint64_t stale_pops = 0;  ///< pops of a decided or halted process
  std::uint64_t drawn = 0;       ///< increments drawn, set-up included
  std::uint64_t consumed = 0;    ///< drawn increments that scheduled an op
  std::uint64_t loop_consumed = 0;  ///< of which drawn inside the loop
  std::uint64_t crash_calls = 0;    ///< crash_adversary::maybe_kill calls
};

/// True when the replay reproduced simulate(): total_ops,
/// first_decision_round, decision and first_decision_time all equal.
bool same_result(const replay_outcome& o, const leancon::sim_result& r);

/// One maybe_kill call: the stepping process and its view at the call.
struct crash_call {
  std::uint32_t pid = 0;
  leancon::process_view view;
};

/// Each layer's recorded call sequence, plus checksums the timed blocks
/// must reproduce.
struct replay_trace {
  bool pipelined = false;  ///< simulate()'s batched-draw fast loop
  std::vector<int> inputs;
  std::vector<std::pair<std::uint32_t, double>> primes;  ///< set-up events
  std::vector<leancon::rng> streams;  ///< rng streams as set-up left them
  std::vector<leancon::process_view> views;  ///< views as set-up left them

  std::vector<double> sched;  ///< reschedule time, or < 0 for remove_top
  std::uint64_t sched_sum = 0;

  std::vector<std::uint32_t> fill_pid;  ///< pipelined: batched refills
  struct draw {
    std::uint32_t pid = 0;
    bool is_write = false;
    std::uint64_t op_index = 0;
  };
  std::vector<draw> draws;  ///< general loop: one draw per step
  double draw_sum = 0.0;

  std::vector<std::uint32_t> step_pid;  ///< machine and memory steps
  std::vector<std::uint64_t> step_op;   ///< packed operation and result
  std::uint64_t machine_sum = 0;

  std::vector<crash_call> crashes;
  std::uint64_t crash_sum = 0;
};

/// Replays one trial. `trial` is a per-trial config as trial_config()
/// returns it (seed set, crash adversary freshly cloned); the replay
/// consumes the adversary's budget. Throws std::invalid_argument on a
/// config the replay does not model.
replay_outcome replay_trial(const leancon::sim_config& trial,
                            replay_trace& trace);

/// Seconds each layer's block took.
struct layer_seconds {
  double init = 0.0;     ///< set-up: scheduler, streams, machines, first draws
  double sched = 0.0;    ///< event_scheduler top + reschedule/remove
  double draw = 0.0;     ///< increment_sampler fill or draw in the loop
  double machine = 0.0;  ///< lean_machine next_op + apply
  double memory = 0.0;   ///< sim_memory::execute
  double crash = 0.0;    ///< process views + crash_adversary::maybe_kill

  double total() const {
    return init + sched + draw + machine + memory + crash;
  }
};

/// Per-trial state as simulate() keeps it (see sim_workspace there).
struct trial_state {
  std::vector<leancon::lean_machine> machines;
  std::vector<leancon::rng> streams;
  std::vector<leancon::process_view> views;
  leancon::event_scheduler sched;
  leancon::sim_memory memory;
  std::vector<std::uint8_t> halted;
  std::vector<std::uint8_t> decided;
  std::vector<int> decisions;
  std::vector<std::uint64_t> ops;
  std::vector<std::uint64_t> rounds;
  std::vector<double> pending_inc;
  std::vector<std::uint8_t> pending_halt;
  std::vector<double> inc_buf;
  std::vector<std::uint8_t> halt_buf;
  std::vector<std::uint8_t> buf_pos;
  std::uint64_t halted_processes = 0;
};

/// Times the layer blocks of recorded trials. Keeps its state across calls,
/// as simulate() keeps its workspace across trials.
class layer_timer {
 public:
  /// `trial` must be a fresh trial_config() of the replayed trial (its
  /// crash adversary is consumed). Throws std::runtime_error when a block
  /// does not reproduce the replay's checksums.
  layer_seconds time(const leancon::sim_config& trial,
                     const replay_trace& trace);

 private:
  trial_state st_;
};

}  // namespace perfbench
