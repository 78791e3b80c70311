#include "replay.h"

#include <chrono>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "sched/noisy_params.h"

namespace perfbench {

using namespace leancon;

namespace {

// simulate()'s pipelined loop pre-draws each stream's increments in batches
// of kIncBatch (src/sim/simulator.cpp); the replay mirrors that ring.
constexpr std::size_t kIncBatch = 4;

using steady = std::chrono::steady_clock;

double since(steady::time_point start) {
  return std::chrono::duration<double>(steady::now() - start).count();
}

// A recorded machine/memory step packs into one word: register space (bits
// 0-2), op kind (3), "the loop asked for the next op again after apply"
// (4), the value memory returned (5), the value written (6), and the
// register index (8 up). The lean machine only reads and writes 0/1.
std::uint64_t pack_step(const operation& op, std::uint64_t result,
                        bool next_again) {
  if (op.where.index >= (std::uint64_t{1} << 56) || op.value > 1 ||
      result > 1) {
    throw std::invalid_argument(
        "replay: step outside the lean machine's 0/1 registers");
  }
  return (op.where.index << 8) | (op.value << 6) | (result << 5) |
         (static_cast<std::uint64_t>(next_again) << 4) |
         (static_cast<std::uint64_t>(op.kind) << 3) |
         static_cast<std::uint64_t>(op.where.where);
}

operation unpack_op(std::uint64_t p) {
  operation op;
  op.kind = static_cast<op_kind>((p >> 3) & 1);
  op.where = location{static_cast<space>(p & 7), p >> 8};
  op.value = (p >> 6) & 1;
  return op;
}

std::uint64_t step_result(std::uint64_t p) { return (p >> 5) & 1; }
bool step_next_again(std::uint64_t p) { return ((p >> 4) & 1) != 0; }

std::uint64_t fold(const operation& op) {
  return (op.where.index << 4) ^
         (static_cast<std::uint64_t>(op.where.where) << 1) ^
         static_cast<std::uint64_t>(op.kind);
}

/// The machine block's checksum of one step, including the reads simulate()
/// makes right after apply.
void fold_step(std::uint64_t& sum, const operation& op,
               const lean_machine& m) {
  sum = sum * 31 + fold(op) + m.lean_round() +
        static_cast<std::uint64_t>(m.done());
}

double batch_sum(const double* buf) {
  double s = 0.0;
  for (std::size_t k = 0; k < kIncBatch; ++k) s += buf[k];
  return s;
}

void require_modelled(const sim_config& c) {
  if (c.inputs.empty() || c.factory || c.protocol != protocol_kind::lean ||
      c.check_invariants || c.event_hook || obs::enabled()) {
    throw std::invalid_argument(
        "replay: only lean trials without invariant checks, event hooks or "
        "tracing are modelled");
  }
}

void check(bool ok, const char* layer) {
  if (!ok) {
    throw std::runtime_error(std::string("layer block diverged from the "
                                         "replay: ") +
                             layer);
  }
}

/// simulate()'s trial set-up: memory and scheduler reset, then per process
/// its rng stream, the forked machine generator (lean ignores it, but the
/// fork advances the stream), the machine, its start offset and first
/// increment, and prime(); then build().
void init_trial(trial_state& ws, const sim_config& config,
                const increment_sampler& next_increment, bool pipelined,
                replay_trace* trace) {
  const std::size_t n = config.inputs.size();
  const bool track_views = config.crashes != nullptr;
  ws.memory.reset();
  ws.sched.reset(n);
  ws.machines.clear();
  ws.machines.reserve(n);
  ws.streams.clear();
  ws.streams.reserve(n);
  if (track_views) ws.views.assign(n, process_view{});
  ws.halted.assign(n, 0);
  ws.decided.assign(n, 0);
  ws.decisions.assign(n, -1);
  ws.ops.assign(n, 0);
  ws.rounds.assign(n, 1);
  ws.halted_processes = 0;
  if (pipelined) {
    ws.pending_inc.assign(n, 0.0);
    ws.pending_halt.assign(n, 0);
    ws.inc_buf.resize(n * kIncBatch);
    ws.halt_buf.resize(n * kIncBatch);
    ws.buf_pos.assign(n, 0);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const int pid = static_cast<int>(i);
    ws.streams.emplace_back(config.seed, i + 1);
    ws.streams[i].fork();
    ws.machines.emplace_back(config.inputs[i]);
    if (track_views) ws.views[i].preference = config.inputs[i];
    double t = config.sched.start_offset(pid, static_cast<int>(n),
                                         ws.streams[i]);
    bool halted = false;
    if (pipelined) {
      double* buf = ws.inc_buf.data() + i * kIncBatch;
      std::uint8_t* hbuf = ws.halt_buf.data() + i * kIncBatch;
      next_increment.fill(pid, ws.streams[i], buf, hbuf, kIncBatch);
      t += buf[0];
      halted = hbuf[0] != 0;
      ws.pending_inc[i] = buf[1];
      ws.pending_halt[i] = hbuf[1];
      ws.buf_pos[i] = 2;
    } else {
      t += next_increment(pid, 1, /*is_write=*/false, ws.streams[i], halted);
    }
    if (halted) {
      ws.halted[i] = 1;
      if (track_views) ws.views[i].halted = true;
      ++ws.halted_processes;
    } else {
      ws.sched.prime(pid, t);
      if (trace != nullptr) {
        trace->primes.emplace_back(static_cast<std::uint32_t>(i), t);
      }
    }
  }
  ws.sched.build();
}

}  // namespace

bool same_result(const replay_outcome& o, const sim_result& r) {
  return o.total_ops == r.total_ops && o.any_decided == r.any_decided &&
         o.first_decision_round == r.first_decision_round &&
         o.decision == r.decision &&
         o.first_decision_time == r.first_decision_time;
}

replay_outcome replay_trial(const sim_config& config, replay_trace& tr) {
  require_modelled(config);
  const increment_sampler next_increment(config.sched);
  const bool pipelined =
      config.crashes == nullptr && !next_increment.schedule_sensitive();
  const bool track_views = config.crashes != nullptr;
  const std::size_t n = config.inputs.size();

  tr = replay_trace{};
  tr.pipelined = pipelined;
  tr.inputs = config.inputs;
  trial_state ws;
  init_trial(ws, config, next_increment, pipelined, &tr);
  tr.streams = ws.streams;
  tr.views = ws.views;

  replay_outcome o;
  o.drawn = pipelined ? n * kIncBatch : n;
  o.consumed = n - ws.halted_processes;
  std::uint64_t decided_live = 0;
  const auto live_undecided = [&] {
    return n - ws.halted_processes - decided_live;
  };
  const auto sched_call = [&](int pid, double time) {
    tr.sched.push_back(time);
    tr.sched_sum = tr.sched_sum * 31 + static_cast<std::uint64_t>(pid);
  };
  const auto record_step = [&](std::size_t pid, const operation& op,
                               std::uint64_t value, const lean_machine& m,
                               const operation* next) {
    tr.step_pid.push_back(static_cast<std::uint32_t>(pid));
    tr.step_op.push_back(pack_step(op, value, next != nullptr));
    fold_step(tr.machine_sum, op, m);
    if (next != nullptr) tr.machine_sum += fold(*next);
  };
  // First-decision bookkeeping; true when the trial stops here.
  const auto decide = [&](std::size_t pid, double time, std::uint64_t lr) {
    if (!o.any_decided) {
      o.any_decided = true;
      o.decision = ws.decisions[pid];
      o.first_decision_round = lr != 0 ? lr : ws.rounds[pid];
      o.first_decision_time = time;
      if (config.stop == stop_mode::first_decision) return true;
    }
    return live_undecided() == 0;
  };

  // simulate()'s pipelined loop: reschedule with the pre-drawn increment,
  // advance the draw ring, then step the machine.
  while (pipelined && !ws.sched.empty()) {
    const sim_event ev = ws.sched.top();
    const auto pid = static_cast<std::size_t>(ev.pid);
    if (ws.halted[pid] || ws.decided[pid]) {
      ++o.pops;
      ++o.stale_pops;
      ws.sched.remove_top();
      sched_call(ev.pid, -1.0);
      continue;
    }
    if (o.total_ops >= config.max_total_ops) break;
    ++o.pops;
    const double inc = ws.pending_inc[pid];
    const bool halted_next = ws.pending_halt[pid] != 0;
    ws.sched.reschedule_top(ev.time + inc);
    sched_call(ev.pid, ev.time + inc);
    ++o.consumed;
    ++o.loop_consumed;
    {
      std::size_t idx = ws.buf_pos[pid];
      double* buf = ws.inc_buf.data() + pid * kIncBatch;
      std::uint8_t* hbuf = ws.halt_buf.data() + pid * kIncBatch;
      if (idx == kIncBatch) {
        next_increment.fill(ev.pid, ws.streams[pid], buf, hbuf, kIncBatch);
        tr.fill_pid.push_back(static_cast<std::uint32_t>(pid));
        tr.draw_sum += batch_sum(buf);
        o.drawn += kIncBatch;
        idx = 0;
      }
      ws.pending_inc[pid] = buf[idx];
      ws.pending_halt[pid] = hbuf[idx];
      ws.buf_pos[pid] = static_cast<std::uint8_t>(idx + 1);
    }
    lean_machine& machine = ws.machines[pid];
    const operation op = machine.next_op();
    const std::uint64_t value = ws.memory.execute(ev.pid, op);
    machine.apply(value);
    record_step(pid, op, value, machine, nullptr);
    ++ws.ops[pid];
    ++o.total_ops;
    const std::uint64_t lr = machine.lean_round();
    if (lr != 0) ws.rounds[pid] = lr;
    if (machine.done()) {
      ws.decided[pid] = 1;
      ws.decisions[pid] = machine.decision();
      ++decided_live;
      if (decide(pid, ev.time, lr)) break;
      continue;
    }
    if (halted_next) {
      ws.halted[pid] = 1;
      ++ws.halted_processes;
      if (live_undecided() == 0) break;
    }
  }

  // simulate()'s general loop: step, update the views, let the crash
  // adversary move, then draw this process's next increment.
  while (!pipelined && !ws.sched.empty()) {
    if (o.total_ops >= config.max_total_ops) break;
    const sim_event ev = ws.sched.top();
    const auto pid = static_cast<std::size_t>(ev.pid);
    ++o.pops;
    if (ws.halted[pid] || ws.decided[pid]) {
      ++o.stale_pops;
      ws.sched.remove_top();
      sched_call(ev.pid, -1.0);
      continue;
    }
    lean_machine& machine = ws.machines[pid];
    const operation op = machine.next_op();
    const std::uint64_t value = ws.memory.execute(ev.pid, op);
    machine.apply(value);
    ++ws.ops[pid];
    ++o.total_ops;
    const std::uint64_t lr = machine.lean_round();
    if (lr != 0) ws.rounds[pid] = lr;
    if (track_views) {
      ws.views[pid].round = ws.rounds[pid];
      ws.views[pid].ops = ws.ops[pid];
    }
    if (machine.done()) {
      record_step(pid, op, value, machine, nullptr);
      ws.sched.remove_top();
      sched_call(ev.pid, -1.0);
      ws.decided[pid] = 1;
      ws.decisions[pid] = machine.decision();
      if (track_views) ws.views[pid].decided = true;
      ++decided_live;
      if (decide(pid, ev.time, lr)) break;
      continue;
    }
    const operation next = machine.next_op();
    record_step(pid, op, value, machine, &next);

    if (config.crashes) {
      const std::uint64_t next_round = machine.lean_round();
      ws.views[pid].poised_to_decide =
          next_round != 0 && next.kind == op_kind::read &&
          (next.where.where == space::race0 ||
           next.where.where == space::race1) &&
          next.where.index + 1 == next_round &&
          ws.memory.peek(next.where) == 0;
      tr.crashes.push_back({static_cast<std::uint32_t>(pid), ws.views[pid]});
      ++o.crash_calls;
      if (const auto victim = config.crashes->maybe_kill(ws.views, ev.pid)) {
        const auto v = static_cast<std::size_t>(*victim);
        if (v < n && !ws.halted[v] && !ws.decided[v]) {
          ws.halted[v] = 1;
          ws.views[v].halted = true;
          ++ws.halted_processes;
          tr.crash_sum = tr.crash_sum * 31 + v + 1;
          if (live_undecided() == 0) break;
        }
      }
      if (ws.halted[pid]) {
        ws.sched.remove_top();
        sched_call(ev.pid, -1.0);
        continue;
      }
    }

    bool halted = false;
    const std::uint64_t op_index = ws.ops[pid] + 1;
    const bool is_write = next.kind == op_kind::write;
    const double inc =
        next_increment(ev.pid, op_index, is_write, ws.streams[pid], halted);
    tr.draws.push_back({static_cast<std::uint32_t>(pid), is_write, op_index});
    tr.draw_sum += inc;
    ++o.drawn;
    if (halted) {
      ws.sched.remove_top();
      sched_call(ev.pid, -1.0);
      ws.halted[pid] = 1;
      if (track_views) ws.views[pid].halted = true;
      ++ws.halted_processes;
      if (live_undecided() == 0) break;
    } else {
      ws.sched.reschedule_top(ev.time + inc);
      sched_call(ev.pid, ev.time + inc);
      ++o.consumed;
      ++o.loop_consumed;
    }
  }
  return o;
}

layer_seconds layer_timer::time(const sim_config& config,
                                const replay_trace& tr) {
  require_modelled(config);
  const increment_sampler next_increment(config.sched);
  const std::size_t n = tr.inputs.size();
  trial_state& st = st_;
  layer_seconds s;

  auto t0 = steady::now();
  init_trial(st, config, next_increment, tr.pipelined, nullptr);
  s.init = since(t0);

  st.sched.reset(n);
  for (const auto& [pid, time] : tr.primes) {
    st.sched.prime(static_cast<int>(pid), time);
  }
  st.sched.build();
  std::uint64_t sched_sum = 0;
  t0 = steady::now();
  for (const double time : tr.sched) {
    const sim_event ev = st.sched.top();
    sched_sum = sched_sum * 31 + static_cast<std::uint64_t>(ev.pid);
    if (time < 0) {
      st.sched.remove_top();
    } else {
      st.sched.reschedule_top(time);
    }
  }
  s.sched = since(t0);
  check(sched_sum == tr.sched_sum, "event_scheduler");

  st.streams = tr.streams;
  double draw_sum = 0.0;
  if (tr.pipelined) {
    st.inc_buf.resize(n * kIncBatch);
    st.halt_buf.resize(n * kIncBatch);
    t0 = steady::now();
    for (const std::uint32_t pid : tr.fill_pid) {
      double* buf = st.inc_buf.data() + pid * kIncBatch;
      next_increment.fill(static_cast<int>(pid), st.streams[pid], buf,
                          st.halt_buf.data() + pid * kIncBatch, kIncBatch);
      draw_sum += batch_sum(buf);
    }
    s.draw = since(t0);
  } else {
    t0 = steady::now();
    for (const auto& d : tr.draws) {
      bool halted = false;
      draw_sum += next_increment(static_cast<int>(d.pid), d.op_index,
                                 d.is_write, st.streams[d.pid], halted);
    }
    s.draw = since(t0);
  }
  check(draw_sum == tr.draw_sum, "increment_sampler");

  st.machines.clear();
  st.machines.reserve(n);
  for (const int input : tr.inputs) st.machines.emplace_back(input);
  std::uint64_t machine_sum = 0;
  t0 = steady::now();
  for (std::size_t k = 0; k < tr.step_pid.size(); ++k) {
    const std::uint64_t p = tr.step_op[k];
    lean_machine& m = st.machines[tr.step_pid[k]];
    const operation op = m.next_op();
    m.apply(step_result(p));
    fold_step(machine_sum, op, m);
    if (step_next_again(p)) machine_sum += fold(m.next_op());
  }
  s.machine = since(t0);
  check(machine_sum == tr.machine_sum, "lean_machine");

  st.memory.reset();
  std::uint64_t wrong = 0;
  t0 = steady::now();
  for (std::size_t k = 0; k < tr.step_pid.size(); ++k) {
    const std::uint64_t p = tr.step_op[k];
    wrong += st.memory.execute(static_cast<int>(tr.step_pid[k]),
                               unpack_op(p)) != step_result(p);
  }
  s.memory = since(t0);
  check(wrong == 0, "sim_memory");

  if (!tr.crashes.empty()) {
    crash_adversary& adversary = *config.crashes;
    st.views = tr.views;
    std::uint64_t crash_sum = 0;
    t0 = steady::now();
    for (const crash_call& c : tr.crashes) {
      st.views[c.pid] = c.view;
      if (const auto victim =
              adversary.maybe_kill(st.views, static_cast<int>(c.pid))) {
        const auto v = static_cast<std::size_t>(*victim);
        if (v < n && !st.views[v].halted) {
          st.views[v].halted = true;
          crash_sum = crash_sum * 31 + v + 1;
        }
      }
    }
    s.crash = since(t0);
    check(crash_sum == tr.crash_sum, "crash_adversary");
  }
  return s;
}

}  // namespace perfbench
