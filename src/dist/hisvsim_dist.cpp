#include "dist/hisvsim_dist.hpp"

#include <algorithm>

#include "circuit/decompose.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "dag/circuit_dag.hpp"

namespace hisim::dist {

namespace {

/// Pipelined-total estimate (paper Sec. V-C) over the non-empty per-step
/// (modeled comm, measured compute) pairs: while a rank computes part i it
/// can already receive the exchange for part i+1, so
///   T = comm_1 + sum_i max(compute_i, comm_{i+1})   (comm_{k+1} = 0).
/// Bounded below by both total comm and total compute, and above by their
/// sum.
double pipelined_total_seconds(
    std::span<const std::pair<double, double>> step_times) {
  double t = step_times.front().first;
  for (std::size_t i = 0; i < step_times.size(); ++i) {
    const double next_comm =
        i + 1 < step_times.size() ? step_times[i + 1].first : 0.0;
    t += std::max(step_times[i].second, next_comm);
  }
  return t;
}

}  // namespace

DistPlan compile_plan(const Circuit& c, const DistOptions& opt,
                      const RankLayout* initial) {
  const unsigned n = c.num_qubits();
  const unsigned p = opt.process_qubits;
  HISIM_CHECK_MSG(p > 0 && p < n, "need 0 < process_qubits < num_qubits");
  const unsigned l = n - p;

  partition::PartitionOptions po = opt.part;
  po.limit = po.limit == 0 ? l : std::min(po.limit, l);

  DistPlan plan;
  plan.num_qubits = n;
  plan.process_qubits = p;
  plan.initial_layout = initial ? *initial : RankLayout::identity(n, p);
  HISIM_CHECK_MSG(plan.initial_layout.num_qubits() == n &&
                      plan.initial_layout.process_qubits() == p,
                  "initial layout shape does not match circuit/options");

  // Gates wider than a shard can never be made fully local; lower them
  // first (Barenco recursion) so a valid one-exchange-per-part schedule
  // exists. Arity-2 gates that still exceed the limit are rejected by the
  // partitioner below.
  unsigned max_arity = 0;
  for (const Gate& g : c.gates()) max_arity = std::max(max_arity, g.arity());
  if (max_arity > po.limit) {
    trace::TraceSpan span("lower", "dist");
    plan.circuit = lower(c, std::max(po.limit, 2u));
  } else {
    plan.circuit = c;
  }

  const dag::CircuitDag dag = [&] {
    trace::TraceSpan span("dag.build", "dist");
    return dag::CircuitDag(plan.circuit);
  }();
  // The second level, if any, partitions each part with the cache-sized
  // limit; it is booked as partition time, not compute.
  plan.partitioning = partition::partition_two_level(
      dag, po, std::min(opt.level2_limit, po.limit));
  const partition::TwoLevelPartitioning& tp = plan.partitioning;

  // Walk the layout chain once: each part's target layout depends only on
  // the previous part's, so the whole exchange schedule is known before
  // any amplitude exists. Each part's tree is compiled against its layout:
  // the root covers the shard, every local qubit on its slot.
  trace::TraceSpan schedule_span("schedule.build", "dist");
  const RankLayout* prev = &plan.initial_layout;
  std::vector<Qubit> slot(n);
  for (std::size_t i = 0; i < tp.level1.num_parts(); ++i) {
    DistPlan::Step step;
    step.layout = RankLayout::for_part(n, p, tp.level1.parts[i].qubits, *prev);
    partition::Part shard;
    shard.gates = tp.level1.parts[i].gates;
    for (Qubit q = 0; q < n; ++q) {
      slot[q] = static_cast<Qubit>(step.layout.slot_of(q));
      if (slot[q] < l) shard.qubits.push_back(q);
    }
    step.program = {n, plan.circuit.num_gates(),
                    sv::compile_part(plan.circuit, shard, slot, l,
                                     tp.level2.empty() ? nullptr
                                                       : &tp.level2[i])};
    plan.steps.push_back(std::move(step));
    prev = &plan.steps.back().layout;
  }
  return plan;
}

std::map<std::string, double> execute_plan(
    const DistPlan& plan, const Circuit& c, DistState& state,
    const NetworkModel& net, CommBackend* backend_ptr,
    const sv::KernelOps* kernels) {
  const unsigned n = plan.num_qubits;
  const unsigned p = plan.process_qubits;
  HISIM_CHECK_MSG(state.num_qubits() == n && state.num_ranks() == (1u << p),
                  "state shape does not match plan");
  HISIM_CHECK_MSG(state.layout() == plan.initial_layout,
                  "state layout does not match the plan's initial layout");
  HISIM_CHECK_MSG(c.num_qubits() == n &&
                      c.num_gates() == plan.circuit.num_gates(),
                  "executed circuit (" << c.num_qubits() << " qubits, "
                                       << c.num_gates()
                                       << " gates) does not match the plan ("
                                       << n << " qubits, "
                                       << plan.circuit.num_gates() << " gates)");
  const unsigned v = state.num_ranks();
  CommBackend& backend = backend_ptr ? *backend_ptr : serial_backend();

  // Every per-step measurement is recorded into this run-local registry
  // (local so concurrent executes on separate states cannot
  // cross-pollute). Recording happens serially on this thread in step
  // order, so each distribution's sum accumulates in step order.
  CommStats comm;
  // (modeled comm, measured compute) per step, for the pipelined model.
  std::vector<std::pair<double, double>> step_times;
  trace::MetricsRegistry reg;
  trace::Distribution& d_modeled = reg.distribution("exchange.modeled_seconds");
  trace::Distribution& d_apply = reg.distribution("apply.seconds");
  trace::Distribution& d_wall = reg.distribution("step.wall_seconds");
  trace::Distribution& d_comm = reg.distribution("exchange.measured_seconds");
  trace::Distribution& d_overlap = reg.distribution("exchange.overlap_seconds");

  std::int64_t step_index = 0;
  for (const DistPlan::Step& step : plan.steps) {
    trace::TraceSpan step_span("step", "dist");
    step_span.arg("index", step_index++);
    // (1) Relayout: one collective exchange at most, none if the part's
    // qubits are already local. The exchange is started asynchronously;
    // each rank below waits only for its own shard before applying.
    Timer wall;
    const double comm_before = comm.modeled_max_seconds;
    const std::unique_ptr<ExchangeHandle> handle =
        state.redistribute_async(step.layout, net, comm, backend);
    const double part_comm = comm.modeled_max_seconds - comm_before;
    // The comm window on the part clock: movement started (at most) here
    // and finishes handle->finished_after() later (0 for a synchronous
    // backend — its movement already happened).
    const double comm_begin = wall.seconds();

    // (2) Local apply: every step gate sits on a local slot, so it is
    // block-diagonal over ranks and applies shard-locally. Ranks are
    // independent, so the apply loop fans out over parallel::for_range (one
    // rank per chunk); shard contents are identical to a serial sweep.
    Mutex comp_mu;
    // Compute window on the part clock: first rank starting to apply
    // (after its shard arrived) → last rank finished.
    double comp_begin = -1.0, comp_end = 0.0;
    parallel::for_range(
        0, v,
        [&](Index lo, Index hi) {
          for (Index r = lo; r < hi; ++r) {
            const unsigned rank = static_cast<unsigned>(r);
            if (handle) handle->wait_shard(rank);
            trace::TraceSpan apply_span("apply", "dist");
            apply_span.arg("rank", rank);
            const double t0 = wall.seconds();
            sv::run_parts(step.program, c, state.local(rank), kernels);
            const double t1 = wall.seconds();
            MutexLock lk(comp_mu);
            if (comp_begin < 0.0 || t0 < comp_begin) comp_begin = t0;
            comp_end = std::max(comp_end, t1);
          }
        },
        /*grain=*/1);

    const double part_comp = comp_begin < 0.0 ? 0.0 : comp_end - comp_begin;
    if (handle) {
      trace::TraceSpan wait_span("exchange.wait_all", "dist");
      handle->wait_all();
    }
    if (handle) {
      d_comm.record(handle->seconds());
      // Overlap = intersection of the comm window [comm_begin, comm_end]
      // and the compute window [comp_begin, comp_end] on the part clock.
      const double comm_end = comm_begin + handle->finished_after();
      if (comp_begin >= 0.0)
        d_overlap.record(std::max(
            0.0, std::min(comm_end, comp_end) - std::max(comm_begin, comp_begin)));
    }
    d_wall.record(wall.seconds());
    d_apply.record(part_comp);
    d_modeled.record(part_comm);
    step_times.emplace_back(part_comm, part_comp);
    // Counter tracks in the trace viewer: cumulative modeled network
    // bytes and messages after each step.
    trace::counter_sample("exchange.bytes",
                          static_cast<double>(comm.bytes_total));
    trace::counter_sample("exchange.messages",
                          static_cast<double>(comm.messages_total));
  }

  std::map<std::string, double> metrics = reg.flat();
  metrics["compute.seconds"] = d_apply.snapshot().sum;
  record_comm(comm, metrics);
  if (!step_times.empty())
    metrics["model.pipelined_seconds"] = pipelined_total_seconds(step_times);
  return metrics;
}

}  // namespace hisim::dist
