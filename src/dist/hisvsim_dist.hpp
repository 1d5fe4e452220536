#pragma once

#include <map>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "dist/backend.hpp"
#include "dist/dist_state.hpp"
#include "partition/multilevel.hpp"
#include "sv/hierarchical.hpp"
#include "sv/kernel_dispatch.hpp"

namespace hisim::dist {

/// Compile-time configuration of a distributed run.
struct DistOptions {
  /// p: the run uses 2^p virtual ranks; each shard holds 2^(n-p)
  /// amplitudes. Must match the DistState passed to execute_plan().
  unsigned process_qubits = 0;
  /// First-level partitioning configuration. A limit of 0 (or one
  /// larger than n - p) is clamped to the local qubit count.
  partition::PartitionOptions part;
  /// Nonzero enables a second, cache-sized partitioning level inside
  /// every part (paper Sec. IV multi-level), capped at the first level's
  /// limit.
  unsigned level2_limit = 0;
};

/// Compiled form of one distributed run: everything that does not depend
/// on amplitude values — the (possibly lowered) circuit, its one- or
/// two-level partitioning, the per-part target layouts (the exchange
/// schedule) and each part's compiled part tree — computed once and
/// reusable across any number of executions. The trees hold indices into
/// `circuit`, so the gates exist once. Immutable after compile_plan();
/// safe to share between threads executing concurrently on separate
/// DistStates.
struct DistPlan {
  unsigned num_qubits = 0;
  unsigned process_qubits = 0;   // p: 2^p virtual ranks
  Circuit circuit;               // lowered when wide gates required it
  RankLayout initial_layout;     // layout the exchange schedule starts from
  /// Level 1 gives the steps; level 2 (empty unless
  /// DistOptions::level2_limit > 0) the cache-sized inner parts.
  partition::TwoLevelPartitioning partitioning;

  /// One entry per first-level part, in execution order.
  struct Step {
    RankLayout layout;   // post-exchange layout (== previous when no move)
    /// The part on one rank's shard: a root of width l = n - p with each
    /// qubit on its slot under `layout`. Its leaves hold the part's gates
    /// (indices into DistPlan::circuit), ascending within a leaf; it is a
    /// leaf itself unless the part has inner parts.
    sv::PartProgram program;
  };
  std::vector<Step> steps;

  std::size_t num_parts() const { return steps.size(); }
};

/// Deep validator (see common/check.hpp): aborts unless `plan` upholds the
/// full exchange-schedule contract — every layout a consistent n/p-shaped
/// permutation whose slot_of/qubit_at maps invert each other, every
/// amplitude conserved across each consecutive layout pair (each (rank,
/// offset) destination hit exactly once — no shard byte lost or
/// duplicated), the steps' part trees covering every plan gate exactly
/// once (ascending within a leaf), every step gate's qubits local under
/// its step's layout, and the partitioning valid on both levels
/// (partition::validate_two_level). Checked builds run this from
/// ExecutionPlan::validate(); tests corrupt a copied plan's schedule and
/// assert the abort.
void validate_plan(const DistPlan& plan);

/// Builds the execution plan for `c` under `opt`. `initial` is the layout
/// the target state will carry when execution starts; nullptr = identity.
/// Throws if an arity-2 gate exceeds the local qubit count.
DistPlan compile_plan(const Circuit& c, const DistOptions& opt,
                      const RankLayout* initial = nullptr);

/// The paper's distributed hierarchical simulator (Sec. V), executed on
/// simulated ranks: runs a compiled plan on `state` (whose layout must
/// equal plan.initial_layout). Per part it (1) redistributes amplitudes so
/// the part's qubits are local on every rank — at most one collective
/// exchange per part — and (2) applies the part's gates shard-locally.
/// After the exchange every part qubit occupies a slot below l = n - p (the
/// Fig. 3 convention documented on RankLayout), so each gate is
/// block-diagonal over ranks and each simulated rank applies it to its own
/// shard — exactly the computation a real MPI rank would perform between
/// exchanges. This contrasts with the IQS-style baseline, which keeps a
/// fixed layout and pays one pairwise exchange per gate that mixes a
/// process qubit. Repeatable: only amplitudes move; no partitioning or
/// layout planning happens here.
///
/// The exchange runs through `backend` (nullptr = serial_backend()): with
/// an async backend (ThreadedBackend) each rank starts applying gates as
/// soon as its shard has arrived, while later shards are still moving —
/// the comm/compute overlap of Sec. V-C, measured rather than modeled.
///
/// `c` is the executed form of plan.circuit: the same gates with symbolic
/// angles bound and noise slots holding one trajectory's sampled operators
/// (or plan.circuit itself when there is nothing to materialize). Its
/// qubit and gate counts must match the plan's. Each rank runs its step's
/// part tree on its shard in one sv::run_parts call: the gates of `c` in
/// place, or the inner parts by gather-execute-scatter. Nothing is
/// remapped or rebuilt per execution.
///
/// `kernels` selects the apply-kernel tier for every shard-local gate
/// (nullptr = the Auto-resolved default; see sv/kernel_dispatch.hpp).
///
/// Returns the run's metrics under their Result::metrics keys: per-step
/// distributions ("exchange.modeled_seconds", "apply.seconds",
/// "step.wall_seconds", "exchange.measured_seconds",
/// "exchange.overlap_seconds", each expanded as by
/// trace::MetricsRegistry::flat()); the record_comm() totals under `net`;
/// "compute.seconds", the shard-local apply wall time summed over steps
/// (first rank starting to compute -> last rank finished); and, when the
/// plan has steps, "model.pipelined_seconds", the Sec. V-C pipelined
/// estimate over the per-step (modeled comm, measured compute) pairs.
std::map<std::string, double> execute_plan(
    const DistPlan& plan, const Circuit& c, DistState& state,
    const NetworkModel& net, CommBackend* backend = nullptr,
    const sv::KernelOps* kernels = nullptr);

}  // namespace hisim::dist
