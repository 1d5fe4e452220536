#pragma once

#include <map>
#include <span>
#include <string>

#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Algorithm 1: for each part of `parts`, for every assignment of the
/// qubits outside the part, gather the matching amplitudes of `state`
/// into an inner vector, execute the part there, and scatter the results
/// back.
///
/// With `inner` empty, executing a part applies its gates remapped onto
/// inner slots. Otherwise `inner` holds one partitioning per part (the
/// TwoLevelPartitioning::level2 convention: gate indices local to the
/// part, qubits of `c`), and executing a part runs the same loop over its
/// inner parts on the gathered vector (Sec. IV multi-level).
///
/// Each part's slot map, remapped gates and offset table are built once
/// per call. Outer iterations touch disjoint amplitudes, so the outermost
/// level with at least P = parallel::num_threads() iterations splits them
/// into <= P contiguous blocks over one parallel::for_range; each block
/// owns an inner buffer at every level and runs its iterations in order,
/// with the kernels inside running inline. Levels above it run serially,
/// each gate keeping its own kernel parallelism. The output is
/// bit-identical under any thread count. A malformed part throws
/// hisim::Error before any amplitude moves: qubits not strictly
/// increasing or out of range, or a gate touching a qubit outside its
/// part. `ops` selects the kernel tier (nullptr = the Auto-resolved
/// default). Outermost parts emit `part` trace spans with `gates` and
/// `workers` (blocks of the forked level, 1 if none forked) args.
///
/// Returns the run's metrics under their Result::metrics keys.
/// "gather.seconds", "apply.seconds" and "scatter.seconds" time the
/// outermost level only; per part, each adds the mean over the workers
/// that ran it, so they read as wall time. The byte counts follow the
/// paper's memory-traffic reasoning and cover every level:
/// "sv.outer_bytes_moved" counts gather and scatter streaming the full
/// outer vector once each per part, "sv.inner_bytes_touched" the gate
/// execution inside the (cache-sized) inner vectors; "sv.flops" counts
/// the arithmetic.
std::map<std::string, double> run_hierarchical(
    const Circuit& c, const partition::Partitioning& parts,
    StateVector& state, std::span<const partition::Partitioning> inner = {},
    const KernelOps* ops = nullptr);

}  // namespace hisim::sv
