#pragma once

#include <span>

#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Per-run accounting of the Gather-Execute-Scatter model. Byte counts
/// follow the paper's memory-traffic reasoning: gather/scatter stream the
/// full outer state vector once each per part, while gate execution stays
/// inside the (cache-sized) inner vectors. Only the outermost level is
/// timed; the traffic and FLOP counts cover every level.
struct HierarchicalStats {
  double gather_seconds = 0.0;
  double execute_seconds = 0.0;
  double scatter_seconds = 0.0;
  Index outer_bytes_moved = 0;      // bytes read+written on the outer vector
  Index inner_bytes_touched = 0;    // bytes processed inside inner vectors
  double flops = 0.0;
};

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
/// per call, and each level reuses one inner buffer. A malformed part
/// throws hisim::Error before any amplitude moves: qubits not strictly
/// increasing or out of range, or a gate touching a qubit outside its
/// part. `ops` selects the kernel tier (nullptr = the Auto-resolved
/// default). Outermost parts emit `part` trace spans.
HierarchicalStats run_hierarchical(
    const Circuit& c, const partition::Partitioning& parts,
    StateVector& state, std::span<const partition::Partitioning> inner = {},
    const KernelOps* ops = nullptr);

}  // namespace hisim::sv
