#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "partition/partition.hpp"
#include "sv/kernel_dispatch.hpp"
#include "sv/state_vector.hpp"

namespace hisim::sv {

/// Gate `gate` of the executed circuit, on the part's slots `qubits`.
struct PartOp {
  std::size_t gate = 0;
  std::vector<Qubit> qubits;
};

/// One node of a compiled part tree: it runs on a 2^width-amplitude
/// vector gathered from the bits `mask` of its parent vector (slot j = the
/// j-th lowest bit of `mask`). A leaf applies `ops`; any other node runs
/// its `parts` in order, each gathered from this node's vector.
struct PartNode {
  unsigned width = 0;
  Index mask = 0;
  std::vector<PartOp> ops;
  std::vector<PartNode> parts;
};

/// A part tree compiled once against a circuit of `num_qubits` qubits and
/// `num_gates` gates. `root` covers the whole vector it runs on: the state
/// for hierarchical and multilevel plans, one shard for a distributed step.
struct PartProgram {
  unsigned num_qubits = 0;
  std::size_t num_gates = 0;
  PartNode root;
};

/// Compiles `part` (gate indices into `c`, strictly increasing qubits of
/// `c`) into a node of an m-qubit parent in which qubit q of `c` sits on
/// bit parent_bit[q]. `sub` (nullable) partitions the part in the
/// TwoLevelPartitioning::level2 convention and becomes the node's parts.
/// A malformed part throws hisim::Error: qubits not strictly increasing or
/// not on distinct bits below m, a gate index out of range, or a gate or
/// sub-part touching a qubit outside the part.
PartNode compile_part(const Circuit& c, const partition::Part& part,
                      std::span<const Qubit> parent_bit, unsigned m,
                      const partition::Partitioning* sub = nullptr);

/// Algorithm 1's tree for `parts` of `c`: a root over every qubit whose
/// children are the parts. Non-empty `inner` holds one level-2
/// partitioning per part, run inside the gathered vector (Sec. IV
/// multi-level).
PartProgram compile_parts(
    const Circuit& c, const partition::Partitioning& parts,
    std::span<const partition::Partitioning> inner = {});

/// Runs `prog` on `state` (root.width qubits) with the gates of `c`, the
/// executed circuit (bound, noise substituted); its qubit and gate counts
/// must match the program's. A leaf root applies its gates in place.
/// Otherwise, per part and for every assignment of the bits outside it,
/// the part's amplitudes are gathered into an inner vector by walking the
/// mask, executed there, and scattered back.
///
/// Outer iterations touch disjoint amplitudes, so the outermost level
/// with at least P = parallel::num_threads() iterations splits them into
/// <= P contiguous blocks over one parallel::for_range; each block owns an
/// inner buffer at every level and runs its iterations in order, with the
/// kernels inside running inline. Levels above it run serially, each gate
/// keeping its own kernel parallelism. The output is bit-identical under
/// any thread count. `ops` selects the kernel tier (nullptr = the
/// Auto-resolved default). Outermost parts emit `part` trace spans with
/// `gates` and `workers` (blocks of the forked level, 1 if none forked)
/// args.
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
std::map<std::string, double> run_parts(const PartProgram& prog,
                                        const Circuit& c, StateVector& state,
                                        const KernelOps* ops = nullptr);

/// run_parts(compile_parts(c, parts, inner), c, state, ops).
std::map<std::string, double> run_hierarchical(
    const Circuit& c, const partition::Partitioning& parts,
    StateVector& state, std::span<const partition::Partitioning> inner = {},
    const KernelOps* ops = nullptr);

}  // namespace hisim::sv
