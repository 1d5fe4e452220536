#include "sv/hierarchical.hpp"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sv/kernels.hpp"

namespace hisim::sv {
namespace {

constexpr Qubit kOutside = ~Qubit{0};

/// The work of running a node once per outer iteration of its parent,
/// counted as the paper's memory-traffic model does.
struct Work {
  Index bytes = 0;  // inner traffic
  double flops = 0.0;
  std::size_t gates = 0;
};

/// Work of running `p` against an m-qubit parent, with the gates of `c`.
Work tally(const PartNode& p, const Circuit& c, unsigned m) {
  const Index iterations = dim(m - p.width);
  Work w;
  if (p.parts.empty()) {
    w.gates = p.ops.size();
    w.bytes = static_cast<Index>(p.ops.size()) * 2 * dim(p.width) *
              kAmpBytes * iterations;
    for (const PartOp& op : p.ops)
      w.flops += gate_flops(c.gate(op.gate), p.width) *
                 static_cast<double>(iterations);
    return w;
  }
  for (const PartNode& child : p.parts) {
    const Work cw = tally(child, c, p.width);
    w.gates += cw.gates;
    w.bytes += (2 * dim(p.width) * kAmpBytes + cw.bytes) * iterations;
    w.flops += cw.flops * static_cast<double>(iterations);
  }
  return w;
}

/// Widest node per level below `p` (level 0 = p's parts).
void widest_per_level(const PartNode& p, std::size_t level,
                      std::vector<unsigned>& widest) {
  for (const PartNode& child : p.parts) {
    if (widest.size() <= level) widest.push_back(0);
    widest[level] = std::max(widest[level], child.width);
    widest_per_level(child, level + 1, widest);
  }
}

/// Phase timers of the outermost level, one per worker slot.
struct PhaseClock {
  Stopwatch gather, execute, scatter;
  bool ran = false;
};

/// What one worker slot owns: an inner buffer per level and its phase
/// clock.
struct Worker {
  std::vector<StateVector> buffers;
  PhaseClock clock;
};

/// The worker slots of one call. A level whose iteration count is at
/// least slots.size() splits its iterations into at most that many
/// contiguous blocks; block b runs on slot b, which owns every buffer
/// below it.
struct Workers {
  std::vector<Worker> slots;
  std::vector<unsigned> widest;  // widest part per level
  const Circuit& c;              // the executed circuit the ops index
  const KernelOps& ops;
};

/// Block size when a level of `iterations` outer iterations forks over
/// `slots` workers; 0 when it has fewer iterations than slots and so runs
/// serially.
Index fork_grain(Index iterations, Index slots) {
  return iterations < slots ? 0 : (iterations + slots - 1) / slots;
}

/// Allocates worker `slot`'s buffers from `level` down, each for its
/// level's widest part, where not yet allocated.
void allocate(Workers& ws, std::size_t slot, unsigned level) {
  for (unsigned l = level; l < ws.widest.size(); ++l) {
    StateVector& b = ws.slots[slot].buffers[l];
    if (b.size() == 0) b = StateVector(ws.widest[l]);
  }
}

/// The gather-execute-scatter loop over outer iterations [lo, hi) of `p`
/// against `outer`, at nesting `level`, with the buffers of worker
/// `slot`. Once `forked`, sub-parts run on the same slot; otherwise they
/// may fork themselves. Only the outermost level is timed.
void run_block(const PartNode& p, StateVector& outer, Index lo, Index hi,
               unsigned level, std::size_t slot, bool forked, Workers& ws);

/// Runs every outer iteration of `p` against `outer`: forked across the
/// worker slots when the level has at least one iteration per slot
/// (block index = slot), else serially on slot 0, where each gate keeps
/// its own kernel parallelism.
void run_part(const PartNode& p, StateVector& outer, unsigned level,
              Workers& ws) {
  const Index iterations = outer.size() >> p.width;
  const Index grain = fork_grain(iterations, ws.slots.size());
  if (grain == 0) {
    run_block(p, outer, 0, iterations, level, 0, false, ws);
    return;
  }
  // Here, on the calling thread, so a failed allocation throws to the
  // caller instead of ending a pool worker.
  for (Index b = 0; b * grain < iterations; ++b) allocate(ws, b, level);
  parallel::for_range(
      0, iterations,
      [&](Index lo, Index hi) {
        run_block(p, outer, lo, hi, level, lo / grain, true, ws);
      },
      grain);
}

/// The number of blocks run_part splits `p` (an m-qubit parent's part)
/// into at the level that forks, or 1 if none does.
Index fork_blocks(const PartNode& p, unsigned m, Index slots) {
  const Index iterations = dim(m - p.width);
  if (const Index grain = fork_grain(iterations, slots); grain != 0)
    return (iterations + grain - 1) / grain;
  Index blocks = 1;
  for (const PartNode& ip : p.parts)
    blocks = std::max(blocks, fork_blocks(ip, p.width, slots));
  return blocks;
}

void run_block(const PartNode& p, StateVector& outer, Index lo, Index hi,
               unsigned level, std::size_t slot, bool forked, Workers& ws) {
  Worker& w = ws.slots[slot];
  StateVector& inner = w.buffers[level];
  inner.resize(p.width);
  PhaseClock* clock = level == 0 ? &w.clock : nullptr;
  if (clock) clock->ran = true;
  const Index kdim = inner.size();
  const Index mask = p.mask;
  const Index outside = ~mask & (outer.size() - 1);
  cplx* out_a = outer.data();
  cplx* in_a = inner.data();
  // Gather and scatter step `off` through the submasks of `mask` in
  // increasing order: off = bits::deposit(t, mask) at slot t.
  for (Index m = lo; m < hi; ++m) {
    const Index base = bits::deposit(m, outside);
    if (clock) clock->gather.start();
    for (Index t = 0, off = 0; t < kdim; ++t, off = (off - mask) & mask)
      in_a[t] = out_a[base | off];
    if (clock) {
      clock->gather.stop();
      clock->execute.start();
    }
    if (p.parts.empty()) {
      for (const PartOp& op : p.ops)
        apply_gate(inner, ws.c.gate(op.gate), op.qubits, ws.ops);
    } else {
      for (const PartNode& ip : p.parts) {
        if (forked)
          run_block(ip, inner, 0, kdim >> ip.width, level + 1, slot, true,
                    ws);
        else
          run_part(ip, inner, level + 1, ws);
      }
    }
    if (clock) {
      clock->execute.stop();
      clock->scatter.start();
    }
    for (Index t = 0, off = 0; t < kdim; ++t, off = (off - mask) & mask)
      out_a[base | off] = in_a[t];
    if (clock) clock->scatter.stop();
  }
}

}  // namespace

PartNode compile_part(const Circuit& c, const partition::Part& part,
                      std::span<const Qubit> parent_bit, unsigned m,
                      const partition::Partitioning* sub) {
  const unsigned nq = c.num_qubits();
  HISIM_CHECK(parent_bit.size() == nq);
  PartNode out{part.working_set(), 0, {}, {}};
  for (unsigned j = 0; j < out.width; ++j) {
    const Qubit q = part.qubits[j];
    const Index bit =
        q < nq && parent_bit[q] < m ? Index{1} << parent_bit[q] : 0;
    HISIM_CHECK_MSG(bit != 0 && (out.mask & bit) == 0 &&
                        (j == 0 || part.qubits[j - 1] < q),
                    "part qubits must be strictly increasing and on "
                    "distinct bits below "
                        << m << " (got " << q << " at position " << j
                        << ")");
    out.mask |= bit;
  }
  std::vector<Qubit> slot_of(nq, kOutside);
  for (Qubit q : part.qubits)
    slot_of[q] = bits::popcount(out.mask & ((Index{1} << parent_bit[q]) - 1));

  out.ops.reserve(part.gates.size());
  for (std::size_t gi : part.gates) {
    HISIM_CHECK_MSG(gi < c.num_gates(),
                    "part gate index " << gi << " out of range");
    out.ops.push_back({gi, c.gate(gi).qubits});
    for (Qubit& q : out.ops.back().qubits) {
      HISIM_CHECK_MSG(q < nq && slot_of[q] != kOutside,
                      "gate " << gi << " acts on qubit " << q
                              << ", outside its part");
      q = slot_of[q];
    }
  }
  if (sub == nullptr || sub->parts.empty()) return out;
  // Sub-parts run instead of the ops. They index this part's gate list
  // and sit on this node's slots (a sub-part qubit outside the part has no
  // slot, so it fails the qubit check of the recursive call).
  out.ops = {};
  out.parts.reserve(sub->parts.size());
  for (const partition::Part& ip : sub->parts) {
    partition::Part local;
    local.qubits = ip.qubits;
    for (std::size_t j : ip.gates) {
      HISIM_CHECK_MSG(j < part.gates.size(),
                      "part gate index " << j << " out of range");
      local.gates.push_back(part.gates[j]);
    }
    out.parts.push_back(compile_part(c, local, slot_of, out.width));
  }
  return out;
}

PartProgram compile_parts(const Circuit& c,
                          const partition::Partitioning& parts,
                          std::span<const partition::Partitioning> inner) {
  HISIM_CHECK_MSG(inner.empty() || inner.size() == parts.num_parts(),
                  "need one inner partitioning per part, got "
                      << inner.size() << " for " << parts.num_parts());
  const unsigned n = c.num_qubits();
  std::vector<Qubit> identity(n);
  std::iota(identity.begin(), identity.end(), Qubit{0});
  PartProgram prog{n, c.num_gates(), {n, dim(n) - 1, {}, {}}};
  for (std::size_t pi = 0; pi < parts.num_parts(); ++pi)
    prog.root.parts.push_back(compile_part(
        c, parts.parts[pi], identity, n, inner.empty() ? nullptr : &inner[pi]));
  return prog;
}

std::map<std::string, double> run_parts(const PartProgram& prog,
                                        const Circuit& c, StateVector& state,
                                        const KernelOps* ops) {
  const PartNode& root = prog.root;
  const unsigned n = root.width;
  HISIM_CHECK_MSG(state.num_qubits() == n &&
                      c.num_qubits() == prog.num_qubits &&
                      c.num_gates() == prog.num_gates,
                  "state (" << state.num_qubits() << " qubits) or circuit ("
                            << c.num_qubits() << " qubits, " << c.num_gates()
                            << " gates) does not match the part tree (" << n
                            << ", " << prog.num_qubits << ", "
                            << prog.num_gates << ")");
  const KernelOps& kops = ops != nullptr ? *ops : kernel_ops();

  // The root's own gathers and scatters stream the outer vector.
  const Index outer_bytes = 2 * state.bytes() * root.parts.size();
  const Work work = tally(root, c, n);
  // Per part, each phase adds the mean over the slots that ran it, so the
  // totals read as wall time even when the part forked.
  double gather = 0.0, execute = 0.0, scatter = 0.0;
  if (root.parts.empty()) {  // a leaf root: its gates apply in place
    Timer t;
    for (const PartOp& op : root.ops)
      apply_gate(state, c.gate(op.gate), op.qubits, kops);
    execute = t.seconds();
  } else {
    // Inside a parallel region every for_range runs inline, so one slot
    // does all the work; more would only hold buffers.
    const unsigned slots =
        parallel::in_region() ? 1 : parallel::num_threads();
    Workers ws{std::vector<Worker>(slots), {}, c, kops};
    widest_per_level(root, 0, ws.widest);
    for (Worker& w : ws.slots) w.buffers.resize(ws.widest.size());
    allocate(ws, 0, 0);  // slot 0 runs every serial level
    for (const PartNode& p : root.parts) {
      // Per-part granularity; the iterations inside are far too hot for
      // spans — the PhaseClock totals cover those.
      trace::TraceSpan span("part", "sv");
      span.arg("gates", static_cast<std::int64_t>(tally(p, c, n).gates));
      span.arg("workers", static_cast<std::int64_t>(
                              fork_blocks(p, n, ws.slots.size())));
      run_part(p, state, 0, ws);
      double ran = 0.0, g = 0.0, e = 0.0, s = 0.0;
      for (Worker& w : ws.slots) {
        if (!w.clock.ran) continue;
        ran += 1.0;
        g += w.clock.gather.seconds();
        e += w.clock.execute.seconds();
        s += w.clock.scatter.seconds();
        w.clock = PhaseClock{};
      }
      gather += g / ran;
      execute += e / ran;
      scatter += s / ran;
    }
  }
  return {{"gather.seconds", gather},
          {"apply.seconds", execute},
          {"scatter.seconds", scatter},
          {"sv.outer_bytes_moved", static_cast<double>(outer_bytes)},
          {"sv.inner_bytes_touched",
           static_cast<double>(work.bytes - outer_bytes)},
          {"sv.flops", work.flops}};
}

std::map<std::string, double> run_hierarchical(
    const Circuit& c, const partition::Partitioning& parts,
    StateVector& state, std::span<const partition::Partitioning> inner,
    const KernelOps* ops) {
  return run_parts(compile_parts(c, parts, inner), c, state, ops);
}

}  // namespace hisim::sv
