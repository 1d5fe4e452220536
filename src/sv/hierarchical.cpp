#include "sv/hierarchical.hpp"

#include <algorithm>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "sv/kernels.hpp"

namespace hisim::sv {
namespace {

/// One part, ready to run against its parent vector: everything the
/// gather-execute-scatter loop needs, built once per part per call.
struct PreparedPart {
  unsigned width = 0;
  Index outside = 0;                // parent bits not in the part
  std::vector<Index> offset;        // parent offset of inner slot t
  std::vector<Gate> gates;          // the part's gates on inner slots
  std::vector<PreparedPart> inner;  // sub-parts; run instead of `gates`
  Index bytes_touched = 0;          // inner traffic of one run of the part
  double flops = 0.0;
};

/// Builds part `p`, whose gate indices point into `gates` and whose
/// qubits belong to an m-qubit parent. `sub` (nullable) partitions the
/// part in the TwoLevelPartitioning::level2 convention.
PreparedPart prepare(std::span<const Gate> gates, const partition::Part& p,
                     unsigned m, const partition::Partitioning* sub) {
  constexpr Qubit kOutside = ~Qubit{0};
  const unsigned w = p.working_set();
  std::vector<Qubit> slot_of(m, kOutside);
  Index mask = 0;
  for (unsigned j = 0; j < w; ++j) {
    const Qubit q = p.qubits[j];
    HISIM_CHECK_MSG(q < m && (j == 0 || p.qubits[j - 1] < q),
                    "part qubits must be strictly increasing and below "
                        << m << " (got " << q << " at position " << j
                        << ")");
    slot_of[q] = j;
    mask |= Index{1} << q;
  }

  PreparedPart out;
  out.width = w;
  out.outside = ~mask & (dim(m) - 1);
  out.offset.resize(dim(w));
  for (Index t = 0; t < dim(w); ++t) out.offset[t] = bits::deposit(t, mask);
  out.gates.reserve(p.gates.size());
  for (std::size_t gi : p.gates) {
    HISIM_CHECK_MSG(gi < gates.size(),
                    "part gate index " << gi << " out of range");
    Gate g = gates[gi];
    for (Qubit& q : g.qubits) {
      HISIM_CHECK_MSG(q < m && slot_of[q] != kOutside,
                      "gate " << gi << " acts on qubit " << q
                              << ", outside its part");
      q = slot_of[q];
    }
    out.gates.push_back(std::move(g));
  }

  const Index iterations = dim(m - w);
  if (sub == nullptr || sub->parts.empty()) {
    out.bytes_touched = static_cast<Index>(out.gates.size()) * 2 * dim(w) *
                        kAmpBytes * iterations;
    for (const Gate& g : out.gates)
      out.flops += gate_flops(g, w) * static_cast<double>(iterations);
    return out;
  }
  // Inner parts name the parent's qubits: re-express them on this part's
  // slots, then prepare them against the remapped gates.
  for (const partition::Part& ip : sub->parts) {
    partition::Part local;
    local.gates = ip.gates;
    for (Qubit q : ip.qubits) {
      HISIM_CHECK_MSG(q < m && slot_of[q] != kOutside,
                      "inner part qubit " << q << " is outside its part");
      local.qubits.push_back(slot_of[q]);
    }
    out.inner.push_back(prepare(out.gates, local, w, nullptr));
    const PreparedPart& child = out.inner.back();
    out.bytes_touched +=
        (2 * dim(w) * kAmpBytes + child.bytes_touched) * iterations;
    out.flops += child.flops * static_cast<double>(iterations);
  }
  return out;
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
void run_block(const PreparedPart& p, StateVector& outer, Index lo, Index hi,
               unsigned level, std::size_t slot, bool forked, Workers& ws);

/// Runs every outer iteration of `p` against `outer`: forked across the
/// worker slots when the level has at least one iteration per slot
/// (block index = slot), else serially on slot 0, where each gate keeps
/// its own kernel parallelism.
void run_part(const PreparedPart& p, StateVector& outer, unsigned level,
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
Index fork_blocks(const PreparedPart& p, unsigned m, Index slots) {
  const Index iterations = dim(m - p.width);
  if (const Index grain = fork_grain(iterations, slots); grain != 0)
    return (iterations + grain - 1) / grain;
  Index blocks = 1;
  for (const PreparedPart& ip : p.inner)
    blocks = std::max(blocks, fork_blocks(ip, p.width, slots));
  return blocks;
}

void run_block(const PreparedPart& p, StateVector& outer, Index lo, Index hi,
               unsigned level, std::size_t slot, bool forked, Workers& ws) {
  Worker& w = ws.slots[slot];
  StateVector& inner = w.buffers[level];
  inner.resize(p.width);
  PhaseClock* clock = level == 0 ? &w.clock : nullptr;
  if (clock) clock->ran = true;
  const Index kdim = inner.size();
  const Index* offset = p.offset.data();
  cplx* out_a = outer.data();
  cplx* in_a = inner.data();
  for (Index m = lo; m < hi; ++m) {
    const Index base = bits::deposit(m, p.outside);
    if (clock) clock->gather.start();
    for (Index t = 0; t < kdim; ++t) in_a[t] = out_a[base | offset[t]];
    if (clock) {
      clock->gather.stop();
      clock->execute.start();
    }
    if (p.inner.empty()) {
      for (const Gate& g : p.gates) apply_gate(inner, g, ws.ops);
    } else {
      for (const PreparedPart& ip : p.inner) {
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
    for (Index t = 0; t < kdim; ++t) out_a[base | offset[t]] = in_a[t];
    if (clock) clock->scatter.stop();
  }
}

}  // namespace

std::map<std::string, double> run_hierarchical(
    const Circuit& c, const partition::Partitioning& parts,
    StateVector& state, std::span<const partition::Partitioning> inner,
    const KernelOps* ops) {
  const unsigned n = state.num_qubits();
  HISIM_CHECK(n == c.num_qubits());
  HISIM_CHECK_MSG(inner.empty() || inner.size() == parts.num_parts(),
                  "need one inner partitioning per part, got "
                      << inner.size() << " for " << parts.num_parts());

  Index outer_bytes = 0, inner_bytes = 0;
  double flops = 0.0;
  std::vector<PreparedPart> prepared;
  prepared.reserve(parts.num_parts());
  unsigned widest = 0, widest_inner = 0;
  for (std::size_t pi = 0; pi < parts.num_parts(); ++pi) {
    prepared.push_back(prepare(c.gates(), parts.parts[pi], n,
                               inner.empty() ? nullptr : &inner[pi]));
    const PreparedPart& p = prepared.back();
    widest = std::max(widest, p.width);
    for (const PreparedPart& ip : p.inner)
      widest_inner = std::max(widest_inner, ip.width);
    outer_bytes += 2 * state.bytes();  // gather + scatter
    inner_bytes += p.bytes_touched;
    flops += p.flops;
  }

  // Inside a parallel region every for_range runs inline, so one slot
  // does all the work; more would only hold buffers.
  const unsigned slots = parallel::in_region() ? 1 : parallel::num_threads();
  Workers ws{std::vector<Worker>(slots), {widest},
             ops != nullptr ? *ops : kernel_ops()};
  if (!inner.empty()) ws.widest.push_back(widest_inner);
  for (Worker& w : ws.slots) w.buffers.resize(ws.widest.size());
  allocate(ws, 0, 0);  // slot 0 runs every serial level
  // Per part, each phase adds the mean over the slots that ran it, so the
  // totals read as wall time even when the part forked.
  double gather = 0.0, execute = 0.0, scatter = 0.0;
  for (const PreparedPart& p : prepared) {
    // Per-part granularity; the iterations inside are far too hot for
    // spans — the PhaseClock totals cover those.
    trace::TraceSpan span("part", "sv");
    span.arg("gates", static_cast<std::int64_t>(p.gates.size()));
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
  return {{"gather.seconds", gather},
          {"apply.seconds", execute},
          {"scatter.seconds", scatter},
          {"sv.outer_bytes_moved", static_cast<double>(outer_bytes)},
          {"sv.inner_bytes_touched", static_cast<double>(inner_bytes)},
          {"sv.flops", flops}};
}

}  // namespace hisim::sv
