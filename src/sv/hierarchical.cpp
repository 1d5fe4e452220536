#include "sv/hierarchical.hpp"

#include <algorithm>
#include <vector>

#include "common/bits.hpp"
#include "common/check.hpp"
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

/// Phase timers of the outermost level.
struct PhaseClock {
  Stopwatch gather, execute, scatter;
};

/// The gather-execute-scatter loop: runs `p` against `outer` through the
/// inner vector `buffers.front()`; deeper levels use the buffers after it.
void run_part(const PreparedPart& p, StateVector& outer,
              std::span<StateVector> buffers, const KernelOps& ops,
              PhaseClock* clock) {
  StateVector& inner = buffers.front();
  inner.resize(p.width);
  const Index kdim = inner.size();
  const Index iterations = outer.size() >> p.width;
  const Index* offset = p.offset.data();
  cplx* out_a = outer.data();
  cplx* in_a = inner.data();
  for (Index m = 0; m < iterations; ++m) {
    const Index base = bits::deposit(m, p.outside);
    if (clock) clock->gather.start();
    for (Index t = 0; t < kdim; ++t) in_a[t] = out_a[base | offset[t]];
    if (clock) {
      clock->gather.stop();
      clock->execute.start();
    }
    if (p.inner.empty()) {
      for (const Gate& g : p.gates) apply_gate(inner, g, ops);
    } else {
      for (const PreparedPart& ip : p.inner)
        run_part(ip, inner, buffers.subspan(1), ops, nullptr);
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

  // One inner buffer per level, sized for that level's widest part.
  std::vector<StateVector> buffers;
  buffers.emplace_back(widest);
  if (!inner.empty()) buffers.emplace_back(widest_inner);
  const KernelOps& kops = ops != nullptr ? *ops : kernel_ops();
  PhaseClock clock;
  for (const PreparedPart& p : prepared) {
    // Per-part granularity; the iterations inside are far too hot for
    // spans — the PhaseClock totals cover those.
    trace::TraceSpan span("part", "sv");
    span.arg("gates", static_cast<std::int64_t>(p.gates.size()));
    run_part(p, state, buffers, kops, &clock);
  }
  return {{"gather.seconds", clock.gather.seconds()},
          {"apply.seconds", clock.execute.seconds()},
          {"scatter.seconds", clock.scatter.seconds()},
          {"sv.outer_bytes_moved", static_cast<double>(outer_bytes)},
          {"sv.inner_bytes_touched", static_cast<double>(inner_bytes)},
          {"sv.flops", flops}};
}

}  // namespace hisim::sv
