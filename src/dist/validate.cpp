#include <vector>

#include "common/check.hpp"
#include "dag/circuit_dag.hpp"
#include "dist/hisvsim_dist.hpp"
#include "partition/partition.hpp"

/// Deep validation of a compiled DistPlan — the exchange-schedule half of
/// the checked-build layer (common/check.hpp). Everything here re-derives
/// the plan's invariants from first principles rather than replaying the
/// code that built it, so a bug in compile_plan and a bug in the validator
/// would have to agree to slip through.
namespace hisim::dist {

namespace {

/// slot_of and qubit_at must be mutually inverse permutations of [0, n).
/// RankLayout's constructors enforce this, but the validator re-checks so
/// a future representation change (or a corrupted plan in a test) cannot
/// silently rely on it.
void check_layout_shape(const RankLayout& layout, unsigned n, unsigned p,
                        const char* what, std::size_t step) {
  HISIM_INVARIANT(layout.num_qubits() == n && layout.process_qubits() == p,
                  what << " of step " << step << " has shape ("
                       << layout.num_qubits() << ", " << layout.process_qubits()
                       << "), plan is (" << n << ", " << p << ")");
  for (Qubit q = 0; q < n; ++q) {
    const unsigned s = layout.slot_of(q);
    HISIM_INVARIANT(s < n, what << " of step " << step << ": qubit " << q
                                << " maps to slot " << s << " >= " << n);
    HISIM_INVARIANT(layout.qubit_at(s) == q,
                    what << " of step " << step << ": slot_of/qubit_at "
                         << "disagree at qubit " << q);
  }
}

/// Conservation across one exchange: under the destination layout every
/// (rank, offset) pair must be produced by exactly one global amplitude
/// index, and the round trip through global_index must be the identity.
/// Enumerating all 2^n amplitudes is exact and affordable for the state
/// sizes checked builds and tests run; larger states fall back to the
/// shape checks above (a valid permutation layout conserves by
/// construction — enumeration exists to catch representation bugs).
void check_exchange_conserves(const RankLayout& from, const RankLayout& to,
                              std::size_t step) {
  const unsigned n = from.num_qubits();
  if (n > 16) return;
  const Index dim = Index{1} << n;
  std::vector<bool> hit(dim, false);
  for (Index g = 0; g < dim; ++g) {
    const auto [src_rank, src_off] = from.locate(g);
    HISIM_INVARIANT(from.global_index(src_rank, src_off) == g,
                    "exchange into step "
                        << step << ": source locate/global_index round trip "
                        << "broken at amplitude " << g);
    const auto [dst_rank, dst_off] = to.locate(g);
    HISIM_INVARIANT(dst_rank < to.num_ranks() && dst_off < to.local_dim(),
                    "exchange into step " << step << ": amplitude " << g
                                          << " lands outside the shards");
    const Index flat = (Index{dst_rank} << to.local_qubits()) | dst_off;
    HISIM_INVARIANT(!hit[flat], "exchange into step "
                                    << step << ": shard slot (rank "
                                    << dst_rank << ", offset " << dst_off
                                    << ") written twice — a shard byte was "
                                    << "duplicated and another lost");
    hit[flat] = true;
  }
  // Every slot hit exactly once: dim writes into dim slots with no
  // duplicates is a bijection, so nothing was lost either.
}

/// The steps' gate indices must cover every plan gate exactly once,
/// ascending within a step — the schedule may reorder gates only across
/// parts (which the acyclic partitioning guarantees is dependency-safe),
/// never drop or duplicate one.
void check_gate_cover(const DistPlan& plan) {
  const std::size_t total = plan.circuit.num_gates();
  std::size_t step_gates = 0;
  for (const DistPlan::Step& s : plan.steps) step_gates += s.gates.size();
  HISIM_INVARIANT(step_gates == total, "steps carry "
                                           << step_gates
                                           << " gates, plan circuit has "
                                           << total);
  std::vector<bool> seen(total, false);
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const std::vector<std::size_t>& gates = plan.steps[si].gates;
    for (std::size_t j = 0; j < gates.size(); ++j) {
      const std::size_t gi = gates[j];
      HISIM_INVARIANT(gi < total, "step " << si << " carries gate index "
                                          << gi << " of " << total);
      HISIM_INVARIANT(j == 0 || gates[j - 1] < gi,
                      "step " << si << " gate indices not ascending at "
                              << "position " << j);
      HISIM_INVARIANT(!seen[gi], "plan gate " << gi
                                              << " carried by two steps");
      seen[gi] = true;
    }
  }
  // Equal totals + no index twice => every plan gate carried exactly once.
}

}  // namespace

void validate_plan(const DistPlan& plan) {
  const unsigned n = plan.num_qubits;
  const unsigned p = plan.process_qubits;
  HISIM_INVARIANT(p > 0 && p < n,
                  "plan shape requires 0 < process_qubits (" << p
                                                             << ") < qubits ("
                                                             << n << ")");
  HISIM_INVARIANT(plan.circuit.num_qubits() == n,
                  "plan circuit has " << plan.circuit.num_qubits()
                                      << " qubits, plan says " << n);
  const unsigned l = n - p;
  check_layout_shape(plan.initial_layout, n, p, "initial layout", 0);

  check_gate_cover(plan);

  const RankLayout* prev = &plan.initial_layout;
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const DistPlan::Step& s = plan.steps[si];
    check_layout_shape(s.layout, n, p, "layout", si);
    check_exchange_conserves(*prev, s.layout, si);
    prev = &s.layout;

    // Locality: after the step's exchange every qubit its gates touch must
    // sit on a shard-local slot, or the gate is not block-diagonal over
    // ranks.
    for (std::size_t gi : s.gates) {
      const Gate& g = plan.circuit.gate(gi);
      for (Qubit q : g.qubits)
        HISIM_INVARIANT(s.layout.slot_of(q) < l,
                        "step " << si << " gate " << gi << " '"
                                << g.to_string() << "' touches qubit " << q
                                << " on non-local slot "
                                << s.layout.slot_of(q));
    }

    if (!s.inner.parts.empty()) {
      // The DAG points into `local`, so `local` must outlive it.
      const Circuit local = step_circuit(plan.circuit, s, l);
      const dag::CircuitDag sdag(local);
      try {
        partition::validate(sdag, s.inner);
      } catch (const Error& e) {
        HISIM_INVARIANT(false, "step " << si << " inner partitioning invalid: "
                                       << e.what());
      }
    }
  }
}

}  // namespace hisim::dist
