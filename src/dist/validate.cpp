#include <utility>
#include <vector>

#include "common/check.hpp"
#include "dist/hisvsim_dist.hpp"

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

/// Each step's part-tree leaves in run order, tagged with the step index.
using Leaves = std::vector<std::pair<std::size_t, const sv::PartNode*>>;

void collect_leaves(std::size_t step, const sv::PartNode& node,
                    Leaves& out) {
  if (node.parts.empty()) out.emplace_back(step, &node);
  for (const sv::PartNode& p : node.parts) collect_leaves(step, p, out);
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

  const RankLayout* prev = &plan.initial_layout;
  for (std::size_t si = 0; si < plan.steps.size(); ++si) {
    const DistPlan::Step& s = plan.steps[si];
    check_layout_shape(s.layout, n, p, "layout", si);
    check_exchange_conserves(*prev, s.layout, si);
    prev = &s.layout;
  }

  // The gates the steps' trees run must cover every plan gate exactly
  // once, ascending within a leaf — the schedule may reorder gates only
  // across parts (which the acyclic partitioning guarantees is
  // dependency-safe), never drop or duplicate one.
  Leaves leaves;
  for (std::size_t si = 0; si < plan.steps.size(); ++si)
    collect_leaves(si, plan.steps[si].program.root, leaves);
  const std::size_t total = plan.circuit.num_gates();
  std::size_t step_gates = 0;
  for (const auto& [si, leaf] : leaves) step_gates += leaf->ops.size();
  HISIM_INVARIANT(step_gates == total, "steps carry "
                                           << step_gates
                                           << " gates, plan circuit has "
                                           << total);
  std::vector<bool> seen(total, false);
  for (const auto& [si, leaf] : leaves) {
    const std::vector<sv::PartOp>& ops = leaf->ops;
    for (std::size_t j = 0; j < ops.size(); ++j) {
      const std::size_t gi = ops[j].gate;
      HISIM_INVARIANT(gi < total, "step " << si << " carries gate index "
                                          << gi << " of " << total);
      HISIM_INVARIANT(j == 0 || ops[j - 1].gate < gi,
                      "step " << si << " gate indices not ascending at "
                              << "position " << j);
      HISIM_INVARIANT(!seen[gi], "plan gate " << gi
                                              << " carried by two steps");
      seen[gi] = true;
      // Locality: after the step's exchange every qubit the gate touches
      // must sit on a shard-local slot, or it is not block-diagonal over
      // ranks.
      const RankLayout& layout = plan.steps[si].layout;
      const Gate& g = plan.circuit.gate(gi);
      for (Qubit q : g.qubits)
        HISIM_INVARIANT(layout.slot_of(q) < l,
                        "step " << si << " gate " << gi << " '"
                                << g.to_string() << "' touches qubit " << q
                                << " on non-local slot "
                                << layout.slot_of(q));
    }
  }
  // Equal totals + no index twice => every plan gate carried exactly once.

  partition::validate_two_level(plan.circuit, plan.partitioning);
}

}  // namespace hisim::dist
