#include <cstddef>

#include "common/check.hpp"
#include "hisvsim/plan_impl.hpp"
#include "partition/multilevel.hpp"

/// ExecutionPlan::validate() — the single-node half of the checked-build
/// layer (common/check.hpp; the distributed half lives in
/// dist/validate.cpp). Like dist::validate_plan, everything here re-derives
/// the plan's contract from first principles: partitionings are re-checked
/// against freshly built DAGs, noise slots are re-counted from the gates,
/// and the kernel table is re-tested against the CPU — the validator never
/// trusts the code paths that produced the plan.
namespace hisim {

namespace {

using detail::PlanImpl;

void check_kernels(const PlanImpl& p) {
  HISIM_INVARIANT(p.kernels != nullptr, "plan carries no kernel ops table");
  const sv::KernelTier tier = p.kernels->tier;
  HISIM_INVARIANT(tier != sv::KernelTier::Auto,
                  "plan kernel tier left unresolved (Auto) — compile must "
                  "pin Scalar or Simd");
  HISIM_INVARIANT(tier != sv::KernelTier::Simd || sv::simd_kernels_available(),
                  "plan resolved the Simd kernel tier but this binary/CPU "
                  "does not offer it");
  // The resolved table must be the canonical one for its tier: plans share
  // immutable static tables, never own copies.
  HISIM_INVARIANT(p.kernels == &sv::kernel_ops(tier),
                  "plan kernel table is not the canonical "
                      << sv::kernel_tier_name(tier) << " table");
}

void check_params(const PlanImpl& p) {
  // executed_circuit() is dplan.circuit for the distributed targets
  // (impl.circuit is intentionally left empty there) and impl.circuit
  // everywhere else — exactly the circuit whose parameters execute()
  // resolves bindings against.
  const std::vector<std::string>& names = p.executed_circuit().param_names();
  HISIM_INVARIANT(names == p.param_names,
                  "executed circuit declares "
                      << names.size() << " symbolic parameters, plan registry "
                      << "has " << p.param_names.size()
                      << " (or the names/order differ)");
}

void check_target(const PlanImpl& p) {
  const Circuit& c = p.circuit;
  switch (p.opt.target) {
    case Target::Flat:
      HISIM_INVARIANT(p.parts == 1,
                      "flat plan reports " << p.parts << " parts");
      break;
    case Target::Hierarchical:
    case Target::Multilevel: {
      const partition::TwoLevelPartitioning& tp = p.partitioning;
      // Hierarchical carries no level-2 table, Multilevel one per part.
      const std::size_t want_level2 =
          p.opt.target == Target::Multilevel ? tp.level1.parts.size() : 0;
      HISIM_INVARIANT(tp.level2.size() == want_level2,
                      "level-2 table has " << tp.level2.size()
                                           << " entries for "
                                           << tp.level1.parts.size()
                                           << " level-1 parts under "
                                           << target_name(p.opt.target));
      partition::validate_two_level(c, tp);
      HISIM_INVARIANT(p.parts == tp.level1.num_parts() &&
                          p.program.root.parts.size() == p.parts &&
                          p.inner_parts == tp.total_inner_parts(),
                      "plan part counts out of sync with partitioning");
      break;
    }
    case Target::DistributedSerial:
    case Target::DistributedThreaded:
      HISIM_INVARIANT(p.ranks == (1u << p.opt.process_qubits),
                      "plan reports " << p.ranks << " ranks for p = "
                                      << p.opt.process_qubits);
      HISIM_INVARIANT(p.parts == p.dplan.num_parts(),
                      "plan reports " << p.parts
                                      << " parts, distributed plan has "
                                      << p.dplan.num_parts());
      dist::validate_plan(p.dplan);
      break;
    case Target::IqsBaseline:
      HISIM_INVARIANT(p.ranks == (1u << p.opt.process_qubits),
                      "plan reports " << p.ranks << " ranks for p = "
                                      << p.opt.process_qubits);
      break;
  }
}

}  // namespace

void ExecutionPlan::validate() const {
  HISIM_CHECK_MSG(valid(), "validate() called on an empty ExecutionPlan");
  const PlanImpl& p = *impl_;

  check_kernels(p);
  check_params(p);

  // Reserved noise slots must be dense, unique, and on their reserved
  // qubits in the circuit every execute() walks. Run unconditionally: for
  // a noiseless plan this doubles as "no stray NoiseSlot gates".
  noise::validate_slots(p.executed_circuit(), p.noise);

  check_target(p);
}

}  // namespace hisim
