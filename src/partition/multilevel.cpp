#include "partition/multilevel.hpp"

#include "common/check.hpp"

namespace hisim::partition {

std::size_t TwoLevelPartitioning::total_inner_parts() const {
  std::size_t n = 0;
  for (const auto& p : level2) n += p.num_parts();
  return n;
}

double TwoLevelPartitioning::partition_seconds() const {
  double s = level1.partition_seconds;
  for (const auto& p : level2) s += p.partition_seconds;
  return s;
}

Circuit part_subcircuit(const Circuit& c, const Part& part) {
  Circuit sub(c.num_qubits(), c.name() + "_part");
  // Keep the parameter registry: level-2 partitioning runs at compile
  // time, when gates may still carry symbolic expressions.
  for (const std::string& p : c.param_names()) sub.param(p);
  for (std::size_t gi : part.gates) sub.add(c.gate(gi));
  return sub;
}

TwoLevelPartitioning partition_two_level(const dag::CircuitDag& dag,
                                         const PartitionOptions& opt,
                                         unsigned level2_limit) {
  HISIM_CHECK_MSG(level2_limit <= opt.limit,
                  "second-level limit must not exceed the first-level limit");
  TwoLevelPartitioning out;
  out.level1 = make_partition(dag, opt);
  if (level2_limit == 0) return out;
  out.level2.reserve(out.level1.num_parts());
  for (const Part& part : out.level1.parts) {
    const Circuit sub = part_subcircuit(dag.circuit(), part);
    const dag::CircuitDag sub_dag(sub);
    PartitionOptions o2 = opt;
    o2.limit = level2_limit;
    out.level2.push_back(make_partition(sub_dag, o2));
  }
  return out;
}

namespace {

/// validate() as a deep-validator check: a violation aborts.
void check(const Circuit& c, const Partitioning& p, const std::string& what) {
  try {
    validate(dag::CircuitDag(c), p);
  } catch (const Error& e) {
    HISIM_INVARIANT(false, what << " partitioning invalid: " << e.what());
  }
}

}  // namespace

void validate_two_level(const Circuit& c, const TwoLevelPartitioning& tp) {
  check(c, tp.level1, "level-1");
  const std::size_t parts = tp.level1.num_parts();
  HISIM_INVARIANT(tp.level2.empty() || tp.level2.size() == parts,
                  "level-2 table has " << tp.level2.size() << " entries for "
                                       << parts << " level-1 parts");
  for (std::size_t i = 0; i < tp.level2.size(); ++i)
    check(part_subcircuit(c, tp.level1.parts[i]), tp.level2[i],
          "level-2 (part " + std::to_string(i) + ")");
}

}  // namespace hisim::partition
