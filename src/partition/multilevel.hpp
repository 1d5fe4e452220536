#pragma once

#include "partition/partition.hpp"

namespace hisim::partition {

/// Two-level partitioning (Sec. IV "Multi-level partitioning"): the first
/// level bounds each part by the node-local state-vector size (Lm = local
/// qubit count in the distributed setting), the second level re-partitions
/// each first-level part with a smaller (LLC-sized) limit for cache
/// locality.
struct TwoLevelPartitioning {
  Partitioning level1;
  /// level2[i] partitions the sub-circuit formed by level1.parts[i].gates;
  /// its gate indices are *local* (position j refers to
  /// level1.parts[i].gates[j]).
  /// Empty when there is no second level.
  std::vector<Partitioning> level2;

  std::size_t total_inner_parts() const;
  /// Partitioning time of both levels: level 1 plus every level-2 entry.
  double partition_seconds() const;
};

/// Runs the first-level partitioner per `opt`, then, unless
/// `level2_limit` is 0, partitions each part's induced sub-circuit with
/// `level2_limit` using the same strategy.
TwoLevelPartitioning partition_two_level(const dag::CircuitDag& dag,
                                         const PartitionOptions& opt,
                                         unsigned level2_limit);

/// Deep validator (see common/check.hpp): aborts unless level 1 passes
/// validate() against `c` and, when there is a second level, there is one
/// level-2 partitioning per part, each valid for its part's sub-circuit.
/// Shared by ExecutionPlan::validate() and dist::validate_plan().
void validate_two_level(const Circuit& c, const TwoLevelPartitioning& tp);

/// Builds the sub-circuit induced by one part (gates in execution order,
/// original qubit labels, original qubit count).
Circuit part_subcircuit(const Circuit& c, const Part& part);

}  // namespace hisim::partition
