#include "sv/hierarchical.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "circuits/generators.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "partition/multilevel.hpp"
#include "sv/kernels.hpp"
#include "sv/simulator.hpp"

namespace hisim::sv {
namespace {

struct Case {
  std::string name;
  unsigned qubits;
  unsigned limit;
  partition::Strategy strategy;
};

class HierarchicalMatchesFlat : public ::testing::TestWithParam<Case> {};

TEST_P(HierarchicalMatchesFlat, SameAmplitudes) {
  const Case& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = tc.limit;
  opt.strategy = tc.strategy;
  const partition::Partitioning parts = partition::make_partition(d, opt);
  partition::validate(d, parts);

  const StateVector flat = FlatSimulator().simulate(c);
  StateVector hier(c.num_qubits());
  const auto metrics = run_hierarchical(c, parts, hier);
  EXPECT_LT(hier.max_abs_diff(flat), 1e-10)
      << tc.name << " " << partition::strategy_name(tc.strategy);
  // Gather reads and scatter writes the whole outer vector once per part.
  EXPECT_EQ(metrics.at("sv.outer_bytes_moved"),
            static_cast<double>(parts.num_parts() * 2 * hier.bytes()));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, HierarchicalMatchesFlat,
    ::testing::Values(
        Case{"bv", 9, 4, partition::Strategy::Nat},
        Case{"bv", 9, 4, partition::Strategy::Dfs},
        Case{"bv", 9, 4, partition::Strategy::DagP},
        Case{"cat_state", 8, 3, partition::Strategy::DagP},
        Case{"qft", 7, 4, partition::Strategy::DagP},
        Case{"qft", 7, 4, partition::Strategy::Nat},
        Case{"ising", 9, 5, partition::Strategy::DagP},
        Case{"qaoa", 8, 5, partition::Strategy::DagP},
        Case{"cc", 9, 5, partition::Strategy::Dfs},
        Case{"qnn", 8, 4, partition::Strategy::DagP},
        Case{"qpe", 8, 5, partition::Strategy::DagP},
        Case{"grover", 7, 7, partition::Strategy::DagP},
        Case{"adder37", 10, 6, partition::Strategy::DagP}),
    [](const auto& ti) {
      return ti.param.name + "_L" + std::to_string(ti.param.limit) + "_" +
             partition::strategy_name(ti.param.strategy);
    });

TEST(Hierarchical, SinglePartEqualsFlat) {
  const Circuit c = circuits::qft(6);
  const dag::CircuitDag d(c);
  const partition::Partitioning p = partition::partition_nat(d, 6);
  ASSERT_EQ(p.num_parts(), 1u);
  const StateVector flat = FlatSimulator().simulate(c);
  StateVector hier(c.num_qubits());
  run_hierarchical(c, p, hier);
  EXPECT_LT(hier.max_abs_diff(flat), 1e-12);
}

TEST(Hierarchical, PartSweepsWholeOuter) {
  // A part acting on a strict qubit subset must leave other-qubit marginals
  // intact.
  Circuit c(5);
  c.add(Gate::h(1));
  c.add(Gate::cx(1, 3));
  const dag::CircuitDag d(c);
  const partition::Partitioning p = partition::partition_nat(d, 2);
  StateVector state(5);
  apply_gate(state, Gate::x(4));  // pre-set qubit 4
  run_hierarchical(c, p, state);
  EXPECT_NEAR(state.prob_one(4), 1.0, 1e-12);
  EXPECT_NEAR(state.prob_one(1), 0.5, 1e-12);
  EXPECT_NEAR(state.prob_one(3), 0.5, 1e-12);
}

TEST(Hierarchical, StatsTrafficScalesWithParts) {
  const Circuit c = circuits::ising(10, 3, 2);
  const dag::CircuitDag d(c);
  const partition::Partitioning coarse = partition::partition_nat(d, 10);
  const partition::Partitioning fine = partition::partition_nat(d, 3);
  StateVector s1(10), s2(10);
  const auto st1 = run_hierarchical(c, coarse, s1);
  const auto st2 = run_hierarchical(c, fine, s2);
  EXPECT_GT(fine.num_parts(), coarse.num_parts());
  EXPECT_GT(st2.at("sv.outer_bytes_moved"), st1.at("sv.outer_bytes_moved"));
  EXPECT_LT(s1.max_abs_diff(s2), 1e-10);
}

TEST(Hierarchical, FlopsAccounted) {
  const Circuit c = circuits::bv(8);
  const dag::CircuitDag d(c);
  const partition::Partitioning p = partition::partition_nat(d, 4);
  StateVector s(8);
  EXPECT_GT(run_hierarchical(c, p, s).at("sv.flops"), 0.0);
}

// Malformed parts are rejected before any amplitude moves.
partition::Partitioning one_part(std::vector<std::size_t> gates,
                                 std::vector<Qubit> qubits) {
  partition::Partitioning p;
  p.parts.push_back({std::move(gates), std::move(qubits)});
  return p;
}

TEST(Hierarchical, RejectsGateOutsidePart) {
  Circuit c(4);
  c.add(Gate::h(3));
  StateVector s(4);
  EXPECT_THROW(run_hierarchical(c, one_part({0}, {1}), s), Error);
  EXPECT_EQ(s[0], cplx(1.0));
}

TEST(Hierarchical, RejectsRepeatedPartQubit) {
  Circuit c(2);
  c.add(Gate::h(1));
  StateVector s(2);
  EXPECT_THROW(run_hierarchical(c, one_part({0}, {1, 1}), s), Error);
  EXPECT_EQ(s[0], cplx(1.0));
}

TEST(Hierarchical, RejectsMalformedPartShapes) {
  Circuit c(3);
  c.add(Gate::cx(0, 2));
  StateVector s(3);
  EXPECT_THROW(run_hierarchical(c, one_part({0}, {2, 0}), s), Error);
  EXPECT_THROW(run_hierarchical(c, one_part({0}, {0, 2, 3}), s), Error);
  EXPECT_THROW(run_hierarchical(c, one_part({1}, {0, 2}), s), Error);
}

TEST(Hierarchical, RejectsInnerPartOutsideItsParent) {
  Circuit c(4);
  c.add(Gate::cx(0, 1));
  StateVector s(4);
  const partition::Partitioning outer = one_part({0}, {0, 1});
  const partition::Partitioning inner[] = {one_part({0}, {0, 3})};
  EXPECT_THROW(run_hierarchical(c, outer, s, inner), Error);
  const partition::Partitioning wrong_count[] = {inner[0], inner[0]};
  EXPECT_THROW(run_hierarchical(c, outer, s, wrong_count), Error);
}

// The outer loop forks across worker slots, but each slot owns whole outer
// iterations and runs them in a fixed order: the state is bit-identical
// under any thread count, including 3 (uneven blocks).
TEST(Hierarchical, BitIdenticalAcrossThreadCounts) {
  struct Run {
    std::string name;
    unsigned l1, l2;  // l2 = 0: one level
    partition::Strategy strategy;
  };
  // n = 16. At l1 = 12 every part forks at level 1. Nat parts at l1 = 15
  // are mostly 15 wide: 2 outer iterations, so 3 and 4 threads run them
  // serially with per-gate kernel parallelism. At l1 = 16 level 1 has one
  // iteration, so the two-level runs fork at level 2.
  using partition::Strategy;
  const Run runs[] = {{"qft", 12, 0, Strategy::DagP},
                      {"ising", 12, 0, Strategy::DagP},
                      {"qft", 15, 0, Strategy::Nat},
                      {"qft", 16, 12, Strategy::DagP},
                      {"ising", 16, 12, Strategy::DagP}};
  for (const Run& run : runs) {
    const Circuit c = circuits::make_by_name(run.name, 16);
    const dag::CircuitDag d(c);
    partition::PartitionOptions opt;
    opt.limit = run.l1;
    opt.strategy = run.strategy;
    partition::TwoLevelPartitioning two;  // level2 empty: one level
    if (run.l2 != 0)
      two = partition::partition_two_level(d, opt, run.l2);
    else
      two.level1 = partition::make_partition(d, opt);
    // The serial level-1 paths need the widest parts to reach the limit.
    if (run.l1 >= 15) {
      EXPECT_EQ(two.level1.max_working_set(), run.l1);
    }
    std::vector<StateVector> states;
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
      parallel::set_num_threads(threads);
      StateVector s(c.num_qubits());
      run_hierarchical(c, two.level1, s, two.level2);
      states.push_back(std::move(s));
    }
    parallel::set_num_threads(0);
    const std::string what = run.name + " L" + std::to_string(run.l1) + "/" +
                             std::to_string(run.l2);
    EXPECT_LT(states[0].max_abs_diff(FlatSimulator().simulate(c)), 1e-10)
        << what;
    for (std::size_t i = 1; i < states.size(); ++i)
      EXPECT_EQ(std::memcmp(states[0].data(), states[i].data(),
                            states[0].bytes()),
                0)
          << what << " at " << i + 1 << " threads";
  }
}

}  // namespace
}  // namespace hisim::sv
