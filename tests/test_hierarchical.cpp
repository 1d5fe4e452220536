#include "sv/hierarchical.hpp"

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "common/error.hpp"
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

}  // namespace
}  // namespace hisim::sv
