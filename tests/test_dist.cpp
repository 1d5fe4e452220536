#include "dist/hisvsim_dist.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "dist/dist_state.hpp"
#include "hisvsim/engine.hpp"
#include "sv/simulator.hpp"

namespace hisim::dist {
namespace {

/// Compiles `c` exactly as given for a distributed target on 2^p ranks.
Options dist_options(unsigned p,
                     Target target = Target::DistributedSerial) {
  Options opt;
  opt.target = target;
  opt.process_qubits = p;
  opt.opt_level = 0;
  return opt;
}

TEST(DistState, InitialStateIsGround) {
  DistState st(6, 2);
  const sv::StateVector full = st.to_state_vector();
  EXPECT_NEAR(std::abs(full[0] - 1.0), 0.0, 1e-15);
  EXPECT_NEAR(full.norm(), 1.0, 1e-15);
}

TEST(DistState, RedistributePreservesAmplitudes) {
  DistState st(6, 2);
  // Scribble a recognizable pattern through rank-local access.
  for (unsigned r = 0; r < st.num_ranks(); ++r)
    for (Index i = 0; i < st.local(r).size(); ++i)
      st.local(r)[i] = cplx(static_cast<double>(st.layout().global_index(r, i)), 0);
  const sv::StateVector before = st.to_state_vector();
  NetworkModel net;
  CommStats stats;
  const RankLayout target =
      RankLayout::for_part(6, 2, {4, 5}, st.layout());
  st.redistribute(target, net, stats);
  const sv::StateVector after = st.to_state_vector();
  EXPECT_LT(before.max_abs_diff(after), 1e-15);
  EXPECT_GT(stats.bytes_total, 0u);
  EXPECT_EQ(stats.exchanges, 1u);
  EXPECT_GT(stats.modeled_max_seconds, 0.0);
  EXPECT_GE(stats.modeled_max_seconds, stats.modeled_avg_seconds);
}

TEST(DistState, RedistributeToSameLayoutIsFree) {
  DistState st(5, 1);
  NetworkModel net;
  CommStats stats;
  st.redistribute(st.layout(), net, stats);
  EXPECT_EQ(stats.exchanges, 0u);
  EXPECT_EQ(stats.bytes_total, 0u);
}

struct DistCase {
  std::string name;
  unsigned qubits;
  unsigned p;
  partition::Strategy strategy;
  unsigned level2;
};

class DistributedMatchesFlat : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedMatchesFlat, SameAmplitudes) {
  const DistCase& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  Options opt = dist_options(tc.p);
  opt.strategy = tc.strategy;
  opt.level2_limit = tc.level2;
  const Result r = Engine::compile(c, opt).execute();
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(r.state.max_abs_diff(flat), 1e-10) << tc.name << " p=" << tc.p;
  EXPECT_GT(r.parts, 0u);
  EXPECT_EQ(r.ranks, 1u << tc.p);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, DistributedMatchesFlat,
    ::testing::Values(
        DistCase{"bv", 9, 2, partition::Strategy::DagP, 0},
        DistCase{"bv", 9, 3, partition::Strategy::Nat, 0},
        DistCase{"cat_state", 8, 2, partition::Strategy::Dfs, 0},
        DistCase{"qft", 8, 2, partition::Strategy::DagP, 0},
        DistCase{"qft", 8, 3, partition::Strategy::DagP, 3},
        DistCase{"ising", 9, 2, partition::Strategy::DagP, 0},
        DistCase{"qaoa", 8, 2, partition::Strategy::DagP, 4},
        DistCase{"cc", 9, 3, partition::Strategy::DagP, 0},
        DistCase{"qpe", 8, 2, partition::Strategy::DagP, 0},
        DistCase{"qnn", 8, 2, partition::Strategy::Nat, 0},
        DistCase{"adder37", 10, 2, partition::Strategy::DagP, 0},
        DistCase{"grover", 7, 2, partition::Strategy::DagP, 0}),
    [](const auto& ti) {
      return ti.param.name + "_p" + std::to_string(ti.param.p) + "_" +
             partition::strategy_name(ti.param.strategy) + "_l2" +
             std::to_string(ti.param.level2);
    });

TEST(Distributed, AtMostOneRedistributionPerPart) {
  const Circuit c = circuits::cat_state(8);
  const Result r = Engine::compile(c, dist_options(2)).execute();
  // A part whose qubits are already local (the first one under the
  // identity layout) costs no exchange, so exchanges <= parts.
  EXPECT_GT(r.parts, 1u);
  EXPECT_LE(r.metric("exchange.count"), static_cast<double>(r.parts));
  EXPECT_GE(r.metric("exchange.count"), 1.0);
}

TEST(Distributed, CommDecreasesWithFewerParts) {
  const Circuit c = circuits::ising(9, 3, 5);
  Options nat = dist_options(2), dagp = dist_options(2);
  nat.strategy = partition::Strategy::Nat;
  dagp.strategy = partition::Strategy::DagP;
  const Result rep_nat = Engine::compile(c, nat).execute();
  const Result rep_dagp = Engine::compile(c, dagp).execute();
  EXPECT_LE(rep_dagp.parts, rep_nat.parts);
  EXPECT_LE(rep_dagp.metric("exchange.count"),
            rep_nat.metric("exchange.count"));
}

TEST(DistState, RedistributeRejectsMismatchedTarget) {
  DistState st(6, 2);
  NetworkModel net;
  CommStats stats;
  // Wrong qubit count and wrong process-qubit split both throw.
  EXPECT_THROW(st.redistribute(RankLayout::identity(5, 2), net, stats), Error);
  EXPECT_THROW(st.redistribute(RankLayout::identity(6, 3), net, stats), Error);
  EXPECT_EQ(stats.exchanges, 0u);
}

TEST(DistState, RedistributeWithExplicitBackendsAgree) {
  // Same scenario as RedistributePreservesAmplitudes, through both
  // backends explicitly: contents and accounting must be identical.
  NetworkModel net;
  sv::StateVector results[2];
  CommStats stats[2];
  CommBackend* backends[2] = {&serial_backend(), &threaded_backend()};
  for (int b = 0; b < 2; ++b) {
    DistState st(6, 2);
    for (unsigned r = 0; r < st.num_ranks(); ++r)
      for (Index i = 0; i < st.local(r).size(); ++i)
        st.local(r)[i] =
            cplx(static_cast<double>(st.layout().global_index(r, i)), 0);
    const RankLayout target = RankLayout::for_part(6, 2, {4, 5}, st.layout());
    st.redistribute(target, net, stats[b], *backends[b]);
    results[b] = st.to_state_vector();
  }
  EXPECT_EQ(stats[0], stats[1]);
  for (Index i = 0; i < results[0].size(); ++i)
    EXPECT_EQ(results[0][i], results[1][i]);
}

TEST(Distributed, ThreadedBackendMatchesFlatReference) {
  const Circuit c = circuits::qft(9);
  const Result r =
      Engine::compile(c, dist_options(2, Target::DistributedThreaded))
          .execute();
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(r.state.max_abs_diff(flat), 1e-10);
  EXPECT_GT(r.metric("step.wall_seconds.sum"), 0.0);
  EXPECT_GE(r.metric("exchange.overlap_seconds.sum"), 0.0);
}

TEST(Distributed, ReportTotalsConsistent) {
  const Circuit c = circuits::qft(8);
  const Result r = Engine::compile(c, dist_options(2)).execute();
  EXPECT_NEAR(r.total_seconds(),
              r.metric("compute.seconds") +
                  r.metric("exchange.modeled_max_seconds"),
              1e-12);
  EXPECT_GE(r.comm_ratio(), 0.0);
  EXPECT_LE(r.comm_ratio(), 1.0);
}

// With inner parts each rank runs its step's part tree by
// gather-execute-scatter on its shard. Both backends give the same bytes
// under 1, 2 and 4 threads, and match the flat reference.
TEST(Distributed, InnerPartsBitIdenticalAcrossThreadCounts) {
  const Circuit c = circuits::make_by_name("qft", 11);
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  for (Target t : {Target::DistributedSerial, Target::DistributedThreaded}) {
    Options opt = dist_options(2, t);
    opt.level2_limit = 3;
    const ExecutionPlan plan = Engine::compile(c, opt);
    ASSERT_GT(plan.num_inner_parts(), plan.num_parts()) << target_name(t);
    std::vector<sv::StateVector> states;
    for (unsigned threads : {1u, 2u, 4u}) {
      parallel::set_num_threads(threads);
      states.push_back(plan.execute().state);
    }
    parallel::set_num_threads(0);
    EXPECT_LT(states[0].max_abs_diff(flat), 1e-10) << target_name(t);
    for (std::size_t i = 1; i < states.size(); ++i)
      EXPECT_EQ(std::memcmp(states[0].data(), states[i].data(),
                            states[0].bytes()),
                0)
          << target_name(t) << " run " << i;
  }
}

}  // namespace
}  // namespace hisim::dist
