#include "partition/multilevel.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>

#include "circuits/generators.hpp"
#include "common/parallel.hpp"
#include "common/trace.hpp"
#include "hisvsim/engine.hpp"
#include "sv/hierarchical.hpp"
#include "sv/simulator.hpp"

namespace hisim {
namespace {

TEST(TwoLevel, StructureValid) {
  const Circuit c = circuits::qft(9);
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = 6;
  const auto two = partition::partition_two_level(d, opt, 3);
  partition::validate(d, two.level1);
  ASSERT_EQ(two.level2.size(), two.level1.num_parts());
  for (std::size_t i = 0; i < two.level2.size(); ++i) {
    const Circuit sub =
        partition::part_subcircuit(c, two.level1.parts[i]);
    const dag::CircuitDag sub_dag(sub);
    partition::validate(sub_dag, two.level2[i]);
    EXPECT_LE(two.level2[i].max_working_set(), 3u);
  }
  EXPECT_GE(two.total_inner_parts(), two.level1.num_parts());
}

TEST(TwoLevel, RejectsInvertedLimits) {
  const Circuit c = circuits::bv(8);
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = 4;
  EXPECT_THROW(partition::partition_two_level(d, opt, 6), Error);
}

struct MlCase {
  std::string name;
  unsigned qubits;
  unsigned l1, l2;
};

class TwoLevelSim : public ::testing::TestWithParam<MlCase> {};

TEST_P(TwoLevelSim, MatchesFlat) {
  const MlCase& tc = GetParam();
  const Circuit c = circuits::make_by_name(tc.name, tc.qubits);
  const dag::CircuitDag d(c);
  partition::PartitionOptions opt;
  opt.limit = tc.l1;
  const auto two = partition::partition_two_level(d, opt, tc.l2);
  sv::StateVector state(c.num_qubits());
  const auto stats =
      sv::run_hierarchical(c, two.level1, state, two.level2);
  const sv::StateVector flat = sv::FlatSimulator().simulate(c);
  EXPECT_LT(state.max_abs_diff(flat), 1e-10) << tc.name;
  // Only level-1 parts stream the outer vector; inner parts stream their
  // parent's gathered vector.
  EXPECT_EQ(stats.at("sv.outer_bytes_moved"),
            static_cast<double>(two.level1.num_parts() * 2 * state.bytes()));
  EXPECT_GT(stats.at("sv.inner_bytes_touched"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Suite, TwoLevelSim,
    ::testing::Values(MlCase{"qft", 8, 5, 3}, MlCase{"qft", 8, 6, 2},
                      MlCase{"qaoa", 8, 5, 3},
                      MlCase{"ising", 9, 6, 3},
                      MlCase{"qpe", 8, 5, 3},
                      MlCase{"adder37", 10, 6, 4},
                      MlCase{"qnn", 8, 5, 2}),
    [](const auto& ti) {
      return ti.param.name + "_l1" + std::to_string(ti.param.l1) + "_l2" +
             std::to_string(ti.param.l2);
    });

// The executor's recursion: a two-level run whose every inner part spans
// all of its parent's qubits executes the same gates in the same order on
// the same slots as the one-level run, so the states are bit-identical.
TEST(TwoLevelSim, WholePartInnerLevelEqualsOneLevel) {
  std::vector<const sv::KernelOps*> tiers = {&sv::scalar_kernel_ops()};
  if (sv::simd_kernels_available())
    tiers.push_back(&sv::kernel_ops(sv::KernelTier::Simd));
  for (const char* name : {"qft", "ising", "qaoa", "adder37"}) {
    const Circuit c = circuits::make_by_name(name, 9);
    const dag::CircuitDag d(c);
    partition::PartitionOptions opt;
    opt.limit = 6;
    const partition::Partitioning level1 = partition::make_partition(d, opt);
    std::vector<partition::Partitioning> level2;
    for (const partition::Part& p : level1.parts) {
      partition::Part whole;
      for (std::size_t j = 0; j < p.gates.size(); ++j)
        whole.gates.push_back(j);
      whole.qubits = p.qubits;
      level2.emplace_back().parts.push_back(std::move(whole));
    }
    for (const sv::KernelOps* ops : tiers) {
      sv::StateVector one(c.num_qubits()), two(c.num_qubits());
      sv::run_hierarchical(c, level1, one, {}, ops);
      sv::run_hierarchical(c, level1, two, level2, ops);
      EXPECT_EQ(std::memcmp(one.data(), two.data(), one.bytes()), 0)
          << name << " " << ops->name;
    }
  }
}

bool bit_identical(const sv::StateVector& a, const sv::StateVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.bytes()) == 0;
}

// Sweep points run inside a pool region, so each multilevel execute there
// uses one worker slot; a top-level execute forks over every slot. Both
// run each part's blocks in order, so the states agree to the bit, at
// every thread count.
TEST(TwoLevelSim, SweepBitIdenticalAcrossThreadCountsAndToExecute) {
  const auto inst = circuits::qaoa_instance(10, 2, 5);
  Options o;
  o.target = Target::Multilevel;
  o.limit = 6;
  o.level2_limit = 3;
  const ExecutionPlan plan = Engine::compile(inst.circuit, o);
  ASSERT_GT(plan.num_inner_parts(), plan.num_parts());
  std::vector<ParamBinding> points;
  for (unsigned i = 0; i < 6; ++i)
    points.push_back(inst.uniform_binding(0.2 + 0.15 * i, 0.1 + 0.05 * i));

  std::vector<std::vector<Result>> sweeps;
  for (unsigned workers : {1u, 2u, 4u}) {
    parallel::set_num_threads(workers);
    sweeps.push_back(plan.execute_sweep(points));
  }
  parallel::set_num_threads(4);
  for (std::size_t i = 0; i < points.size(); ++i) {
    ExecOptions x;
    x.bindings = points[i];
    const Result ref = plan.execute(x);
    for (std::size_t w = 0; w < sweeps.size(); ++w)
      EXPECT_TRUE(bit_identical(sweeps[w][i].state, ref.state))
          << "point " << i << ", sweep " << w;
  }
  parallel::set_num_threads(0);
}

// The automatic level 2 is the constant Options::kAutoLevel2Limit (not a
// fraction of the first level): at n = 16 it bounds every inner part.
TEST(TwoLevelSim, AutoLevel2IsTheConstant) {
  const Circuit c = circuits::qft(16);
  Options o;
  o.target = Target::Multilevel;
  const ExecutionPlan automatic = Engine::compile(c, o);
  o.level2_limit = Options::kAutoLevel2Limit;
  const ExecutionPlan pinned = Engine::compile(c, o);
  EXPECT_EQ(automatic.num_inner_parts(), pinned.num_inner_parts());
  EXPECT_TRUE(bit_identical(automatic.execute().state, pinned.execute().state));

  const dag::CircuitDag d(automatic.circuit());
  partition::PartitionOptions po;
  po.strategy = o.strategy;
  po.limit = 16;
  po.seed = o.seed;
  const auto two =
      partition::partition_two_level(d, po, Options::kAutoLevel2Limit);
  EXPECT_EQ(two.total_inner_parts(), automatic.num_inner_parts());
  for (const partition::Partitioning& inner : two.level2)
    for (const partition::Part& p : inner.parts)
      EXPECT_LE(p.working_set(), Options::kAutoLevel2Limit);
}

// One total: both levels' partitioning time, whichever path compiled it.
TEST(TwoLevel, PartitionSecondsCoverBothLevels) {
  const Circuit c = circuits::qft(10);
  const dag::CircuitDag d(c);
  partition::PartitionOptions po;
  po.limit = 6;
  const auto two = partition::partition_two_level(d, po, 3);
  double sum = two.level1.partition_seconds;
  for (const partition::Partitioning& inner : two.level2)
    sum += inner.partition_seconds;
  ASSERT_GT(two.total_inner_parts(), two.level1.num_parts());
  EXPECT_EQ(two.partition_seconds(), sum);
  const auto one = partition::partition_two_level(d, po, 0);
  EXPECT_TRUE(one.level2.empty());
  EXPECT_EQ(one.partition_seconds(), one.level1.partition_seconds);
}

/// Sum of the "dur" (µs) of every traced `partition` span, and of those
/// whose `gates` arg is `gates` (the level-1 call), in seconds.
std::pair<double, double> traced_partition_seconds(const std::string& json,
                                                   std::size_t gates) {
  const std::string key = "{\"name\": \"partition\"";
  const std::string level1 = "\"gates\": " + std::to_string(gates) + "}";
  double all = 0.0, first = 0.0;
  for (std::size_t at = json.find(key); at != std::string::npos;
       at = json.find(key, at + 1)) {
    const std::size_t end = json.find('}', json.find("\"args\"", at)) + 1;
    const double dur =
        std::strtod(json.c_str() + json.find("\"dur\": ", at) + 7, nullptr);
    all += dur * 1e-6;
    if (json.compare(end - level1.size(), level1.size(), level1) == 0)
      first += dur * 1e-6;
  }
  return {all, first};
}

// Multilevel plans and distributed plans with level2_limit > 0 report the
// time of every partitioner call, not only the first level's: the plan's
// partition_seconds() sits at the sum of the traced partition spans, far
// from the level-1 span alone.
TEST(TwoLevel, PlansReportBothLevelsOfPartitionTime) {
  const Circuit c = circuits::qft(10);
  for (Target t : {Target::Multilevel, Target::DistributedSerial}) {
    Options o;
    o.target = t;
    o.limit = 6;
    o.level2_limit = 3;
    if (target_is_distributed(t)) o.process_qubits = 2;
    trace::TraceSession::clear();
    trace::TraceSession::start();
    const ExecutionPlan plan = Engine::compile(c, o);
    trace::TraceSession::stop();
    const auto [all, level1] = traced_partition_seconds(
        trace::TraceSession::chrome_json(), plan.circuit().num_gates());
    trace::TraceSession::clear();
    ASSERT_GT(plan.num_inner_parts(), plan.num_parts()) << target_name(t);
    ASSERT_GT(level1, 0.0) << target_name(t);
    ASSERT_GT(all - level1, 0.0) << target_name(t);
    EXPECT_NEAR(plan.partition_seconds(), all, 0.5 * (all - level1))
        << target_name(t);
  }
}

}  // namespace
}  // namespace hisim
