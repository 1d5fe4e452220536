// End-to-end integration: every benchmark family flows through the whole
// stack — QASM round-trip, fusion, all three partitioners, single-node
// hierarchical, two-level, distributed HiSVSIM, IQS baseline — and all
// paths must agree with the flat reference on the final amplitudes.

#include <gtest/gtest.h>

#include "circuit/fusion.hpp"
#include "circuits/generators.hpp"
#include "dist/hisvsim_dist.hpp"
#include "dist/iqs_baseline.hpp"
#include "hisvsim/engine.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "sv/observables.hpp"
#include "sv/simulator.hpp"

namespace hisim {
namespace {

class FullPipeline : public ::testing::TestWithParam<std::string> {};

TEST_P(FullPipeline, AllPathsAgreeOnSuiteCircuit) {
  const std::string name = GetParam();
  const unsigned n = 9;
  const Circuit c = circuits::make_by_name(name, n);
  const sv::StateVector ref = sv::FlatSimulator().simulate(c);

  // 1. QASM round trip.
  {
    const Circuit back = qasm::parse(qasm::write(c));
    EXPECT_LT(sv::FlatSimulator().simulate(back).max_abs_diff(ref), 1e-8)
        << name << " qasm";
  }

  // 2. Fusion (skip when a wide MCX exceeds the fusion width).
  {
    unsigned max_arity = 1;
    for (const Gate& g : c.gates())
      max_arity = std::max(max_arity, g.arity());
    FusionOptions fo;
    fo.max_qubits = std::max(3u, std::min(max_arity, 6u));
    const Circuit fused = fuse(c, fo);
    EXPECT_LE(fused.num_gates(), c.num_gates());
    EXPECT_LT(sv::FlatSimulator().simulate(fused).max_abs_diff(ref), 1e-8)
        << name << " fusion";
  }

  // 3. All strategies, single-node hierarchical.
  unsigned max_arity = 1;
  for (const Gate& g : c.gates()) max_arity = std::max(max_arity, g.arity());
  const unsigned limit = std::max(5u, max_arity);
  for (auto s : {partition::Strategy::Nat, partition::Strategy::Dfs,
                 partition::Strategy::DagP}) {
    Options opt;
    opt.strategy = s;
    opt.limit = limit;
    const Result r = Engine::compile(c, opt).execute();
    EXPECT_LT(r.state.max_abs_diff(ref), 1e-9)
        << name << " " << partition::strategy_name(s);
    EXPECT_GE(r.parts, 1u);
  }

  // 4. Two-level.
  if (limit > 3 && max_arity <= 3) {
    Options opt;
    opt.target = Target::Multilevel;
    opt.limit = limit;
    opt.level2_limit = 3;
    EXPECT_LT(Engine::compile(c, opt).execute().state.max_abs_diff(ref), 1e-9)
        << name << " two-level";
  }

  // 5. Distributed HiSVSIM + IQS baseline.
  {
    Options opt;
    opt.target = Target::DistributedSerial;
    opt.process_qubits = 2;
    const auto state = Engine::compile(c, opt).execute().state;
    EXPECT_LT(state.max_abs_diff(ref), 1e-9) << name << " distributed";
    dist::DistState iqs_state(n, 2);
    dist::run_iqs_baseline(c, iqs_state);
    EXPECT_LT(iqs_state.to_state_vector().max_abs_diff(ref), 1e-9)
        << name << " iqs";
  }

  // 6. Observables stay physical.
  EXPECT_NEAR(ref.norm(), 1.0, 1e-9);
  for (Qubit q = 0; q < n; ++q) {
    sv::PauliString z;
    z.factors = {{q, sv::Pauli::Z}};
    const double ez = sv::expectation(ref, z);
    EXPECT_GE(ez, -1.0 - 1e-9) << name;
    EXPECT_LE(ez, 1.0 + 1e-9) << name;
    EXPECT_NEAR(ez, 1.0 - 2.0 * ref.prob_one(q), 1e-9) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Suite, FullPipeline,
    ::testing::Values("cat_state", "bv", "qaoa", "cc", "ising", "qft", "qnn",
                      "grover", "qpe", "adder37"),
    [](const auto& ti) { return ti.param; });

TEST(Integration, FusionThenDistributedThenSampling) {
  // The full user workflow: fuse, partition with dagP, run on the
  // simulated cluster, then sample outcomes.
  const Circuit c = circuits::ising(10, 3, 21);
  const Circuit fused = fuse(c, {.max_qubits = 3, .keep_wide_gates = true});
  Options opt;
  opt.target = Target::DistributedSerial;
  opt.process_qubits = 2;
  opt.opt_level = 0;
  const Result r = Engine::compile(fused, opt).execute();
  EXPECT_GT(r.parts, 0u);
  const auto& sv_full = r.state;
  EXPECT_LT(sv_full.max_abs_diff(sv::FlatSimulator().simulate(c)), 1e-9);
  Rng rng(4);
  const auto shots = sv::sample(sv_full, 200, rng);
  EXPECT_EQ(shots.size(), 200u);
  for (Index v : shots) EXPECT_LT(v, dim(10));
}

TEST(Integration, OverlappedTimeReportedForSuite) {
  for (const char* name : {"bv", "ising", "qaoa"}) {
    const Circuit c = circuits::make_by_name(name, 10);
    Options opt;
    opt.target = Target::DistributedSerial;
    opt.process_qubits = 2;
    opt.opt_level = 0;
    const Result r = Engine::compile(c, opt).execute();
    EXPECT_LE(r.total_seconds_overlapped(), r.total_seconds() + 1e-9)
        << name;
  }
}

}  // namespace
}  // namespace hisim
