// Communication/computation overlap accounting (paper Sec. V-C: ranks
// continue computing while later data arrives, so HiSVSIM reports the
// overlapped estimate alongside the conservative sum).

#include <gtest/gtest.h>

#include "circuits/generators.hpp"
#include "hisvsim/engine.hpp"

namespace hisim {
namespace {

Result run(const Circuit& c, unsigned p,
           Target target = Target::DistributedSerial) {
  Options opt;
  opt.target = target;
  opt.process_qubits = p;
  opt.opt_level = 0;
  return Engine::compile(c, opt).execute();
}

TEST(Overlap, PerPartTimesRecorded) {
  const Circuit c = circuits::ising(9, 3, 5);
  const Result r = run(c, 2);
  // One (modeled comm, measured compute) sample per part.
  EXPECT_EQ(r.metric("apply.seconds.count"), static_cast<double>(r.parts));
  EXPECT_EQ(r.metric("exchange.modeled_seconds.count"),
            static_cast<double>(r.parts));
  EXPECT_GE(r.metric("apply.seconds.min"), 0.0);
  EXPECT_GE(r.metric("exchange.modeled_seconds.min"), 0.0);
  EXPECT_NEAR(r.metric("exchange.modeled_seconds.sum"),
              r.metric("exchange.modeled_max_seconds"), 1e-9);
  EXPECT_EQ(r.metric("apply.seconds.sum"), r.metric("compute.seconds"));
}

TEST(Overlap, NeverExceedsSerialTotal) {
  for (const char* name : {"bv", "qft", "qaoa", "cc"}) {
    const Circuit c = circuits::make_by_name(name, 9);
    const Result r = run(c, 2);
    EXPECT_LE(r.total_seconds_overlapped(), r.total_seconds() + 1e-9)
        << name;
    // Lower bound: cannot beat either resource alone.
    EXPECT_GE(r.total_seconds_overlapped() + 1e-9,
              r.metric("exchange.modeled_max_seconds")) << name;
    EXPECT_GE(r.total_seconds_overlapped() + 1e-9,
              r.metric("compute.seconds") * 0.8) << name;
  }
}

TEST(Overlap, SinglePartDegeneratesToSum) {
  // One part: nothing to overlap with — estimate equals comm + compute.
  const Circuit c = circuits::cat_state(8);
  const Result r = run(c, 1);  // l = 7 < 8: cat needs 2 parts.
  if (r.parts == 1) {
    EXPECT_NEAR(r.total_seconds_overlapped(), r.total_seconds(), 1e-9);
  } else {
    EXPECT_LE(r.total_seconds_overlapped(), r.total_seconds() + 1e-9);
  }
}

TEST(Overlap, MeasuredOverlapBoundedByCommPlusCompute) {
  // The measured counterpart of the modeled estimate: hidden work can
  // never exceed the comm + compute work actually performed, under either
  // backend.
  for (const char* name : {"qft", "ising"}) {
    const Circuit c = circuits::make_by_name(name, 9);
    for (Target t : {Target::DistributedSerial, Target::DistributedThreaded}) {
      const Result r = run(c, 2, t);
      const double comm = r.metric("exchange.measured_seconds.sum");
      const double overlap = r.metric("exchange.overlap_seconds.sum");
      const double compute = r.metric("compute.seconds");
      EXPECT_GT(r.metric("step.wall_seconds.sum"), 0.0) << name;
      EXPECT_GE(comm, 0.0) << name;
      EXPECT_GE(overlap, 0.0) << name;
      EXPECT_LE(overlap, comm + 1e-9) << name << " on " << target_name(t);
      EXPECT_LE(overlap, compute + 1e-9) << name << " on " << target_name(t);
      EXPECT_LE(overlap, comm + compute + 1e-9)
          << name << " on " << target_name(t);
    }
  }
}

TEST(Overlap, EmptyReportFallsBack) {
  // No pipelined estimate recorded: the overlapped total is the serial one.
  Result r;
  r.ranks = 4;
  r.metrics = {{"compute.seconds", 1.0}, {"exchange.modeled_max_seconds", 0.5}};
  EXPECT_NEAR(r.total_seconds_overlapped(), 1.5, 1e-12);
}

}  // namespace
}  // namespace hisim
