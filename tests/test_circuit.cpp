#include "circuit/circuit.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace hisim {
namespace {

TEST(Circuit, AddValidatesQubitRange) {
  Circuit c(3);
  c.add(Gate::h(2));
  EXPECT_THROW(c.add(Gate::h(3)), Error);
  EXPECT_THROW(c.add(Gate::cx(0, 5)), Error);
  EXPECT_EQ(c.num_gates(), 1u);
}

TEST(Circuit, AddRejectsNonFiniteAngles) {
  const double inf = std::numeric_limits<double>::infinity();
  Circuit c(2);
  EXPECT_THROW(c.add(Gate::rz(0, inf)), Error);
  EXPECT_THROW(c.add(Gate::u3(1, 0.1, std::nan(""), 0.2)), Error);
  EXPECT_THROW(c.add(Gate::rx(0, c.param("theta") * inf)), Error);
  EXPECT_EQ(c.num_gates(), 0u);
}

TEST(Circuit, DepthLinearChain) {
  Circuit c(2);
  for (int i = 0; i < 5; ++i) c.add(Gate::h(0));
  EXPECT_EQ(c.depth(), 5u);
  c.add(Gate::h(1));  // parallel with the chain
  EXPECT_EQ(c.depth(), 5u);
}

TEST(Circuit, DepthTwoQubitSync) {
  Circuit c(3);
  c.add(Gate::h(0));      // level 1
  c.add(Gate::h(1));      // level 1
  c.add(Gate::cx(0, 1));  // level 2
  c.add(Gate::h(2));      // level 1
  c.add(Gate::cx(1, 2));  // level 3
  EXPECT_EQ(c.depth(), 3u);
}

TEST(Circuit, Histogram) {
  Circuit c(3);
  c.add(Gate::h(0));
  c.add(Gate::h(1));
  c.add(Gate::cx(0, 1));
  const auto hist = c.gate_histogram();
  EXPECT_EQ(hist.at("h"), 2u);
  EXPECT_EQ(hist.at("cx"), 1u);
}

TEST(Circuit, UsedQubits) {
  Circuit c(10);
  c.add(Gate::cx(2, 7));
  c.add(Gate::h(2));
  EXPECT_EQ(c.used_qubits(), 2u);
}

TEST(Circuit, MemoryBytes) {
  Circuit c(10);
  EXPECT_EQ(c.memory_bytes(), (Index{1} << 10) * 16);
}

TEST(Circuit, AppendChecksWidth) {
  Circuit a(3), b(2);
  b.add(Gate::h(1));
  a.append(b);
  EXPECT_EQ(a.num_gates(), 1u);
  Circuit wide(5);
  wide.add(Gate::h(4));
  EXPECT_THROW(b.append(wide), Error);
}

TEST(Circuit, EqualityIgnoresName) {
  Circuit a(2, "a"), b(2, "b");
  a.add(Gate::cx(0, 1));
  b.add(Gate::cx(0, 1));
  EXPECT_TRUE(a == b);
  b.add(Gate::h(0));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace hisim
