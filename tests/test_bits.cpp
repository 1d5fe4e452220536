#include "common/bits.hpp"

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"

namespace hisim::bits {
namespace {

TEST(Bits, TestBit) {
  EXPECT_TRUE(test(0b1010, 1));
  EXPECT_FALSE(test(0b1010, 0));
  EXPECT_TRUE(test(Index{1} << 63, 63));
}

TEST(Bits, WithBit) {
  EXPECT_EQ(with_bit(0b1010, 0, true), 0b1011u);
  EXPECT_EQ(with_bit(0b1010, 1, false), 0b1000u);
  EXPECT_EQ(with_bit(0, 5, true), 0b100000u);
}

TEST(Bits, InsertZeroShiftsHighBits) {
  EXPECT_EQ(insert_zero(0b1011, 1), 0b10101u);
  EXPECT_EQ(insert_zero(0b111, 0), 0b1110u);
  EXPECT_EQ(insert_zero(0b111, 3), 0b0111u);
  EXPECT_EQ(insert_zero(0, 4), 0u);
}

TEST(Bits, InsertZeroEnumeratesPairBases) {
  // For qubit q, {insert_zero(m, q)} must be exactly the indices with
  // bit q == 0.
  const unsigned n = 5, q = 2;
  std::set<Index> seen;
  for (Index m = 0; m < (Index{1} << (n - 1)); ++m) {
    const Index i = insert_zero(m, q);
    EXPECT_FALSE(test(i, q));
    seen.insert(i);
  }
  EXPECT_EQ(seen.size(), Index{1} << (n - 1));
}

TEST(Bits, DepositExtractRoundTrip) {
  Rng rng(42);
  for (int trial = 0; trial < 200; ++trial) {
    const Index mask = rng.next() & 0xFFFFFFFFull;
    const unsigned k = popcount(mask);
    const Index x = rng.next() & ((k >= 64 ? ~Index{0} : (Index{1} << k) - 1));
    const Index d = deposit(x, mask);
    EXPECT_EQ(d & ~mask, 0u);
    EXPECT_EQ(extract(d, mask), x);
  }
}

// Gather and scatter walk a part's mask with off = (off - mask) & mask:
// starting at 0 it visits deposit(t, mask) for t = 0, 1, ... in order.
TEST(Bits, SubmaskWalkEqualsDeposit) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    Index mask = rng.next() & 0xFFFFFull;  // up to 20 bits
    if (trial == 0) mask = 0;
    const Index count = Index{1} << popcount(mask);
    Index off = 0;
    for (Index t = 0; t < count; ++t, off = (off - mask) & mask)
      ASSERT_EQ(off, deposit(t, mask)) << "mask " << mask << " t " << t;
    EXPECT_EQ(off, 0u);  // the walk wraps back to the start
  }
}

TEST(Bits, DepositOrderedLowToHigh) {
  EXPECT_EQ(deposit(0b11, 0b1010), 0b1010u);
  EXPECT_EQ(deposit(0b01, 0b1010), 0b0010u);
  EXPECT_EQ(deposit(0b10, 0b1010), 0b1000u);
}

TEST(Bits, Pow2AndLog) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(Index{1} << 40));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(6));
  EXPECT_EQ(log2_floor(1), 0u);
  EXPECT_EQ(log2_floor(Index{1} << 40), 40u);
  EXPECT_EQ(log2_floor((Index{1} << 40) + 5), 40u);
}

TEST(Bits, DepositComplementPartitionsIndexSpace) {
  // base from ~mask plus offsets from mask must cover [0, 2^n) uniquely.
  const unsigned n = 6;
  const Index mask = 0b011010;
  const Index inv = ~mask & ((Index{1} << n) - 1);
  const unsigned k = popcount(mask);
  std::set<Index> seen;
  for (Index m = 0; m < (Index{1} << (n - k)); ++m)
    for (Index t = 0; t < (Index{1} << k); ++t)
      seen.insert(deposit(m, inv) | deposit(t, mask));
  EXPECT_EQ(seen.size(), Index{1} << n);
}

}  // namespace
}  // namespace hisim::bits
