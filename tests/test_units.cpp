#include "common/units.hpp"

#include <gtest/gtest.h>

namespace pcap {
namespace {

using namespace pcap::literals;

TEST(Units, WattsArithmetic) {
  const Watts a{100.0};
  const Watts b{50.0};
  EXPECT_DOUBLE_EQ((a + b).value(), 150.0);
  EXPECT_DOUBLE_EQ((a - b).value(), 50.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 200.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 200.0);
  EXPECT_DOUBLE_EQ((a / 4.0).value(), 25.0);
  EXPECT_DOUBLE_EQ(a / b, 2.0);  // ratio is dimensionless
}

TEST(Units, Comparisons) {
  EXPECT_LT(Watts{1.0}, Watts{2.0});
  EXPECT_GT(Watts{3.0}, Watts{2.0});
  EXPECT_EQ(Watts{2.0}, Watts{2.0});
  EXPECT_LE(Watts{2.0}, Watts{2.0});
  EXPECT_NE(Watts{2.0}, Watts{2.1});
}

TEST(Units, CompoundAssignment) {
  Watts w{10.0};
  w += Watts{5.0};
  EXPECT_DOUBLE_EQ(w.value(), 15.0);
  w -= Watts{3.0};
  EXPECT_DOUBLE_EQ(w.value(), 12.0);
  w *= 0.5;
  EXPECT_DOUBLE_EQ(w.value(), 6.0);
}

TEST(Units, Negation) {
  EXPECT_DOUBLE_EQ((-Watts{7.0}).value(), -7.0);
}

TEST(Units, PowerTimesTimeIsEnergy) {
  const Joules e = Watts{100.0} * Seconds{60.0};
  EXPECT_DOUBLE_EQ(e.value(), 6000.0);
  const Joules e2 = Seconds{60.0} * Watts{100.0};
  EXPECT_DOUBLE_EQ(e2.value(), 6000.0);
}

TEST(Units, EnergyOverTimeIsPower) {
  const Watts p = Joules{6000.0} / Seconds{60.0};
  EXPECT_DOUBLE_EQ(p.value(), 100.0);
}

TEST(Units, Literals) {
  EXPECT_DOUBLE_EQ((5_kW).value(), 5000.0);
  EXPECT_DOUBLE_EQ((1.5_kW).value(), 1500.0);
  EXPECT_DOUBLE_EQ((100_W).value(), 100.0);
  EXPECT_DOUBLE_EQ((2_h).value(), 7200.0);
  EXPECT_DOUBLE_EQ((5_min).value(), 300.0);
  EXPECT_DOUBLE_EQ((2.93_GHz).value(), 2.93e9);
  EXPECT_DOUBLE_EQ((800_MHz).value(), 8e8);
  EXPECT_DOUBLE_EQ((1_GiB).value(), 1073741824.0);
}

TEST(Units, HertzGigahertzAccessor) {
  EXPECT_DOUBLE_EQ((2.93_GHz).gigahertz(), 2.93);
}

TEST(Units, BytesMegabytes) {
  EXPECT_DOUBLE_EQ((512_MiB).megabytes(), 512.0);
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_DOUBLE_EQ(Watts{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(Seconds{}.value(), 0.0);
}

}  // namespace
}  // namespace pcap
