#include "common/id_table.hpp"

#include <gtest/gtest.h>

namespace pcap::common {
namespace {

TEST(IdTable, EmptyTableCoversNothing) {
  const IdTable<int> t;
  EXPECT_EQ(t.begin_id(), t.end_id());
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(7), nullptr);
}

TEST(IdTable, ResetCoversExactlyTheSpan) {
  IdTable<int> t;
  t.reset(100, 103, -1);
  EXPECT_EQ(t.begin_id(), 100u);
  EXPECT_EQ(t.end_id(), 104u);
  EXPECT_EQ(t.find(99), nullptr);
  EXPECT_EQ(t.find(104), nullptr);
  ASSERT_NE(t.find(100), nullptr);
  EXPECT_EQ(*t.find(103), -1);
  t[101] = 5;
  EXPECT_EQ(*t.find(101), 5);
  t.clear();
  EXPECT_EQ(t.find(101), nullptr);
}

TEST(IdTable, TouchWidensEitherEndAndKeepsEntries) {
  IdTable<int> t;
  t.touch(50) = 1;
  EXPECT_EQ(t.begin_id(), 50u);
  EXPECT_EQ(t.end_id(), 51u);
  t.touch(53) = 4;  // grow the high end
  t.touch(48) = 9;  // grow the low end: existing entries shift with it
  EXPECT_EQ(t.begin_id(), 48u);
  EXPECT_EQ(t.end_id(), 54u);
  EXPECT_EQ(t[48], 9);
  EXPECT_EQ(t[49], 0);  // value-initialised
  EXPECT_EQ(t[50], 1);
  EXPECT_EQ(t[53], 4);
}

TEST(IdTable, CoverWidensOnceAndIteratesInIdOrder) {
  IdTable<int> t;
  t.touch(10) = 10;
  t.cover(7, 12);
  t.cover(8, 9);  // already covered: no change
  EXPECT_EQ(t.begin_id(), 7u);
  EXPECT_EQ(t.end_id(), 13u);
  for (std::size_t id = t.begin_id(); id < t.end_id(); ++id) {
    EXPECT_EQ(t[id], id == 10 ? 10 : 0) << id;
  }
}

}  // namespace
}  // namespace pcap::common
