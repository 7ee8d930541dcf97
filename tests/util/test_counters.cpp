#include "sim/counters.hpp"

#include <gtest/gtest.h>

namespace fpgafu::sim {
namespace {

TEST(Counters, MergeAddsByNameAndCreatesMissing) {
  Counters a;
  a.bump("shared", 3);
  a.bump("only_a", 1);

  Counters b;
  b.bump("shared", 4);
  b.bump("only_b", 7);

  a.merge(b);
  EXPECT_EQ(a.get("shared"), 7u);
  EXPECT_EQ(a.get("only_a"), 1u);
  EXPECT_EQ(a.get("only_b"), 7u);
  // The source is untouched.
  EXPECT_EQ(b.get("shared"), 4u);
  EXPECT_EQ(b.size(), 2u);
}

TEST(Counters, HandlesStayValidAcrossMerges) {
  Counters a;
  const Counters::Handle shared = a.handle("shared");
  const Counters::Handle mine = a.handle("mine");
  a.bump(shared, 2);
  a.bump(mine, 5);

  // Merge a peer whose name table is larger, differently ordered, and
  // overlapping — pre-merge handles must keep their names and accumulate
  // in place (merge only appends to the name table).
  Counters b;
  b.bump("zeta", 9);
  b.bump("shared", 10);
  b.bump("alpha", 1);
  a.merge(b);

  EXPECT_EQ(a.name(shared), "shared");
  EXPECT_EQ(a.name(mine), "mine");
  EXPECT_EQ(a.get(shared), 12u);
  EXPECT_EQ(a.get(mine), 5u);
  EXPECT_EQ(a.get("zeta"), 9u);
  EXPECT_EQ(a.get("alpha"), 1u);

  // Interning after the merge still works and still keeps old handles.
  const Counters::Handle late = a.handle("late");
  a.bump(late, 1);
  a.bump(shared);
  EXPECT_EQ(a.get(shared), 13u);
  EXPECT_EQ(a.get("late"), 1u);
}

TEST(Counters, RepeatedMergeAccumulates) {
  // The farm merges fresh per-shard snapshots into a new aggregate each
  // time; merging the same source twice doubles — callers rebuild the
  // aggregate from snapshots instead of re-merging in place.
  Counters total;
  Counters shard;
  shard.bump("transport.retries", 2);
  total.merge(shard);
  total.merge(shard);
  EXPECT_EQ(total.get("transport.retries"), 4u);
}

TEST(Counters, SnapshotIsIndependent) {
  Counters live;
  const Counters::Handle h = live.handle("x");
  live.bump(h, 3);

  const Counters snap = live.snapshot();
  live.bump(h, 10);

  EXPECT_EQ(snap.get("x"), 3u);
  EXPECT_EQ(live.get("x"), 13u);
  // The snapshot's name table is a deep copy: its own handle resolution
  // works without touching the live object.
  EXPECT_EQ(snap.name(h), "x");
}

TEST(Counters, MergeEmptyIsANoOp) {
  Counters a;
  a.bump("k", 1);
  a.merge(Counters{});
  EXPECT_EQ(a.get("k"), 1u);
  EXPECT_EQ(a.size(), 1u);

  Counters empty;
  empty.merge(a);
  EXPECT_EQ(empty.get("k"), 1u);
}

}  // namespace
}  // namespace fpgafu::sim
