#include "hadoop/cluster.hpp"

#include <gtest/gtest.h>

namespace woha::hadoop {
namespace {

TEST(ClusterConfig, Paper80Servers) {
  const auto c = ClusterConfig::paper_80_servers();
  EXPECT_EQ(c.num_trackers, 80u);
  EXPECT_EQ(c.total_map_slots(), 160u);
  EXPECT_EQ(c.total_reduce_slots(), 80u);
  EXPECT_EQ(c.total_slots(), 240u);
  EXPECT_EQ(c.heartbeat_period, seconds(3));
}

TEST(ClusterConfig, Paper32Slaves) {
  const auto c = ClusterConfig::paper_32_slaves();
  EXPECT_EQ(c.total_map_slots(), 64u);
  EXPECT_EQ(c.total_reduce_slots(), 32u);
}

TEST(ClusterConfig, WithTotalsExact) {
  for (const auto& [m, r] : {std::pair{200u, 200u}, {240u, 240u}, {280u, 280u},
                             {3u, 3u}, {64u, 32u}, {7u, 5u}}) {
    const auto c = ClusterConfig::with_totals(m, r);
    EXPECT_EQ(c.total_map_slots(), m) << m << "m-" << r << "r";
    EXPECT_EQ(c.total_reduce_slots(), r) << m << "m-" << r << "r";
    EXPECT_LE(c.num_trackers, 128u);
    EXPECT_GE(c.num_trackers, 1u);
  }
}

TEST(ClusterConfig, WithTotalsRejectsZero) {
  EXPECT_THROW((void)ClusterConfig::with_totals(0, 10), std::invalid_argument);
  EXPECT_THROW((void)ClusterConfig::with_totals(10, 0), std::invalid_argument);
}

// Small coprime totals still fit on a single tracker and must stay valid.
TEST(ClusterConfig, WithTotalsSmallCoprimeIsValid) {
  const auto c = ClusterConfig::with_totals(2, 1);
  EXPECT_EQ(c.num_trackers, 1u);
  EXPECT_EQ(c.total_map_slots(), 2u);
  EXPECT_EQ(c.total_reduce_slots(), 1u);
}

// Regression: with_totals(200, 1) used to silently produce a single tracker
// carrying 200 map slots — a zero-parallelism "cluster". Near-coprime totals
// that cannot be split into realistic trackers must be rejected loudly.
TEST(ClusterConfig, WithTotalsRejectsDegenerateCoprime) {
  EXPECT_THROW((void)ClusterConfig::with_totals(200, 1), std::invalid_argument);
  EXPECT_THROW((void)ClusterConfig::with_totals(1, 200), std::invalid_argument);
  EXPECT_THROW((void)ClusterConfig::with_totals(131, 7), std::invalid_argument);
}

TEST(TrackerState, OccupyRelease) {
  TrackerState t(2, 1);
  EXPECT_EQ(t.free_slots(SlotType::kMap), 2u);
  t.occupy(SlotType::kMap);
  t.occupy(SlotType::kMap);
  EXPECT_EQ(t.free_slots(SlotType::kMap), 0u);
  EXPECT_THROW(t.occupy(SlotType::kMap), std::logic_error);
  t.release(SlotType::kMap);
  EXPECT_EQ(t.free_slots(SlotType::kMap), 1u);
  // Map and reduce slots are independent pools.
  EXPECT_EQ(t.free_slots(SlotType::kReduce), 1u);
  t.occupy(SlotType::kReduce);
  EXPECT_THROW(t.occupy(SlotType::kReduce), std::logic_error);
}

TEST(TrackerState, ReleaseBeyondCapacityThrows) {
  TrackerState t(1, 1);
  EXPECT_THROW(t.release(SlotType::kMap), std::logic_error);
}

TEST(Cluster, AggregateCountsStayInSync) {
  ClusterConfig config;
  config.num_trackers = 3;
  config.map_slots_per_tracker = 2;
  config.reduce_slots_per_tracker = 1;
  Cluster cluster(config);
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 6u);

  cluster.occupy(0, SlotType::kMap);
  cluster.occupy(1, SlotType::kMap);
  cluster.occupy(1, SlotType::kReduce);
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 4u);
  EXPECT_EQ(cluster.total_free(SlotType::kReduce), 2u);

  cluster.release(0, SlotType::kMap);
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 5u);
}

TEST(Cluster, RejectsZeroTrackers) {
  ClusterConfig config;
  config.num_trackers = 0;
  EXPECT_THROW(Cluster{config}, std::invalid_argument);
}

TEST(Cluster, OutOfRangeTrackerThrows) {
  Cluster cluster(ClusterConfig::paper_32_slaves());
  EXPECT_THROW(cluster.occupy(32, SlotType::kMap), std::out_of_range);
}

using Life = TrackerState::Life;
using Drain = TrackerState::Drain;

// A crashed tracker keeps its slots pooled until the master declares it
// lost; the restart returns them all.
TEST(ClusterLifecycle, CrashDetectRestartKeepsThePoolInStep) {
  ClusterConfig config;
  config.num_trackers = 2;
  config.map_slots_per_tracker = 1;
  Cluster cluster(config);
  cluster.occupy(0, SlotType::kMap);
  const std::uint64_t epoch = cluster.crash(0, seconds(5));  // holds a task
  EXPECT_EQ(cluster.tracker(0).life(), Life::kDown);
  EXPECT_EQ(cluster.tracker(0).crash_time(), seconds(5));
  EXPECT_EQ(cluster.tracker(0).epoch(), epoch);
  EXPECT_FALSE(cluster.tracker(0).takes_work());
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 1u);
  EXPECT_THROW(cluster.declare_lost(0), std::logic_error);  // slot still held

  cluster.release(0, SlotType::kMap);  // loss detection reconciles the slot
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 2u);
  cluster.declare_lost(0);
  EXPECT_EQ(cluster.tracker(0).life(), Life::kLost);
  EXPECT_EQ(cluster.tracker(0).epoch(), epoch);  // the restart must still fire
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 1u);
  EXPECT_EQ(cluster.total_free(SlotType::kReduce), 1u);

  cluster.restart(0);
  EXPECT_EQ(cluster.tracker(0).life(), Life::kUp);
  EXPECT_GT(cluster.tracker(0).epoch(), epoch);
  EXPECT_TRUE(cluster.tracker(0).takes_work());
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 2u);
  EXPECT_EQ(cluster.total_free(SlotType::kReduce), 2u);
}

TEST(ClusterLifecycle, SecondCrashOfADownTrackerThrows) {
  ClusterConfig config;
  config.num_trackers = 3;
  Cluster cluster(config);
  cluster.crash(1, 0);
  EXPECT_TRUE(cluster.tracker(1).down());
  EXPECT_THROW(cluster.crash(1, 0), std::logic_error);
  EXPECT_THROW(cluster.restart(1), std::logic_error);  // not declared lost yet
  cluster.declare_lost(1);
  EXPECT_THROW(cluster.crash(1, 0), std::logic_error);
  EXPECT_THROW(cluster.declare_lost(1), std::logic_error);
}

// A drain survives a crash and dies with the restart; every transition a
// pending event can be overtaken by moves the epoch.
TEST(ClusterLifecycle, DrainRetireAndJoin) {
  ClusterConfig config;
  config.num_trackers = 2;
  Cluster cluster(config);
  const std::uint64_t drained = cluster.begin_drain(0, Drain::kDecommission);
  EXPECT_EQ(cluster.tracker(0).drain(), Drain::kDecommission);
  EXPECT_FALSE(cluster.tracker(0).takes_work());
  EXPECT_THROW(cluster.begin_drain(0, Drain::kPreemption), std::logic_error);
  const std::uint64_t crashed = cluster.crash(0, seconds(1));
  EXPECT_GT(crashed, drained);
  EXPECT_EQ(cluster.tracker(0).drain(), Drain::kDecommission);
  cluster.declare_lost(0);
  cluster.restart(0);
  EXPECT_EQ(cluster.tracker(0).drain(), Drain::kNone);
  EXPECT_GT(cluster.tracker(0).epoch(), crashed);

  cluster.begin_drain(1, Drain::kPreemption);
  cluster.occupy(1, SlotType::kReduce);
  EXPECT_THROW(cluster.retire(1), std::logic_error);  // still running a task
  cluster.release(1, SlotType::kReduce);
  const std::uint64_t before = cluster.tracker(1).epoch();
  cluster.retire(1);
  EXPECT_EQ(cluster.tracker(1).life(), Life::kRetired);
  EXPECT_EQ(cluster.tracker(1).drain(), Drain::kNone);
  EXPECT_GT(cluster.tracker(1).epoch(), before);
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 2u);
  EXPECT_THROW(cluster.crash(1, 0), std::logic_error);

  EXPECT_EQ(cluster.add_tracker(), 2u);
  EXPECT_TRUE(cluster.tracker(2).takes_work());
  EXPECT_EQ(cluster.total_free(SlotType::kMap), 4u);
}

}  // namespace
}  // namespace woha::hadoop
