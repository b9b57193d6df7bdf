#include "obs/event_bus.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace woha::obs {
namespace {

TEST(EventBus, InactiveUntilSubscribed) {
  EventBus bus;
  EXPECT_FALSE(bus.active());
  EXPECT_EQ(bus.subscriber_count(), 0u);

  // Publishing to an empty bus is a no-op and is not counted: publishers
  // guard with active(), so a counted publish would overstate traffic.
  bus.publish(SimTime{5}, JobActivated{1, 2});
  EXPECT_EQ(bus.published(), 0u);

  const auto id = bus.subscribe([](const Event&) {});
  EXPECT_TRUE(bus.active());
  bus.unsubscribe(id);
  EXPECT_FALSE(bus.active());
}

TEST(EventBus, HandlersFireInSubscriptionOrder) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe([&order](const Event&) { order.push_back(1); });
  bus.subscribe([&order](const Event&) { order.push_back(2); });
  bus.subscribe([&order](const Event&) { order.push_back(3); });

  bus.publish(SimTime{0}, WorkflowFailed{7});
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(bus.published(), 1u);
}

TEST(EventBus, UnsubscribeMiddleKeepsOthers) {
  EventBus bus;
  std::vector<int> order;
  bus.subscribe([&order](const Event&) { order.push_back(1); });
  const auto second = bus.subscribe([&order](const Event&) { order.push_back(2); });
  bus.subscribe([&order](const Event&) { order.push_back(3); });

  bus.unsubscribe(second);
  bus.unsubscribe(9999);  // unknown id: no-op
  bus.publish(SimTime{0}, WorkflowFailed{7});
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventBus, ConveniencePublishStampsTime) {
  EventBus bus;
  SimTime seen = 0;
  std::uint32_t workflow = 0;
  bus.subscribe([&](const Event& e) {
    seen = e.time;
    workflow = std::get<JobCompleted>(e.payload).workflow;
  });
  bus.publish(SimTime{1234}, JobCompleted{42, 3});
  EXPECT_EQ(seen, 1234);
  EXPECT_EQ(workflow, 42u);
}

TEST(EventBus, KindNamesAreStable) {
  EXPECT_STREQ(kind_name(Payload(TaskStarted{})), "task-started");
  EXPECT_STREQ(kind_name(Payload(TaskEnded{})), "task-ended");
  EXPECT_STREQ(kind_name(Payload(SchedulerDecision{})), "scheduler-decision");
  EXPECT_STREQ(kind_name(Payload(TrackerCrashed{})), "tracker-crashed");
}

}  // namespace
}  // namespace woha::obs
