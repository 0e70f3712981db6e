#include "core/validators.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

namespace cohesion::core {
namespace {

ActivationRecord rec(RobotId r, Time look, Time end) {
  ActivationRecord out;
  out.activation = {r, look, look, end, 1.0};
  return out;
}

Trace two_robot_trace(std::initializer_list<ActivationRecord> recs) {
  Trace t({{0.0, 0.0}, {1.0, 0.0}});
  for (const auto& r : recs) t.record(r);
  return t;
}

TEST(Validators, DisjointIntervalsAreOneAsyncAndNested) {
  const Trace t = two_robot_trace({rec(0, 0.0, 1.0), rec(1, 2.0, 3.0), rec(0, 4.0, 5.0)});
  EXPECT_EQ(max_activations_within_interval(t), 0u);
  EXPECT_TRUE(is_nested_activation(t));
  EXPECT_TRUE(is_k_async(t, 1));
  EXPECT_TRUE(is_k_nesta(t, 1));
}

TEST(Validators, SingleNestedActivation) {
  const Trace t = two_robot_trace({rec(0, 0.0, 10.0), rec(1, 2.0, 3.0)});
  EXPECT_EQ(max_activations_within_interval(t), 1u);
  EXPECT_TRUE(is_nested_activation(t));
  EXPECT_TRUE(is_k_nesta(t, 1));
  EXPECT_FALSE(is_k_nesta(t, 0));
}

TEST(Validators, CrossingIntervalsNotNested) {
  const Trace t = two_robot_trace({rec(0, 0.0, 5.0), rec(1, 3.0, 8.0)});
  EXPECT_FALSE(is_nested_activation(t));
  EXPECT_EQ(max_activations_within_interval(t), 1u);
  EXPECT_TRUE(is_k_async(t, 1));
}

TEST(Validators, KCounting) {
  const Trace t = two_robot_trace(
      {rec(0, 0.0, 10.0), rec(1, 1.0, 2.0), rec(1, 3.0, 4.0), rec(1, 5.0, 6.0)});
  EXPECT_EQ(max_activations_within_interval(t), 3u);
  EXPECT_FALSE(is_k_async(t, 2));
  EXPECT_TRUE(is_k_async(t, 3));
  EXPECT_TRUE(is_k_nesta(t, 3));
}

TEST(Validators, TouchingEndpointsAreDisjoint) {
  const Trace t = two_robot_trace({rec(0, 0.0, 2.0), rec(1, 2.0, 4.0)});
  EXPECT_TRUE(is_nested_activation(t));
  EXPECT_EQ(max_activations_within_interval(t), 0u);
}

TEST(Validators, EqualIntervalsAreNested) {
  const Trace t = two_robot_trace({rec(0, 0.0, 1.0), rec(1, 0.0, 1.0)});
  EXPECT_TRUE(is_nested_activation(t));
}

TEST(Validators, SameRobotIntervalsIgnored) {
  // A robot's own successive intervals never count toward k.
  const Trace t = two_robot_trace({rec(0, 0.0, 1.0), rec(0, 2.0, 3.0), rec(0, 4.0, 5.0)});
  EXPECT_EQ(max_activations_within_interval(t), 0u);
}

TEST(Validators, SsyncShape) {
  Trace t({{0.0, 0.0}, {1.0, 0.0}});
  t.record(rec(0, 0.0, 0.75));
  t.record(rec(1, 0.0, 0.75));
  t.record(rec(0, 1.0, 1.75));
  EXPECT_TRUE(is_ssync(t, 1.0));
  t.record(rec(1, 2.5, 3.5));  // spans rounds 2 and 3
  EXPECT_FALSE(is_ssync(t, 1.0));
}

TEST(Validators, Fairness) {
  Trace t({{0.0, 0.0}, {1.0, 0.0}});
  t.record(rec(0, 0.0, 1.0));
  t.record(rec(1, 0.5, 1.5));
  t.record(rec(0, 3.0, 4.0));
  t.record(rec(1, 3.5, 4.5));
  EXPECT_TRUE(is_fair(t, 3.0));
  EXPECT_FALSE(is_fair(t, 2.0));
}

TEST(Validators, ThreeRobotChainedOverlaps) {
  // 0 and 1 cross, 1 and 2 cross: Async but not NestA; each contains one
  // look of the other => 1-Async.
  Trace t({{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}});
  t.record(rec(0, 0.0, 2.0));
  t.record(rec(1, 1.0, 3.0));
  t.record(rec(2, 2.5, 4.5));
  EXPECT_FALSE(is_nested_activation(t));
  EXPECT_TRUE(is_k_async(t, 1));
}

TEST(Validators, NonFiniteEndpointThrows) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const ActivationRecord& bad : {rec(1, nan, 3.0), rec(1, 2.0, inf), rec(1, -inf, 3.0)}) {
    const Trace t = two_robot_trace({rec(0, 0.0, 1.0), bad});
    EXPECT_THROW(max_activations_within_interval(t), std::invalid_argument);
    EXPECT_THROW(is_nested_activation(t), std::invalid_argument);
  }
}

}  // namespace
}  // namespace cohesion::core
