// Reference implementations of the two interval validators: the direct
// O(A²) pair loops over the trace. core::max_activations_within_interval and
// core::is_nested_activation must agree with them on every trace
// (validators_oracle_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "core/trace.hpp"

namespace cohesion::core::oracle {

namespace detail {

struct Interval {
  RobotId robot;
  Time start, end;
};

inline std::vector<Interval> intervals_of(const Trace& trace) {
  std::vector<Interval> out;
  out.reserve(trace.records().size());
  for (const ActivationRecord& rec : trace.records()) {
    out.push_back({rec.activation.robot, rec.start(), rec.end()});
  }
  return out;
}

constexpr double kEps = 1e-9;

}  // namespace detail

inline std::size_t max_activations_within_interval(const Trace& trace) {
  using detail::Interval;
  using detail::kEps;
  const auto ivals = detail::intervals_of(trace);
  std::size_t worst = 0;
  const std::size_t n = trace.robot_count();
  for (const Interval& outer : ivals) {
    std::vector<std::size_t> counts(n, 0);
    for (const Interval& inner : ivals) {
      if (inner.robot == outer.robot) continue;
      if (inner.start > outer.start + kEps && inner.start < outer.end - kEps) {
        worst = std::max(worst, ++counts[inner.robot]);
      }
    }
  }
  return worst;
}

inline bool is_nested_activation(const Trace& trace) {
  using detail::Interval;
  using detail::kEps;
  const auto ivals = detail::intervals_of(trace);
  for (std::size_t i = 0; i < ivals.size(); ++i) {
    for (std::size_t j = i + 1; j < ivals.size(); ++j) {
      const Interval& a = ivals[i];
      const Interval& b = ivals[j];
      if (a.robot == b.robot) continue;
      // Disjoint?
      if (a.end <= b.start + kEps || b.end <= a.start + kEps) continue;
      // Nested?
      const bool a_in_b = a.start >= b.start - kEps && a.end <= b.end + kEps;
      const bool b_in_a = b.start >= a.start - kEps && b.end <= a.end + kEps;
      if (!a_in_b && !b_in_a) return false;
    }
  }
  return true;
}

}  // namespace cohesion::core::oracle
