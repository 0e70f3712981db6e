#include "core/validators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace cohesion::core {

namespace {

struct Interval {
  RobotId robot;
  Time start, end;
};

/// The trace's intervals sorted by start. Sorting needs a strict weak
/// ordering, so a non-finite endpoint is rejected first.
std::vector<Interval> sorted_intervals(const Trace& trace, const char* caller) {
  std::vector<Interval> out;
  out.reserve(trace.records().size());
  for (const ActivationRecord& rec : trace.records()) {
    if (!std::isfinite(rec.start()) || !std::isfinite(rec.end())) {
      throw std::invalid_argument(std::string(caller) + ": record " +
                                  std::to_string(out.size()) +
                                  " has a non-finite t_look or t_move_end");
    }
    out.push_back({rec.activation.robot, rec.start(), rec.end()});
  }
  // Engine traces are in Look order already, up to the 1e-12 backward
  // slack; neither validator depends on the order among equal starts.
  if (!std::ranges::is_sorted(out, {}, &Interval::start)) {
    std::ranges::sort(out, {}, &Interval::start);
  }
  return out;
}

constexpr double kEps = kScheduleEps;

}  // namespace

std::size_t max_activations_within_interval(const Trace& trace) {
  const auto ivals = sorted_intervals(trace, "max_activations_within_interval");
  std::vector<std::size_t> counts(trace.robot_count(), 0);
  std::size_t worst = 0;
  for (const Interval& outer : ivals) {
    // The Looks with outer.start + kEps < start < outer.end - kEps.
    const auto lo = std::ranges::upper_bound(ivals, outer.start + kEps, {}, &Interval::start);
    const auto hi = std::ranges::lower_bound(ivals, outer.end - kEps, {}, &Interval::start);
    if (lo >= hi) continue;  // empty, or end < start
    for (auto it = lo; it != hi; ++it) {
      if (it->robot != outer.robot) worst = std::max(worst, ++counts[it->robot]);
    }
    for (auto it = lo; it != hi; ++it) counts[it->robot] = 0;
  }
  return worst;
}

bool is_nested_activation(const Trace& trace) {
  // With a.start <= b.start, a and b (of distinct robots) cross iff
  //   a.start < b.start - kEps, a.end > b.start + kEps, a.end + kEps < b.end.
  // Sweep b in start order over the ends of the intervals that pass the
  // first test; the other two ask for an end in (b.start + kEps, b.end - kEps).
  const auto ivals = sorted_intervals(trace, "is_nested_activation");
  std::multiset<std::pair<Time, RobotId>> open_ends;
  std::size_t admitted = 0;
  for (const Interval& b : ivals) {
    for (; admitted < ivals.size() && ivals[admitted].start < b.start - kEps; ++admitted) {
      open_ends.emplace(ivals[admitted].end, ivals[admitted].robot);
    }
    // Ends at or below b.start + kEps fail the second test for every later b.
    while (!open_ends.empty() && open_ends.begin()->first <= b.start + kEps) {
      open_ends.erase(open_ends.begin());
    }
    for (auto it = open_ends.begin(); it != open_ends.end() && it->first + kEps < b.end; ++it) {
      if (it->second != b.robot) return false;
    }
  }
  return true;
}

bool is_k_nesta(const Trace& trace, std::size_t k) {
  return is_nested_activation(trace) && max_activations_within_interval(trace) <= k;
}

bool is_k_async(const Trace& trace, std::size_t k) {
  return max_activations_within_interval(trace) <= k;
}

bool is_ssync(const Trace& trace, double round_length) {
  for (const ActivationRecord& rec : trace.records()) {
    const Time start = rec.start();
    const Time end = rec.end();
    const double round = std::floor(start / round_length + kEps);
    const Time r0 = round * round_length;
    const Time r1 = r0 + round_length;
    if (start < r0 - kEps || end > r1 + kEps) return false;
  }
  return true;
}

bool is_fair(const Trace& trace, Time window) {
  const std::size_t n = trace.robot_count();
  std::vector<Time> last(n, 0.0);
  for (const ActivationRecord& rec : trace.records()) {
    const RobotId r = rec.activation.robot;
    if (rec.start() - last[r] > window + kEps) return false;
    last[r] = rec.start();
  }
  return true;
}

}  // namespace cohesion::core
