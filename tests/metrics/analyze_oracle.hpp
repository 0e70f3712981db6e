// Reference implementation of metrics::analyze: the rescan original.
// Round boundaries come from the full trace, the configuration at every
// sample is rebuilt through per-robot binary searches (Trace::configuration),
// and the cohesion stretch is taken over core::VisibilityGraph's edge list —
// independent of the accumulator's single-pass fold and of its
// core::VisiblePairs pair list. analyze(), OnlineMetrics (live and replay)
// and cohesion_replay must agree with it bit for bit
// (tests/trace/online_metrics_test.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "core/trace.hpp"
#include "core/visibility.hpp"
#include "geometry/convex_hull.hpp"
#include "metrics/stats.hpp"

namespace cohesion::metrics::oracle {

inline ConvergenceReport analyze_rescan(const core::Trace& trace, double v, double epsilon) {
  ConvergenceReport rep;
  rep.activations = trace.records().size();
  const auto& initial = trace.initial_configuration();
  rep.initial_diameter = geom::set_diameter(initial);
  const core::VisibilityGraph initial_graph(initial, v);

  std::vector<core::Time> samples = trace.round_boundaries();
  samples.push_back(trace.end_time() + 1.0);
  rep.rounds = samples.size() >= 2 ? samples.size() - 2 : 0;

  for (std::size_t i = 0; i < samples.size(); ++i) {
    const auto cfg = trace.configuration(samples[i]);
    const double diam = geom::set_diameter(cfg);
    if (rep.rounds_to_halve == 0 && i > 0 && diam <= rep.initial_diameter / 2.0) {
      rep.rounds_to_halve = i;
    }
    double stretch = 0.0;
    for (const auto& [a, b] : initial_graph.edges()) {
      stretch = std::max(stretch, cfg[a].distance_to(cfg[b]) / v);
    }
    rep.worst_stretch = std::max(rep.worst_stretch, stretch);
    if (stretch > 1.0 + 1e-9) rep.cohesive = false;
  }
  rep.final_diameter = geom::set_diameter(trace.configuration(trace.end_time() + 1.0));
  rep.converged = rep.final_diameter <= epsilon;
  return rep;
}

}  // namespace cohesion::metrics::oracle
