// TraceSink adapter over metrics::ConvergenceAccumulator: computes the
// ConvergenceReport a finished run would get from metrics::analyze, while
// the run is still producing records and without materializing a Trace.
// Attach to the engine (possibly through a TeeSink next to a
// StreamTraceWriter) or feed from a StreamTraceReader during replay —
// both routes produce bit-identical reports.
#pragma once

#include <optional>
#include <vector>

#include "core/trace_sink.hpp"
#include "geometry/vec2.hpp"
#include "metrics/online.hpp"

namespace cohesion::trace {

class OnlineMetrics final : public core::TraceSink {
 public:
  OnlineMetrics(const std::vector<geom::Vec2>& initial, double v, double epsilon,
                bool track_min_pairwise = false)
      : acc_(initial, v, epsilon, track_min_pairwise) {}

  void append(const core::ActivationRecord& rec) override { acc_.add(rec); }
  void finish() override {
    if (!report_) report_ = acc_.finish();
  }

  /// The final report. Calls finish() if the owner has not yet.
  [[nodiscard]] const metrics::ConvergenceReport& report() {
    finish();
    return *report_;
  }

  /// The live accumulator set: per-robot activation counts, end time,
  /// convergence-epsilon window, windowed min pairwise distance.
  [[nodiscard]] const metrics::ConvergenceAccumulator& accumulator() const { return acc_; }

 private:
  metrics::ConvergenceAccumulator acc_;
  std::optional<metrics::ConvergenceReport> report_;
};

}  // namespace cohesion::trace
