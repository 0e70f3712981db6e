// Outside-in layer timing for the repo benchmark.
//
// Nothing here reaches into the library: the per-layer numbers come from
// forwarding decorators around the public seams the engine calls through
// (core::Scheduler, core::Algorithm, core::TraceSink) and from spans the
// benchmark opens around its own direct calls into run::, core:: and
// trace::. Per-call work (millions of scheduler/algorithm/sink calls) is
// folded into a LayerTimer — count plus busy seconds — so the hot path
// pays two clock reads and never allocates; coarse boundaries (set-up,
// each engine chunk, analysis, replay, the batch) become Span records,
// kept in memory and written out once, when the benchmark ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/algorithm.hpp"
#include "core/scheduler.hpp"
#include "core/trace_sink.hpp"

namespace perfbench {

/// Monotonic seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Busy time and call count of one layer.
struct LayerTimer {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};

/// One timed region: name, start, end, and the span that enclosed it
/// (-1 for a root). All spans of one benchmark run share the run id that
/// SpanLog::to_json stamps on the document.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

/// In-memory span store with an open-span stack, so nested scopes record
/// their causing span without the caller threading ids around.
class SpanLog {
 public:
  int open(std::string name);
  void close(int id);
  /// Self time of every span name: duration minus the part of its interval
  /// covered by its direct children, summed over spans of that name.
  [[nodiscard]] std::vector<std::pair<std::string, double>> self_times() const;
  /// One JSON document {"run_id": ..., "spans": [...], "self_s": {...}}.
  [[nodiscard]] std::string to_json(std::string_view run_id) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span. A null log makes it free, which is how untraced runs share
/// the traced code path.
class Scope {
 public:
  Scope(SpanLog* log, std::string name) : log_(log), id_(log ? log->open(std::move(name)) : -1) {}
  ~Scope() {
    if (log_) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

class TimedScheduler final : public cohesion::core::Scheduler {
 public:
  explicit TimedScheduler(cohesion::core::Scheduler& inner) : inner_(inner) {}
  std::optional<cohesion::core::Activation> next(
      const cohesion::core::SimulationView& view) override;
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] const LayerTimer& timer() const { return timer_; }

 private:
  cohesion::core::Scheduler& inner_;
  LayerTimer timer_;
};

class TimedAlgorithm final : public cohesion::core::Algorithm {
 public:
  explicit TimedAlgorithm(const cohesion::core::Algorithm& inner) : inner_(inner) {}
  [[nodiscard]] cohesion::geom::Vec2 compute(
      const cohesion::core::Snapshot& snapshot) const override;
  [[nodiscard]] std::string_view name() const override { return inner_.name(); }
  [[nodiscard]] const LayerTimer& timer() const { return timer_; }
  /// Visible neighbours summed over every snapshot computed on.
  [[nodiscard]] std::uint64_t neighbours() const { return neighbours_; }

 private:
  const cohesion::core::Algorithm& inner_;
  // compute() is const by interface (obliviousness); the counters are the
  // decorator's own bookkeeping, not algorithm state.
  mutable LayerTimer timer_;
  mutable std::uint64_t neighbours_ = 0;
};

class TimedSink final : public cohesion::core::TraceSink {
 public:
  explicit TimedSink(cohesion::core::TraceSink& inner) : inner_(inner) {}
  void append(const cohesion::core::ActivationRecord& rec) override;
  void finish() override;
  [[nodiscard]] const LayerTimer& timer() const { return timer_; }

 private:
  cohesion::core::TraceSink& inner_;
  LayerTimer timer_;
};

}  // namespace perfbench
