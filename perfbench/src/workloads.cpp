#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/engine.hpp"
#include "core/validators.hpp"
#include "layers.hpp"
#include "metrics/stats.hpp"
#include "run/batch_runner.hpp"
#include "run/instantiate.hpp"
#include "run/result_cache.hpp"
#include "run/spec.hpp"
#include "trace/online_metrics.hpp"
#include "trace/stream_reader.hpp"
#include "trace/stream_writer.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = cohesion::core;
namespace metrics = cohesion::metrics;
namespace run = cohesion::run;
namespace trace = cohesion::trace;
using run::Json;

// Workload sizes. Each repetition re-runs the identical seeded spec, so the
// medians are over repeats of one input; sizes are chosen so that several
// repetitions fit in one run of the benchmark.
constexpr std::size_t kFsyncN = 4096;
constexpr std::size_t kFsyncRounds = 16;
constexpr std::size_t kStreamN = 16384;
constexpr std::size_t kStreamActivations = 65536;
constexpr std::size_t kSweepRepeats = 12;
constexpr std::size_t kSweepRuns = 2 * 3 * kSweepRepeats;  // {kasync, knesta} x {16, 32, 64}
constexpr std::uint64_t kSweepK = 2;
constexpr std::size_t kSweepMaxActivations = 400000;
constexpr std::size_t kSweepMaxThreads = 4;
// Below the connectivity threshold (~ln n mean degree) the random
// generator's rejection loop dominates set-up; see README.md.
constexpr double kWorldRadiusPerSqrtN = 0.25;

/// What one repetition measured. `runs` counts simulations (1 for the
/// single-run workloads); a failed check fails the run it concerns.
struct Rep {
  double expand_s = 0.0;
  double instantiate_s = 0.0;
  double wall_s = 0.0;    ///< set-up end to checked report
  double run_s = 0.0;     ///< engine time (sweep: batch wall)
  double replay_s = 0.0;  ///< report rebuilt from the recorded history
  bool threw = false;     ///< the repetition threw: no timings, no report
  std::uint64_t acts = 0;
  std::uint64_t runs = 1;
  std::uint64_t failed_runs = 0;
  std::vector<std::string> failures;
  std::string report;  ///< canonical report bytes; traced must equal untraced
  std::map<std::string, double> layers;  ///< traced repetitions only

  [[nodiscard]] double setup_s() const { return expand_s + instantiate_s; }
  void check(bool ok, const std::string& what) {
    if (ok) return;
    failures.push_back(what);
    failed_runs = runs;
  }
};

/// Times `f` into `seconds` (always) and a span (when traced).
template <typename F>
auto timed(SpanLog* log, const char* name, double& seconds, F&& f) {
  Scope scope(log, name);
  const double t0 = now_s();
  if constexpr (std::is_void_v<decltype(f())>) {
    f();
    seconds = now_s() - t0;
  } else {
    auto result = f();
    seconds = now_s() - t0;
    return result;
  }
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

Json obj(std::initializer_list<std::pair<const char*, Json>> fields) {
  Json j = Json::object();
  for (const auto& [key, value] : fields) j.set(key, value);
  return j;
}

Json factory(const char* type, Json params) {
  return obj({{"type", type}, {"params", std::move(params)}});
}

Json random_initial() {
  return factory("random", obj({{"world_radius_per_sqrt_n", kWorldRadiusPerSqrtN}}));
}

/// The report fields a batch report stores for a run (cohesion_replay's
/// comparison set), plus the run's converged flag.
std::string report_text(const metrics::ConvergenceReport& r, bool converged) {
  return obj({{"converged", converged},
              {"cohesive", r.cohesive},
              {"initial_diameter", r.initial_diameter},
              {"final_diameter", r.final_diameter},
              {"rounds", r.rounds},
              {"rounds_to_halve", r.rounds_to_halve},
              {"activations", r.activations},
              {"worst_stretch", r.worst_stretch}})
      .dump();
}

/// Cohesion (paper: initially visible pairs stay visible).
bool cohesive(const metrics::ConvergenceReport& r) {
  return r.cohesive && r.worst_stretch <= 1.0;
}

// ---- single runs ---------------------------------------------------------

struct Built {
  run::RunSpec spec;
  run::RunInstance inst;
};

Built set_up_run(const std::string& spec_text, Rep& rep, SpanLog* log) {
  Scope scope(log, "setup");
  Built b;
  b.spec = timed(log, "run.expand", rep.expand_s,
                 [&] { return run::RunSpec::from_json(Json::parse(spec_text)); });
  b.inst = timed(log, "run.instantiate", rep.instantiate_s, [&] { return run::instantiate(b.spec); });
  return b;
}

/// The traced run's engine: the instance's own parts behind forwarding
/// decorators. The engine holds no scheduler or algorithm state of its
/// own before its first step, so this engine replays the untraced one.
struct Decorated {
  TimedScheduler sched;
  TimedAlgorithm algo;
  std::unique_ptr<core::Engine> engine;

  explicit Decorated(run::RunInstance& inst) : sched(*inst.scheduler), algo(*inst.algorithm) {
    inst.engine.reset();
    engine = std::make_unique<core::Engine>(inst.initial, algo, sched, inst.config);
  }
};

struct DriveTimes {
  LayerTimer run;
  LayerTimer diameter;
};

/// Engine::run_until from the outside: the same chunking and diameter
/// checks (stop rules here never set max_time or a predicate), with each
/// Engine::run chunk and current_diameter call timed.
bool drive(core::Engine& engine, const core::StopCondition& stop, DriveTimes& t, SpanLog* log) {
  const std::size_t check_every = std::max<std::size_t>(stop.check_every, 1);
  auto diameter_reached = [&] {
    Scope scope(log, "core.diameter");
    const double t0 = now_s();
    const double d = engine.current_diameter();
    t.diameter.seconds += now_s() - t0;
    ++t.diameter.calls;
    return d <= stop.epsilon;
  };
  std::size_t done = 0;
  while (done < stop.max_activations) {
    const std::size_t chunk = std::min(check_every, stop.max_activations - done);
    std::size_t got = 0;
    {
      Scope scope(log, "core.run");
      const double t0 = now_s();
      got = engine.run(chunk);
      t.run.seconds += now_s() - t0;
      ++t.run.calls;
    }
    done += got;
    if (got < chunk) return diameter_reached();
    if (diameter_reached()) return true;
  }
  return diameter_reached();
}

/// Engine-side layers of a traced single run. `sink_s` is time spent in
/// the trace sinks, which Engine::run includes.
void engine_layers(Rep& rep, const DriveTimes& t, const Decorated& d, double sink_s) {
  auto& L = rep.layers;
  L["core.engine_self_s"] = t.run.seconds - d.sched.timer().seconds - d.algo.timer().seconds - sink_s;
  L["core.acts"] = static_cast<double>(rep.acts);
  L["core.diameter_s"] = t.diameter.seconds;
  L["core.diameter.calls"] = static_cast<double>(t.diameter.calls);
  L["sched.next_s"] = d.sched.timer().seconds;
  L["sched.calls"] = static_cast<double>(d.sched.timer().calls);
  L["algo.compute_s"] = d.algo.timer().seconds;
  L["algo.calls"] = static_cast<double>(d.algo.timer().calls);
  L["algo.neighbours_mean"] =
      static_cast<double>(d.algo.neighbours()) /
      static_cast<double>(std::max<std::uint64_t>(d.algo.timer().calls, 1));
}

std::string fsync_spec(std::uint64_t seed) {
  return obj({{"name", "fsync_rebuild"},
              {"n", kFsyncN},
              {"seed", seed},
              {"algorithm", factory("kknps", obj({{"k", 1}}))},
              {"scheduler", factory("fsync", Json::object())},
              {"initial", random_initial()},
              // The SpatialGrid rebuilt once per round, not the
              // IncrementalGrid default (which kasync_stream measures).
              {"incremental_index", false},
              {"stop", obj({{"epsilon", 0.05},
                            {"max_activations", kFsyncRounds * kFsyncN},
                            {"check_every", kFsyncN}})}})
      .dump();
}

/// KKNPS(k=1) under FSync, in-memory trace, then metrics::analyze: the
/// per-round SpatialGrid rebuild path.
Rep fsync_rebuild(const Options& o, SpanLog* log) {
  Rep rep;
  Built b = set_up_run(fsync_spec(o.seed), rep, log);
  std::optional<Decorated> dec;
  if (log) dec.emplace(b.inst);
  core::Engine& engine = dec ? *dec->engine : *b.inst.engine;

  const double t_start = now_s();
  DriveTimes drive_t;
  const bool converged = timed(log, "engine", rep.run_s, [&] {
    return log ? drive(engine, b.spec.stop, drive_t, log) : engine.run_until(b.spec.stop);
  });
  const core::Trace& tr = engine.trace();
  const metrics::ConvergenceReport report = timed(log, "metrics.analyze", rep.replay_s, [&] {
    return metrics::analyze(tr, b.spec.visibility_radius, b.spec.stop.epsilon);
  });
  double validators_s = 0.0;
  const bool ssync = timed(log, "core.validators", validators_s, [&] { return core::is_ssync(tr); });
  rep.acts = tr.records().size();
  rep.check(cohesive(report), "fsync_rebuild: cohesion lost (worst_stretch " +
                                  std::to_string(report.worst_stretch) + ")");
  rep.check(ssync, "fsync_rebuild: trace is not SSync-shaped");
  rep.check(rep.acts == kFsyncRounds * kFsyncN && report.activations == rep.acts,
            "fsync_rebuild: " + std::to_string(rep.acts) + " activations, expected " +
                std::to_string(kFsyncRounds * kFsyncN));
  rep.report = report_text(report, converged);
  rep.wall_s = now_s() - t_start;

  if (dec) {
    engine_layers(rep, drive_t, *dec, 0.0);
    rep.layers["metrics.analyze_s"] = rep.replay_s;
    rep.layers["core.validators_s"] = validators_s;
    rep.layers["core.validators.records"] = static_cast<double>(rep.acts);
  }
  return rep;
}

std::string stream_path(const Options& o) {
  return (fs::path(o.work_dir) / ("kasync_stream-seed" + std::to_string(o.seed) + ".cohtrace"))
      .string();
}

std::string stream_spec(const Options& o) {
  return obj({{"name", "kasync_stream"},
              {"n", kStreamN},
              {"seed", o.seed},
              {"algorithm", factory("kknps", obj({{"k", 2}}))},
              {"scheduler", factory("kasync", obj({{"k", 2}, {"xi", 0.5}, {"heap_selection", true}}))},
              {"initial", random_initial()},
              {"stop", obj({{"epsilon", 0.05},
                            {"max_activations", kStreamActivations},
                            {"check_every", 4096}})},
              {"trace", obj({{"mode", "stream"}, {"path", stream_path(o)}})}})
      .dump();
}

// A stream-mode run's writer and OnlineMetrics are wired as BatchRunner
// wires them (the stream branch of execute() in src/run/batch_runner.cpp,
// which is not public). The untraced and the traced repetitions share this
// one copy, and run_workload fails the benchmark if the workload's report
// stops agreeing with BatchRunner's for the same spec.
trace::StreamHeader stream_header(const run::RunSpec& spec, const run::RunInstance& inst,
                                  std::uint64_t fingerprint) {
  trace::StreamHeader header;
  header.fingerprint = fingerprint;
  header.initial = inst.initial;
  header.visibility_radius = spec.visibility_radius;
  header.stop_epsilon = spec.stop.epsilon;
  return header;
}

trace::StreamWriterOptions writer_options(const run::RunSpec& spec) {
  trace::StreamWriterOptions wopts;
  wopts.flush_every_records = spec.trace.flush_every;
  wopts.index_every_records = spec.trace.index_every;
  return wopts;
}

/// KKNPS(k=2) under k-Async (heap selection) in bounded-memory mode —
/// StreamTraceWriter + OnlineMetrics — then a replay of the .cohtrace: the
/// IncrementalGrid path and the streaming trace layer.
Rep kasync_stream(const Options& o, SpanLog* log) {
  Rep rep;
  Built b = set_up_run(stream_spec(o), rep, log);
  const run::RunSpec& spec = b.spec;
  std::optional<Decorated> dec;
  if (log) dec.emplace(b.inst);
  core::Engine& engine = dec ? *dec->engine : *b.inst.engine;

  const double t_start = now_s();
  const std::uint64_t fingerprint = run::spec_fingerprint(spec);
  trace::OnlineMetrics online(b.inst.initial, spec.visibility_radius, spec.stop.epsilon);
  trace::StreamTraceWriter writer(spec.trace.path, stream_header(spec, b.inst, fingerprint),
                                  writer_options(spec));
  TimedSink timed_writer(writer);
  TimedSink timed_online(online);
  core::TeeSink tee(log ? std::vector<core::TraceSink*>{&timed_writer, &timed_online}
                        : std::vector<core::TraceSink*>{&writer, &online});
  engine.set_trace_sink(&tee);

  DriveTimes drive_t;
  const bool converged = timed(log, "engine", rep.run_s, [&] {
    return log ? drive(engine, spec.stop, drive_t, log) : engine.run_until(spec.stop);
  });
  tee.finish();
  const metrics::ConvergenceReport live = online.report();
  rep.acts = live.activations;

  // cohesion_replay --check: the stream alone must reproduce the report.
  std::uint64_t replayed_records = 0;
  bool clean = false;
  std::uint64_t stream_fingerprint = 0;
  const metrics::ConvergenceReport replayed = timed(log, "trace.replay", rep.replay_s, [&] {
    trace::StreamTraceReader reader(spec.trace.path);
    stream_fingerprint = reader.header().fingerprint;
    trace::OnlineMetrics again(reader.header().initial, reader.header().visibility_radius,
                               reader.header().stop_epsilon);
    core::ActivationRecord rec;
    while (reader.next(rec)) again.append(rec);
    replayed_records = reader.records_read();
    clean = reader.closed_cleanly() && !reader.truncated();
    return again.report();
  });
  const auto bytes = static_cast<double>(fs::file_size(spec.trace.path));
  fs::remove(spec.trace.path);

  rep.check(cohesive(live), "kasync_stream: cohesion lost (worst_stretch " +
                                std::to_string(live.worst_stretch) + ")");
  rep.check(live.activations == spec.stop.max_activations || converged,
            "kasync_stream: run stopped early at " + std::to_string(live.activations));
  rep.check(stream_fingerprint == fingerprint, "kasync_stream: stream fingerprint differs from spec");
  rep.check(clean && replayed_records == live.activations,
            "kasync_stream: stream torn or short (" + std::to_string(replayed_records) + " records)");
  rep.check(report_text(replayed, converged) == report_text(live, converged),
            "kasync_stream: replayed report differs from the live OnlineMetrics report");
  rep.report = report_text(live, converged) + run::fingerprint_hex(fingerprint);
  rep.wall_s = now_s() - t_start;

  if (dec) {
    const double write_s = timed_writer.timer().seconds;
    const double online_s = timed_online.timer().seconds;
    engine_layers(rep, drive_t, *dec, write_s + online_s);
    rep.layers["metrics.online_s"] = online_s;
    rep.layers["trace.write_s"] = write_s;
    rep.layers["trace.bytes"] = bytes;
    rep.layers["trace.replay_s"] = rep.replay_s;
    rep.layers["trace.replay_records_per_s"] = static_cast<double>(replayed_records) / rep.replay_s;
  }
  return rep;
}

// ---- the certified sweep --------------------------------------------------

std::string sweep_spec(std::uint64_t seed) {
  Json base = obj({{"name", "certified"},
                   {"n", 16},
                   {"seed", seed},
                   {"algorithm", factory("kknps", obj({{"k", kSweepK}}))},
                   {"scheduler", factory("kasync", obj({{"k", kSweepK}, {"xi", 0.5}}))},
                   {"initial", random_initial()},
                   {"stop", obj({{"epsilon", 0.05}, {"max_activations", kSweepMaxActivations}})}});
  Json types = Json::array();
  for (const char* t : {"kasync", "knesta"}) types.items().push_back(t);
  Json sizes = Json::array();
  for (int n : {16, 32, 64}) sizes.items().push_back(n);
  Json axes = Json::array();
  axes.items().push_back(obj({{"path", "scheduler.type"}, {"values", types}}));
  axes.items().push_back(obj({{"path", "n"}, {"values", sizes}}));
  return obj({{"name", "certified_sweep"},
              {"base", std::move(base)},
              {"repeats", kSweepRepeats},
              {"sweep", std::move(axes)}})
      .dump();
}

struct ValidatorClock {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> records{0};
};

/// The trace_metric hook that certifies every run's schedule class: the
/// k-Async bound for all runs, nesting for knesta. Returns the measured
/// bound, or -1 when a knesta trace is not nested.
std::function<double(const run::RunSpec&, const core::Engine&)> certify(ValidatorClock& clock) {
  return [&clock](const run::RunSpec& spec, const core::Engine& engine) {
    const double t0 = now_s();
    const core::Trace& tr = engine.trace();
    double k = static_cast<double>(core::max_activations_within_interval(tr));
    if (spec.scheduler.type == "knesta" && !core::is_nested_activation(tr)) k = -1.0;
    clock.ns += static_cast<std::uint64_t>((now_s() - t0) * 1e9);
    clock.records += tr.records().size();
    return k;
  };
}

std::size_t sweep_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, kSweepMaxThreads);
}

/// Cold-then-warm ResultCache pass over a finished sweep: every lookup of
/// the first pass misses and inserts, every lookup of the second hits and
/// must serve the recorded outcome.
void cache_layers(Rep& rep, const Options& o, const std::vector<run::ExpandedRun>& runs,
                  const run::BatchResult& result, SpanLog* log) {
  Scope scope(log, "run.cache");
  const fs::path dir = fs::path(o.work_dir) / ("cache-seed" + std::to_string(o.seed));
  fs::remove_all(dir);
  run::ResultCache cache(run::ResultCache::Options{dir.string(), false});
  double lookup_s = 0.0;
  double insert_s = 0.0;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    double t0 = now_s();
    const bool cold_hit = cache.lookup(runs[i]).has_value();
    lookup_s += now_s() - t0;
    t0 = now_s();
    cache.insert(runs[i], result.outcomes[i]);
    insert_s += now_s() - t0;
    rep.check(!cold_hit, "certified_sweep: cold cache served a hit");
  }
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const double t0 = now_s();
    const std::optional<run::RunOutcome> hit = cache.lookup(runs[i]);
    lookup_s += now_s() - t0;
    rep.check(hit && hit->to_json().dump() == result.outcomes[i].to_json().dump(),
              "certified_sweep: warm cache did not serve the recorded outcome");
  }
  const run::CacheStats stats = cache.stats();
  fs::remove_all(dir);
  rep.layers["run.cache.insert_s"] = insert_s;
  rep.layers["run.cache.lookup_s"] = lookup_s;
  rep.layers["run.cache.hits"] = static_cast<double>(stats.hits);
  rep.layers["run.cache.misses"] = static_cast<double>(stats.misses);
}

struct SweepSetup {
  run::ExperimentSpec experiment;
  std::vector<run::ExpandedRun> runs;
};

SweepSetup set_up_sweep(std::uint64_t seed, Rep& rep, SpanLog* log) {
  Scope scope(log, "setup");
  SweepSetup s;
  timed(log, "run.expand", rep.expand_s, [&] {
    s.experiment = run::ExperimentSpec::from_json(Json::parse(sweep_spec(seed)));
    s.runs = s.experiment.expand();
  });
  // What the batch builds before its first activations, built serially.
  timed(log, "run.instantiate", rep.instantiate_s, [&] {
    for (const run::ExpandedRun& r : s.runs) (void)run::instantiate(r.spec);
  });
  return s;
}

/// kasync/knesta x n in {16,32,64} x repeats through BatchRunner, every
/// run's recorded trace certified by the trace_metric hook.
Rep certified_sweep(const Options& o, SpanLog* log) {
  Rep rep;
  const SweepSetup s = set_up_sweep(o.seed, rep, log);
  rep.runs = s.runs.size();

  const double t_start = now_s();
  ValidatorClock clock;
  run::BatchRunner::Options bo;
  bo.threads = sweep_threads();
  bo.trace_metric = certify(clock);
  const run::BatchResult result =
      timed(log, "run.batch", rep.run_s, [&] { return run::BatchRunner(bo).run(s.runs); });
  double report_s = 0.0;
  const std::string report = timed(log, "run.report", report_s, [&] {
    return run::BatchRunner::report_json(s.experiment, result, false).dump();
  });

  for (const run::RunOutcome& out : result.outcomes) {
    rep.acts += out.report.activations;
    std::string bad;
    if (!out.error.empty()) {
      bad = "error: " + out.error;
    } else if (!out.converged) {
      bad = "did not converge";
    } else if (!cohesive(out.report)) {
      bad = "cohesion lost";
    } else if (out.custom < 0.0 || out.custom > static_cast<double>(kSweepK)) {
      bad = "schedule not certified (measured k " + std::to_string(out.custom) + ")";
    }
    if (!bad.empty()) {
      rep.failures.push_back("certified_sweep: run " + out.label + " seed " +
                             std::to_string(out.seed) + ": " + bad);
      ++rep.failed_runs;
    }
  }
  const bool complete = result.outcomes.size() == s.runs.size();
  rep.check(complete, "certified_sweep: batch returned " + std::to_string(result.outcomes.size()) +
                          " of " + std::to_string(s.runs.size()) + " outcomes");

  // The recorded history checked without the engine: certification
  // busy time, summed over the batch's threads.
  rep.replay_s = static_cast<double>(clock.ns.load()) * 1e-9;
  rep.report = report;
  rep.wall_s = now_s() - t_start;

  if (log) {
    double busy = 0.0;
    for (const run::RunOutcome& out : result.outcomes) busy += out.wall_seconds;
    auto& L = rep.layers;
    L["core.validators_s"] = rep.replay_s;
    L["core.validators.records"] = static_cast<double>(clock.records.load());
    L["run.batch.wall_s"] = result.wall_seconds;
    L["run.batch.busy_s"] = busy;
    L["run.batch.parallel_eff"] = busy / (result.wall_seconds * static_cast<double>(result.threads));
    L["run.report_s"] = report_s;
    if (complete) cache_layers(rep, o, s.runs, result, log);
  }
  return rep;
}

// ---- the repetition loop -------------------------------------------------

struct Workload {
  std::string name;
  std::function<Rep(const Options&, SpanLog*)> rep;
  std::uint64_t runs;  ///< simulations per repetition
  /// Single-run workloads: the spec, which run_workload also runs once
  /// through BatchRunner (the library's own path) to compare reports.
  std::function<std::string(const Options&)> spec;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"fsync_rebuild", fsync_rebuild, 1, [](const Options& o) { return fsync_spec(o.seed); }},
      {"kasync_stream", kasync_stream, 1, stream_spec},
      {"certified_sweep", certified_sweep, kSweepRuns, nullptr},
  };
  return all;
}

/// One repetition. A throw fails every simulation of the repetition
/// instead of aborting the benchmark; the Rep then carries no timings.
Rep attempt(const Workload& w, const Options& o, SpanLog* log) {
  try {
    return w.rep(o, log);
  } catch (const std::exception& e) {
    Rep rep;
    rep.runs = w.runs;
    rep.threw = true;
    rep.check(false, w.name + ": threw: " + e.what());
    return rep;
  }
}

/// The report BatchRunner produces for a single-run spec: the same fields
/// the workload reports, plus the stream fingerprint in stream mode.
std::string library_report(const std::string& spec_text) {
  run::ExpandedRun er;
  er.spec = run::RunSpec::from_json(Json::parse(spec_text));
  er.label = er.spec.name;
  run::BatchRunner::Options bo;
  bo.threads = 1;
  const run::BatchResult result = run::BatchRunner(bo).run({er});
  const run::RunOutcome& out = result.outcomes.at(0);
  if (!out.trace_path.empty()) fs::remove(out.trace_path);
  if (!out.error.empty()) throw std::runtime_error(out.error);
  return report_text(out.report, out.converged) + out.trace_fingerprint;
}

/// Per-layer metric names and units, in output order (README.md's table).
const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"core.engine_self_s", "s"},       {"core.acts", "count"},
      {"core.diameter_s", "s"},          {"core.diameter.calls", "count"},
      {"sched.next_s", "s"},             {"sched.calls", "count"},
      {"algo.compute_s", "s"},           {"algo.calls", "count"},
      {"algo.neighbours_mean", "count"}, {"core.validators_s", "s"},
      {"core.validators.records", "count"}, {"metrics.analyze_s", "s"},
      {"metrics.online_s", "s"},         {"trace.write_s", "s"},
      {"trace.bytes", "B"},              {"trace.replay_s", "s"},
      {"trace.replay_records_per_s", "1/s"}, {"run.instantiate_s", "s"},
      {"run.expand_s", "s"},             {"run.batch.wall_s", "s"},
      {"run.batch.busy_s", "s"},         {"run.batch.parallel_eff", "ratio"},
      {"run.report_s", "s"},             {"run.cache.insert_s", "s"},
      {"run.cache.lookup_s", "s"},       {"run.cache.hits", "count"},
      {"run.cache.misses", "count"},     {"bench.trace_overhead", "ratio"},
  };
  return names;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

/// Median over the repetitions that did not throw.
template <typename F>
double median_of(const std::vector<Rep>& reps, F&& f) {
  std::vector<double> v;
  for (const Rep& r : reps) {
    if (!r.threw) v.push_back(f(r));
  }
  return median(v);
}

double acts_per_s(const Rep& r) { return static_cast<double>(r.acts) / r.run_s; }

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Workload& w : workloads()) n.push_back(w.name);
    return n;
  }();
  return names;
}

Outcome run_workload(const Options& o) {
  const auto it = std::find_if(workloads().begin(), workloads().end(),
                               [&](const Workload& w) { return w.name == o.workload; });
  if (it == workloads().end()) throw std::invalid_argument("unknown workload " + o.workload);
  fs::create_directories(o.work_dir);

  // Untraced and traced repetitions alternate, so both see the same
  // machine conditions; end-to-end metrics come from the untraced ones.
  SpanLog log;
  std::vector<Rep> plain;
  std::vector<Rep> traced;
  const double deadline = now_s() + o.seconds;
  auto note = [&](const Rep& r, const char* kind) {
    std::fprintf(stderr, "perfbench: %s rep %zu: setup %.6f s, engine %.6f s, replay %.6f s, wall %.6f s, %llu acts\n",
                 kind, plain.size() + traced.size(), r.setup_s(), r.run_s, r.replay_s, r.wall_s,
                 static_cast<unsigned long long>(r.acts));
  };
  do {
    plain.push_back(attempt(*it, o, nullptr));
    note(plain.back(), "untraced");
    if (o.trace) {
      Scope scope(&log, "rep");
      traced.push_back(attempt(*it, o, &log));
      note(traced.back(), "traced");
    }
  } while (now_s() < deadline);

  Outcome out;
  auto tally = [&](Rep& r) {
    out.attempted += r.runs;
    out.failed += std::min(r.failed_runs, r.runs);
    for (std::string& f : r.failures) out.failures.push_back(std::move(f));
  };
  // Repeats of one seeded input must agree, the traced run must be
  // transparent (its report equals the untraced run's), and a single run
  // must report what the library's own batch path reports for its spec.
  const auto first = std::find_if(plain.begin(), plain.end(), [](const Rep& r) { return !r.threw; });
  if (first != plain.end()) {
    for (Rep& r : plain) {
      if (!r.threw) r.check(r.report == first->report, o.workload + ": repeat report differs");
    }
    for (Rep& r : traced) {
      if (!r.threw) r.check(r.report == first->report, o.workload + ": traced report differs from untraced");
    }
    if (it->spec) {
      Rep library;
      try {
        library.check(library_report(it->spec(o)) == first->report,
                      o.workload + ": report differs from BatchRunner's for the same spec");
      } catch (const std::exception& e) {
        library.check(false, o.workload + ": BatchRunner threw: " + e.what());
      }
      tally(library);
    }
  }
  for (Rep& r : plain) tally(r);
  for (Rep& r : traced) tally(r);

  if (!o.trace) {
    out.metrics = {
        {"setup_s", median_of(plain, [](const Rep& r) { return r.setup_s(); }), "s"},
        {"wall_s", median_of(plain, [](const Rep& r) { return r.wall_s; }), "s"},
        {"acts_per_s", median_of(plain, acts_per_s), "1/s"},
        {"runs_per_s",
         median_of(plain, [](const Rep& r) { return static_cast<double>(r.runs) / r.wall_s; }), "1/s"},
        {"replay_s", median_of(plain, [](const Rep& r) { return r.replay_s; }), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"pass_rate",
         static_cast<double>(out.attempted - out.failed) / static_cast<double>(out.attempted),
         "ratio"},
    };
    return out;
  }

  for (Rep& r : traced) {
    r.layers["run.expand_s"] = r.expand_s;
    r.layers["run.instantiate_s"] = r.instantiate_s;
  }
  const double overhead = 1.0 - median_of(traced, acts_per_s) / median_of(plain, acts_per_s);
  for (const auto& [name, unit] : layer_metrics()) {
    const double value = name == "bench.trace_overhead"
                             ? overhead
                             : median_of(traced, [&](const Rep& r) {
                                 const auto f = r.layers.find(name);
                                 return f == r.layers.end() ? 0.0 : f->second;
                               });
    out.metrics.push_back({name, value, unit});
  }
  const fs::path spans = fs::path(o.work_dir) /
                         ("spans-" + o.workload + "-seed" + std::to_string(o.seed) + ".json");
  std::ofstream(spans) << log.to_json(o.workload + "/seed" + std::to_string(o.seed)) << "\n";
  return out;
}

}  // namespace perfbench
