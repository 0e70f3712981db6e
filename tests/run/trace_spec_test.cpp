// Run-layer wiring of the streaming trace subsystem: TraceSpec JSON (and
// the byte-compatibility rule that default blocks never serialize), the
// capture-invariant spec fingerprint, per-run path templating, RunOutcome
// trace fields, instantiate()'s mode validation, and the BatchRunner
// stream path producing byte-identical reports plus replayable files.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "metrics/online.hpp"
#include "run/batch_runner.hpp"
#include "run/instantiate.hpp"
#include "run/spec.hpp"
#include "trace/stream_reader.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_trace_spec_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

ExperimentSpec small_sweep() {
  ExperimentSpec e;
  e.name = "trace-wiring";
  e.base.n = 8;
  e.base.seed = 99;
  e.base.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 1})")};
  e.base.scheduler = {.type = "kasync", .params = Json::parse(R"({"xi": 0.5})")};
  e.base.initial = {.type = "line", .params = Json::parse(R"({"spacing": 0.9})")};
  e.base.stop.epsilon = 0.05;
  e.base.stop.max_activations = 4000;
  e.repeats = 2;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2)}});
  return e;
}

TEST(TraceSpec, DefaultBlockNeverSerializes) {
  // Existing specs, reports and fingerprints must keep their bytes: a
  // default TraceSpec leaves no mark on the JSON.
  const RunSpec spec;
  EXPECT_TRUE(spec.trace.is_default());
  EXPECT_FALSE(spec.to_json().contains("trace"));
  const RunSpec back = RunSpec::from_json(spec.to_json());
  EXPECT_TRUE(back.trace.is_default());
  EXPECT_EQ(spec.to_json().dump(), back.to_json().dump());
}

TEST(TraceSpec, JsonRoundTripAndShorthand) {
  RunSpec spec;
  spec.trace.mode = "stream";
  spec.trace.path = "traces/{name}_{index}.cohtrace";
  spec.trace.flush_every = 128;
  spec.trace.index_every = 256;
  const Json j = spec.to_json();
  ASSERT_TRUE(j.contains("trace"));
  const RunSpec back = RunSpec::from_json(j);
  EXPECT_EQ(back.trace.mode, "stream");
  EXPECT_EQ(back.trace.path, spec.trace.path);
  EXPECT_EQ(back.trace.flush_every, 128u);
  EXPECT_EQ(back.trace.index_every, 256u);

  // String shorthand: "trace": "off" selects a mode with all defaults.
  const TraceSpec off = TraceSpec::from_json(Json("off"));
  EXPECT_EQ(off.mode, "off");
  EXPECT_TRUE(off.path.empty());

  EXPECT_THROW(TraceSpec::from_json(Json("ring-buffer")), std::exception);
  Json bad = Json::object();
  bad.set("mode", Json("ring-buffer"));
  EXPECT_THROW(TraceSpec::from_json(bad), std::exception);
}

TEST(TraceSpec, FingerprintIgnoresCaptureConfiguration) {
  // The fingerprint is the *physical* run identity: any trace mode of the
  // same dynamics must agree, so a stream can be validated against the
  // report of a memory-mode run (and vice versa).
  RunSpec memory;
  RunSpec stream = memory;
  stream.trace.mode = "stream";
  stream.trace.path = "somewhere/else_{index}.cohtrace";
  stream.trace.flush_every = 1;
  RunSpec off = memory;
  off.trace.mode = "off";
  const std::uint64_t fp = spec_fingerprint(memory);
  EXPECT_EQ(spec_fingerprint(stream), fp);
  EXPECT_EQ(spec_fingerprint(off), fp);

  RunSpec different = memory;
  different.n = memory.n + 1;
  EXPECT_NE(spec_fingerprint(different), fp);

  EXPECT_EQ(fingerprint_hex(fp).size(), 16u);
  EXPECT_EQ(fingerprint_hex(0x00000000000000abull), "00000000000000ab");
}

TEST(TraceSpec, ExpandSubstitutesPathTemplatesPerRun) {
  ExperimentSpec e = small_sweep();
  e.base.trace.mode = "stream";
  e.base.trace.path = "{name}-{index}-v{variant}-r{repeat}-s{seed}.cohtrace";
  const std::vector<ExpandedRun> runs = e.expand();
  ASSERT_EQ(runs.size(), 4u);
  for (const ExpandedRun& run : runs) {
    // {name} is the run's resolved name, experiment/label#repeat, with the
    // '/' and '#' separators mapped to '_' so it cannot fragment the path.
    const std::string k = run.variant == 0 ? "1" : "2";
    const std::string expected = "trace-wiring_k=" + k + "_" + std::to_string(run.repeat) + "-" +
                                 std::to_string(run.index) + "-v" + std::to_string(run.variant) +
                                 "-r" + std::to_string(run.repeat) + "-s" +
                                 std::to_string(run.spec.seed) + ".cohtrace";
    EXPECT_EQ(run.spec.trace.path, expected) << "run " << run.index;
  }
  // Distinct runs resolve to distinct files (the {index} token).
  EXPECT_NE(runs[0].spec.trace.path, runs[1].spec.trace.path);
}

TEST(TraceSpec, RunOutcomeTraceFieldsRoundTripOnlyWhenSet) {
  RunOutcome plain;
  plain.index = 3;
  plain.label = "k=1";
  plain.converged = true;
  EXPECT_FALSE(plain.to_json().contains("trace_path"));
  EXPECT_FALSE(plain.to_json().contains("trace_fingerprint"));

  RunOutcome streamed = plain;
  streamed.trace_path = "traces/run_3.cohtrace";
  streamed.trace_fingerprint = "00c0ffee00c0ffee";
  const Json j = streamed.to_json();
  ASSERT_TRUE(j.contains("trace_path"));
  const RunOutcome back = RunOutcome::from_json(j);
  EXPECT_EQ(back.trace_path, streamed.trace_path);
  EXPECT_EQ(back.trace_fingerprint, streamed.trace_fingerprint);
  EXPECT_EQ(back.to_json().dump(), j.dump());
}

TEST(TraceSpec, InstantiateSelectsBoundedEngineForBoundedModes) {
  // Both grid paths run bounded: a synchronous key (rebuild path) and an
  // asynchronous one (incremental path).
  for (const char* scheduler : {"fsync", "kasync"}) {
    for (const char* mode : {"stream", "off"}) {
      RunSpec spec;
      spec.scheduler = {.type = scheduler};
      spec.trace.mode = mode;
      spec.trace.path = "x.cohtrace";
      const RunInstance inst = instantiate(spec);
      EXPECT_FALSE(inst.config.record_history) << scheduler << " " << mode;
    }
  }
}

TEST(TraceSpec, BatchRunnerStreamModeMatchesMemoryReportAndReplays) {
  const ExperimentSpec memory_experiment = small_sweep();

  TempDir dir("batch");
  ExperimentSpec stream_experiment = small_sweep();
  stream_experiment.base.trace.mode = "stream";
  stream_experiment.base.trace.path = dir.path() + "/run_{index}.cohtrace";
  stream_experiment.base.trace.flush_every = 64;
  stream_experiment.base.trace.index_every = 128;

  BatchRunner::Options options;
  options.threads = 2;
  const BatchResult memory_result = BatchRunner(options).run(memory_experiment);
  const BatchResult stream_result = BatchRunner(options).run(stream_experiment);
  ASSERT_EQ(memory_result.outcomes.size(), stream_result.outcomes.size());

  const std::vector<ExpandedRun> expanded = stream_experiment.expand();
  ASSERT_EQ(expanded.size(), stream_result.outcomes.size());
  for (std::size_t i = 0; i < memory_result.outcomes.size(); ++i) {
    // Per-run identity: the resolved spec at this grid point (the sweep
    // overrides change it), with capture configuration excluded.
    const std::uint64_t fp = spec_fingerprint(expanded[i].spec);
    const RunOutcome& mem = memory_result.outcomes[i];
    RunOutcome streamed = stream_result.outcomes[i];
    ASSERT_TRUE(streamed.error.empty()) << "run " << i << ": " << streamed.error;

    // The stream outcome carries its file and fingerprint...
    EXPECT_EQ(streamed.trace_path, dir.path() + "/run_" + std::to_string(i) + ".cohtrace");
    ASSERT_FALSE(streamed.trace_fingerprint.empty());
    EXPECT_EQ(streamed.trace_fingerprint.size(), 16u);

    // ...and stripping those two fields leaves the memory outcome, byte
    // for byte (the online fold is bit-identical to analyze()).
    streamed.trace_path.clear();
    streamed.trace_fingerprint.clear();
    streamed.wall_seconds = mem.wall_seconds;
    EXPECT_EQ(streamed.to_json().dump(), mem.to_json().dump()) << "run " << i;

    // The written stream replays to the reported metrics.
    const std::string path = stream_result.outcomes[i].trace_path;
    ASSERT_TRUE(fs::exists(path)) << path;
    trace::StreamTraceReader reader(path);
    EXPECT_EQ(reader.header().fingerprint, fp);
    EXPECT_EQ(stream_result.outcomes[i].trace_fingerprint, fingerprint_hex(fp)) << "run " << i;
    metrics::ConvergenceAccumulator acc(reader.header().initial, reader.header().visibility_radius,
                                        reader.header().stop_epsilon);
    core::ActivationRecord rec;
    while (reader.next(rec)) acc.add(rec);
    ASSERT_TRUE(reader.closed_cleanly()) << "run " << i;
    const metrics::ConvergenceReport replayed = acc.finish();
    EXPECT_EQ(replayed.converged, mem.report.converged) << "run " << i;
    EXPECT_EQ(replayed.final_diameter, mem.report.final_diameter) << "run " << i;
    EXPECT_EQ(replayed.rounds, mem.report.rounds) << "run " << i;
    EXPECT_EQ(replayed.activations, mem.report.activations) << "run " << i;
    EXPECT_EQ(replayed.worst_stretch, mem.report.worst_stretch) << "run " << i;
  }

  // Mode "off": bounded memory, online metrics, no files — same report.
  ExperimentSpec off_experiment = small_sweep();
  off_experiment.base.trace.mode = "off";
  const BatchResult off_result = BatchRunner(options).run(off_experiment);
  ASSERT_EQ(off_result.outcomes.size(), memory_result.outcomes.size());
  for (std::size_t i = 0; i < off_result.outcomes.size(); ++i) {
    RunOutcome off = off_result.outcomes[i];
    ASSERT_TRUE(off.error.empty()) << off.error;
    EXPECT_TRUE(off.trace_path.empty());
    off.wall_seconds = memory_result.outcomes[i].wall_seconds;
    EXPECT_EQ(off.to_json().dump(), memory_result.outcomes[i].to_json().dump()) << "run " << i;
  }

  // Stream mode without a path is a per-run error, not a crash.
  ExperimentSpec pathless = small_sweep();
  pathless.base.trace.mode = "stream";
  const BatchResult bad = BatchRunner(options).run(pathless);
  ASSERT_FALSE(bad.outcomes.empty());
  EXPECT_FALSE(bad.outcomes[0].error.empty());
  EXPECT_NE(bad.outcomes[0].error.find("trace"), std::string::npos);
}

}  // namespace
}  // namespace cohesion::run
