#include "run/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "run/instantiate.hpp"

namespace cohesion::run {
namespace {

RunSpec sample_spec() {
  RunSpec s;
  s.name = "sample";
  s.n = 24;
  s.seed = 0xFEEDFACE12345678ull;
  s.algorithm = {.type = "kknps", .params = Json::parse(R"({"k": 3, "distance_delta": 0.05})")};
  s.scheduler = {.type = "kasync", .params = Json::parse(R"({"k": 3, "xi": 0.4})")};
  s.error = {.type = "noisy", .params = Json::parse(R"({"skew_lambda": 0.1})")};
  s.initial = {.type = "random", .params = Json::parse(R"({"world_radius": 2.0})")};
  s.visibility_radius = 1.5;
  s.open_ball = true;
  s.multiplicity_detection = true;
  s.stop.epsilon = 0.08;
  s.stop.max_activations = 1234;
  s.stop.check_every = 32;
  s.stop.max_time = 75.5;
  return s;
}

TEST(RunSpec, JsonRoundTripIsExact) {
  const RunSpec s = sample_spec();
  const Json j = s.to_json();
  const RunSpec back = RunSpec::from_json(j);
  // Round trip through JSON text, compare the canonical serializations.
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
  EXPECT_EQ(back.seed, s.seed);  // 64-bit seed survives
  EXPECT_EQ(back.stop.max_activations, 1234u);
  EXPECT_DOUBLE_EQ(back.stop.max_time, 75.5);
  EXPECT_TRUE(back.open_ball);
}

TEST(RunSpec, DefaultsApplyForAbsentFields) {
  const RunSpec s = RunSpec::from_json(Json::parse(R"({"n": 5})"));
  EXPECT_EQ(s.n, 5u);
  EXPECT_EQ(s.algorithm.type, "kknps");
  EXPECT_EQ(s.scheduler.type, "kasync");
  EXPECT_DOUBLE_EQ(s.visibility_radius, 1.0);
  EXPECT_DOUBLE_EQ(s.stop.epsilon, 0.05);
}

TEST(RunSpec, LegacyPathKeysDoNotChangeIdentity) {
  // use_spatial_index, incremental_index and soa_kernel once selected
  // bit-identical snapshot paths. They are no longer fields: any value
  // parses to the identity of the same spec without them, and no spec
  // serializes them.
  const Json plain = sample_spec().to_json();
  for (const char* key : {"use_spatial_index", "incremental_index", "soa_kernel"}) {
    EXPECT_FALSE(plain.contains(key)) << key;
    for (const Json& value : {Json(true), Json(false), Json(7), Json("x")}) {
      Json legacy = plain;
      legacy.set(key, value);
      const RunSpec parsed = RunSpec::from_json(legacy);
      EXPECT_EQ(spec_fingerprint(parsed), spec_fingerprint(sample_spec())) << key;
      EXPECT_EQ(run_identity(parsed), run_identity(sample_spec())) << key;
      EXPECT_EQ(parsed.to_json().dump(), plain.dump()) << key;
    }
  }
}

TEST(Instantiate, SnapshotPathFollowsScheduleClass) {
  // Synchronous rounds share one Look time, so one grid rebuild serves the
  // round; every other scheduler keeps the grid per commit.
  const std::pair<const char*, core::SnapshotPath> cases[] = {
      {"fsync", core::SnapshotPath::kRebuild},      {"ssync", core::SnapshotPath::kRebuild},
      {"kasync", core::SnapshotPath::kIncremental}, {"async", core::SnapshotPath::kIncremental},
      {"knesta", core::SnapshotPath::kIncremental}, {"scripted", core::SnapshotPath::kIncremental},
  };
  for (const auto& [key, path] : cases) {
    RunSpec spec;
    spec.n = 4;
    spec.initial = {.type = "line"};
    spec.scheduler = {.type = key};
    if (std::string(key) == "scripted") {
      spec.scheduler.params = Json::parse(R"({"script": [[0, 1.0, 1.0, 1.5, 1.0]]})");
    }
    const RunInstance inst = instantiate(spec);
    EXPECT_EQ(inst.config.snapshot_path, path) << key;
    EXPECT_TRUE(inst.config.record_history) << key;
  }
}

TEST(RunSpec, FactoryShorthandString) {
  const RunSpec s = RunSpec::from_json(Json::parse(R"({"scheduler": "fsync"})"));
  EXPECT_EQ(s.scheduler.type, "fsync");
}

TEST(ExperimentSpec, JsonRoundTrip) {
  ExperimentSpec e;
  e.name = "sweep";
  e.base = sample_spec();
  e.repeats = 4;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2), Json(4)}});
  e.axes.push_back({"n", {Json(8), Json(16)}});
  const Json j = e.to_json();
  const ExperimentSpec back = ExperimentSpec::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());
  EXPECT_EQ(back.repeats, 4u);
  ASSERT_EQ(back.axes.size(), 2u);
  EXPECT_EQ(back.axes[0].path, "scheduler.params.k");
  EXPECT_EQ(back.axes[1].values.size(), 2u);
  // A disabled early-stop rule is absent from the JSON and stays disabled.
  EXPECT_FALSE(j.contains("early_stop"));
  EXPECT_FALSE(back.early_stop.enabled());
}

TEST(ExperimentSpec, EarlyStopRoundTripsExactly) {
  ExperimentSpec e;
  e.base = sample_spec();
  e.repeats = 8;
  e.early_stop.window = 3;
  e.early_stop.epsilon = 0.015;
  e.early_stop.metric = "rounds";
  const Json j = e.to_json();
  ASSERT_TRUE(j.contains("early_stop"));
  const ExperimentSpec back = ExperimentSpec::from_json(j);
  EXPECT_EQ(back.to_json().dump(), j.dump());  // fixed point (shard merge relies on it)
  EXPECT_EQ(back.early_stop.window, 3u);
  EXPECT_DOUBLE_EQ(back.early_stop.epsilon, 0.015);
  EXPECT_EQ(back.early_stop.metric, "rounds");
  // Partial early_stop objects take defaults for the rest.
  const ExperimentSpec partial = ExperimentSpec::from_json(
      Json::parse(R"({"base": {"n": 4}, "early_stop": {"window": 2}})"));
  EXPECT_EQ(partial.early_stop.window, 2u);
  EXPECT_EQ(partial.early_stop.metric, "final_diameter");
  EXPECT_THROW(ExperimentSpec::from_json(
                   Json::parse(R"({"base": {"n": 4}, "early_stop": 3})")),
               std::runtime_error);
}

TEST(ExperimentSpec, ExpansionGridOrderAndOverrides) {
  ExperimentSpec e;
  e.base.seed = 7;
  e.repeats = 2;
  e.axes.push_back({"scheduler.params.k", {Json(1), Json(2)}});
  e.axes.push_back({"n", {Json(8), Json(16), Json(32)}});
  const auto runs = e.expand();
  ASSERT_EQ(runs.size(), 2u * 3u * 2u);
  EXPECT_EQ(e.variant_count(), 6u);

  // First axis outermost, repeats innermost; indices are contiguous.
  EXPECT_EQ(runs[0].spec.scheduler.params.uint_or("k", 0), 1u);
  EXPECT_EQ(runs[0].spec.n, 8u);
  EXPECT_EQ(runs[0].label, "k=1,n=8");
  EXPECT_EQ(runs[1].variant, 0u);
  EXPECT_EQ(runs[1].repeat, 1u);
  EXPECT_EQ(runs[2].spec.n, 16u);
  EXPECT_EQ(runs[6].spec.scheduler.params.uint_or("k", 0), 2u);
  EXPECT_EQ(runs[6].spec.n, 8u);
  for (std::size_t i = 0; i < runs.size(); ++i) EXPECT_EQ(runs[i].index, i);
}

TEST(ExperimentSpec, RootMergeAxisAppliesNestedOverrides) {
  ExperimentSpec e;
  e.base = sample_spec();
  Json variant = Json::parse(
      R"({"label": "big", "n": 64, "stop": {"max_activations": 9999},
          "algorithm": {"params": {"k": 9}}})");
  e.axes.push_back({"", {variant}});
  const auto runs = e.expand();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].label, "big");
  EXPECT_EQ(runs[0].spec.n, 64u);
  EXPECT_EQ(runs[0].spec.stop.max_activations, 9999u);
  // Nested merge: k overridden, sibling param distance_delta preserved.
  EXPECT_EQ(runs[0].spec.algorithm.params.uint_or("k", 0), 9u);
  EXPECT_DOUBLE_EQ(runs[0].spec.algorithm.params.number_or("distance_delta", 0), 0.05);
  // stop.epsilon preserved through the partial stop override.
  EXPECT_DOUBLE_EQ(runs[0].spec.stop.epsilon, 0.08);
}

TEST(Seeds, DerivationIsDeterministicDecorrelatedAndThreadCountFree) {
  // Pure function of (experiment seed, run index).
  const RunSeeds a = derive_seeds(42, 0);
  const RunSeeds b = derive_seeds(42, 0);
  EXPECT_EQ(a.run, b.run);
  EXPECT_EQ(a.engine, b.engine);
  EXPECT_EQ(a.scheduler, b.scheduler);
  EXPECT_EQ(a.initial, b.initial);

  // All streams distinct across a sweep's worth of runs and components.
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const RunSeeds s = derive_seeds(42, i);
    seen.insert(s.run);
    seen.insert(s.engine);
    seen.insert(s.scheduler);
    seen.insert(s.initial);
  }
  EXPECT_EQ(seen.size(), 4u * 256u);

  // Nearby experiment seeds do not collide either.
  for (std::uint64_t i = 0; i < 256; ++i) {
    const RunSeeds s = derive_seeds(43, i);
    seen.insert(s.run);
    seen.insert(s.engine);
    seen.insert(s.scheduler);
    seen.insert(s.initial);
  }
  EXPECT_EQ(seen.size(), 8u * 256u);

  // Expansion pins the derived run seed, and streams re-derive from it.
  ExperimentSpec e;
  e.base.seed = 42;
  e.repeats = 3;
  const auto runs = e.expand();
  EXPECT_EQ(runs[2].spec.seed, derive_seeds(42, 2).run);
  EXPECT_EQ(seed_streams(runs[2].spec.seed).engine, derive_seeds(42, 2).engine);
}

TEST(Seeds, SweepAxisMayPinTheSeedItself) {
  ExperimentSpec e;
  e.base.seed = 42;
  e.axes.push_back({"seed", {Json(1000), Json(2000)}});
  const auto runs = e.expand();
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].spec.seed, 1000u);  // honored, not re-derived
  EXPECT_EQ(runs[1].spec.seed, 2000u);
}

TEST(ApplyOverride, CreatesIntermediateObjectsAndRejectsBadPaths) {
  Json doc = Json::parse(R"({"a": 1})");
  apply_override(doc, "b.c.d", Json(5));
  EXPECT_EQ(doc.at("b").at("c").at("d").as_uint(), 5u);
  EXPECT_THROW(apply_override(doc, "a.x", Json(1)), std::runtime_error);  // descends into number
  EXPECT_THROW(apply_override(doc, "", Json(3)), std::runtime_error);     // root needs object
  EXPECT_THROW(apply_override(doc, "..", Json(3)), std::runtime_error);   // empty segment
}

}  // namespace
}  // namespace cohesion::run
