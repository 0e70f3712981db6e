// Preset layering (run/preset.hpp): chained "extends", override-wins deep
// merge, chain-naming error messages, and the property the result cache
// leans on — a spec refactored into presets fingerprints identically to
// the inlined document, because resolution happens before hashing.
#include "run/preset.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "run/exit_codes.hpp"
#include "run/spec.hpp"

namespace cohesion::run {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_preset_" + tag + "_" + std::to_string(::getpid())))
                  .string()) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

  std::string write(const std::string& name, const std::string& content) const {
    const std::string full = path_ + "/" + name;
    fs::create_directories(fs::path(full).parent_path());
    std::ofstream out(full);
    out << content;
    return full;
  }

 private:
  std::string path_;
};

TEST(DeepMerge, ObjectsMergeScalarsAndArraysReplace) {
  Json base = Json::parse(R"({"a": 1, "nested": {"x": 1, "y": 2}, "list": [1, 2, 3]})");
  const Json overlay = Json::parse(R"({"a": 9, "nested": {"y": 7, "z": 8}, "list": [4]})");
  deep_merge(base, overlay);
  EXPECT_EQ(base, Json::parse(R"({"a": 9, "nested": {"x": 1, "y": 7, "z": 8}, "list": [4]})"));
}

TEST(DeepMerge, NonObjectOverlayReplacesWholesale) {
  Json base = Json::parse(R"({"a": 1})");
  deep_merge(base, Json(42));
  EXPECT_EQ(base, Json(42));
}

TEST(Preset, SingleExtendsMergesWithOverrideWins) {
  TempDir dir("single");
  dir.write("base.json", R"({"name": "base", "base": {"n": 16, "seed": 1}, "repeats": 4})");
  const std::string top =
      dir.write("top.json", R"({"extends": "base.json", "name": "top", "base": {"n": 32}})");

  const Json resolved = load_spec_file(top);
  EXPECT_EQ(resolved.string_or("name", ""), "top");
  EXPECT_EQ(resolved.at("base").uint_or("n", 0), 32u);          // overridden
  EXPECT_EQ(resolved.at("base").uint_or("seed", 0), 1u);        // inherited
  EXPECT_EQ(resolved.uint_or("repeats", 0), 4u);                // inherited
  EXPECT_FALSE(resolved.contains("extends")) << "the key must be consumed";
}

TEST(Preset, ChainedExtendsResolvesDepthFirst) {
  // c extends b extends a: the most-derived file wins at every depth.
  TempDir dir("chain");
  dir.write("a.json", R"({"base": {"n": 8, "seed": 1, "scheduler": {"type": "fsync"}}})");
  dir.write("b.json", R"({"extends": "a.json", "base": {"seed": 2}, "repeats": 3})");
  const std::string c =
      dir.write("c.json", R"({"extends": "b.json", "base": {"scheduler": {"params": {"k": 2}}}})");

  const Json resolved = load_spec_file(c);
  EXPECT_EQ(resolved.at("base").uint_or("n", 0), 8u);     // from a
  EXPECT_EQ(resolved.at("base").uint_or("seed", 0), 2u);  // b overrides a
  EXPECT_EQ(resolved.at("base").at("scheduler").string_or("type", ""), "fsync");  // from a
  EXPECT_EQ(resolved.at("base").at("scheduler").at("params").uint_or("k", 0), 2u);  // from c
  EXPECT_EQ(resolved.uint_or("repeats", 0), 3u);          // from b
}

TEST(Preset, ArrayExtendsLaterBasesOverrideEarlier) {
  TempDir dir("array");
  dir.write("one.json", R"({"base": {"n": 8}, "repeats": 1})");
  dir.write("two.json", R"({"base": {"n": 16}})");
  const std::string top = dir.write("top.json", R"({"extends": ["one.json", "two.json"]})");

  const Json resolved = load_spec_file(top);
  EXPECT_EQ(resolved.at("base").uint_or("n", 0), 16u);  // two.json wins
  EXPECT_EQ(resolved.uint_or("repeats", 0), 1u);        // only one.json has it
}

TEST(Preset, BasePathsResolveRelativeToReferringFile) {
  TempDir dir("relative");
  dir.write("presets/base.json", R"({"base": {"n": 24}})");
  dir.write("presets/mid.json", R"({"extends": "base.json", "repeats": 2})");
  const std::string top = dir.write("sweeps/top.json", R"({"extends": "../presets/mid.json"})");

  const Json resolved = load_spec_file(top);
  EXPECT_EQ(resolved.at("base").uint_or("n", 0), 24u);
  EXPECT_EQ(resolved.uint_or("repeats", 0), 2u);
}

TEST(Preset, CycleErrorNamesTheWholeChain) {
  TempDir dir("cycle");
  dir.write("a.json", R"({"extends": "b.json"})");
  const std::string a = dir.path() + "/a.json";
  dir.write("b.json", R"({"extends": "a.json"})");

  try {
    (void)load_spec_file(a);
    FAIL() << "cycle must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("preset chain"), std::string::npos) << msg;
    EXPECT_NE(msg.find("a.json -> b.json -> a.json"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cycle"), std::string::npos) << msg;
  }
}

TEST(Preset, SelfExtendsIsACycleToo) {
  TempDir dir("self");
  const std::string a = dir.write("a.json", R"({"extends": "a.json"})");
  try {
    (void)load_spec_file(a);
    FAIL() << "self-extends must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("cycle"), std::string::npos) << e.what();
  }
}

TEST(Preset, MissingBaseNamesChainAndFile) {
  TempDir dir("missing");
  dir.write("mid.json", R"({"extends": "ghost.json"})");
  const std::string top = dir.write("top.json", R"({"extends": "mid.json"})");

  try {
    (void)load_spec_file(top);
    FAIL() << "missing base must throw";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("top.json -> mid.json -> ghost.json"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cannot open"), std::string::npos) << msg;
  }
}

TEST(Preset, MalformedExtendsValueIsNamed) {
  TempDir dir("malformed");
  const std::string top = dir.write("top.json", R"({"extends": 7})");
  EXPECT_THROW((void)load_spec_file(top), std::runtime_error);
  const std::string mixed = dir.write("mixed.json", R"({"extends": ["ok", 7]})");
  EXPECT_THROW((void)load_spec_file(mixed), std::runtime_error);
}

TEST(Preset, NoExtendsIsPlainParse) {
  TempDir dir("plain");
  const std::string top = dir.write("top.json", R"({"name": "plain", "base": {"n": 4}})");
  EXPECT_EQ(load_spec_file(top).dump(), Json::parse_file(top).dump());
}

TEST(Preset, ResolvedSpecFingerprintsLikeTheInlinedOne) {
  // The cache-compatibility property: splitting a spec into preset layers
  // must not move a single fingerprint, because load_spec_file resolves
  // before anything hashes. Assert both identities on the expanded runs.
  TempDir dir("fp");
  const std::string inlined = dir.write("inlined.json", R"({
    "name": "sweep",
    "base": {"n": 12, "seed": 5, "scheduler": {"type": "kasync", "params": {"k": 2}}},
    "repeats": 2,
    "sweep": [{"path": "seed", "values": [31, 32]}]
  })");
  dir.write("defaults.json",
            R"({"base": {"n": 12, "scheduler": {"type": "kasync", "params": {"k": 1}}}})");
  const std::string layered = dir.write("layered.json", R"({
    "extends": "defaults.json",
    "name": "sweep",
    "base": {"seed": 5, "scheduler": {"params": {"k": 2}}},
    "repeats": 2,
    "sweep": [{"path": "seed", "values": [31, 32]}]
  })");

  const ExperimentSpec a = ExperimentSpec::from_json(load_spec_file(inlined));
  const ExperimentSpec b = ExperimentSpec::from_json(load_spec_file(layered));
  const auto runs_a = a.expand();
  const auto runs_b = b.expand();
  ASSERT_EQ(runs_a.size(), runs_b.size());
  for (std::size_t i = 0; i < runs_a.size(); ++i) {
    EXPECT_EQ(spec_fingerprint(runs_a[i].spec), spec_fingerprint(runs_b[i].spec)) << "run " << i;
    EXPECT_EQ(run_identity(runs_a[i].spec), run_identity(runs_b[i].spec)) << "run " << i;
  }
}

TEST(LoadExperiment, ResolvesExtendsAndWrapsABareRunSpec) {
  TempDir dir("load");
  dir.write("base.json", R"({"name": "layered", "base": {"n": 6, "seed": 7},
                             "sweep": [{"path": "seed", "values": [1, 2, 3]}]})");
  const std::string leaf = dir.write("leaf.json", R"({"extends": "base.json", "repeats": 2})");
  const ExperimentSpec layered = load_experiment(leaf);
  EXPECT_EQ(layered.name, "layered");
  EXPECT_EQ(layered.variant_count(), 3u);
  EXPECT_EQ(layered.repeats, 2u);

  // No "base": one run, named after the RunSpec.
  const std::string bare = dir.write("bare.json", R"({"name": "solo", "n": 5})");
  const ExperimentSpec single = load_experiment(bare);
  EXPECT_EQ(single.name, "solo");
  EXPECT_EQ(single.base.n, 5u);
  EXPECT_EQ(single.variant_count(), 1u);
}

TEST(LoadExperiment, UnreadableIsTransientUnparseableIsPermanent) {
  TempDir dir("load_errors");
  EXPECT_THROW((void)load_experiment(dir.path() + "/absent.json"), TransientError);
  const std::string junk = dir.write("junk.json", "not json");
  try {
    (void)load_experiment(junk);
    FAIL() << "expected a parse error";
  } catch (const TransientError&) {
    FAIL() << "a parse error is permanent, not transient";
  } catch (const std::runtime_error&) {
  }
}

}  // namespace
}  // namespace cohesion::run
