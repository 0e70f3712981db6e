#include "run/registry.hpp"

#include <gtest/gtest.h>

#include "algo/kknps.hpp"
#include "run/instantiate.hpp"

namespace cohesion::run {
namespace {

TEST(Registry, BuiltinAlgorithmKeys) {
  for (const char* key : {"kknps", "kknps3d", "ando", "katreniak", "cog", "gcm", "null",
                          "lens_midpoint"}) {
    const auto algo = algorithms().get(key)(Json::object());
    ASSERT_NE(algo, nullptr) << key;
    EXPECT_FALSE(algo->name().empty());
  }
}

TEST(Registry, BuiltinSchedulerKeys) {
  for (const char* key : {"fsync", "ssync", "kasync", "async", "knesta"}) {
    const auto sched = schedulers().get(key)(4, 7, Json::object());
    ASSERT_NE(sched, nullptr) << key;
  }
  // scripted needs its script param.
  const Json params = Json::parse(R"({"script": [[0, 0.0, 0.1, 0.5, 1.0]]})");
  EXPECT_NE(schedulers().get("scripted")(2, 7, params), nullptr);
}

TEST(Registry, BuiltinErrorAndInitialKeys) {
  EXPECT_FALSE(errors().get("exact")(Json::object()).random_rotation);
  EXPECT_TRUE(errors().get("noisy")(Json::object()).random_rotation);
  for (const char* key : {"line", "grid", "circle", "random", "two_cluster"}) {
    EXPECT_EQ(initials().get(key)(12, 1.0, 5, Json::object()).size(), 12u) << key;
  }
  // spiral dictates its own robot count.
  EXPECT_GT(initials().get("spiral")(1, 1.0, 5, Json::object()).size(), 3u);
}

TEST(Registry, UnknownKeyThrowsListingKnownKeys) {
  try {
    (void)algorithms().get("no_such_algorithm");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no_such_algorithm"), std::string::npos);
    EXPECT_NE(what.find("kknps"), std::string::npos);  // lists registered keys
  }
  EXPECT_THROW((void)schedulers().get("bogus"), std::runtime_error);
  EXPECT_THROW((void)errors().get("bogus"), std::runtime_error);
  EXPECT_THROW((void)initials().get("bogus"), std::runtime_error);
}

TEST(Registry, ParamsReachTheFactory) {
  const Json params = Json::parse(R"({"k": 4, "distance_delta": 0.05})");
  const auto algo = algorithms().get("kknps")(params);
  const auto* kknps = dynamic_cast<const algo::KknpsAlgorithm*>(algo.get());
  ASSERT_NE(kknps, nullptr);
  EXPECT_EQ(kknps->params().k, 4u);
  EXPECT_DOUBLE_EQ(kknps->params().distance_delta, 0.05);
}

TEST(Registry, UserRegistrationAndOverride) {
  auto& reg = initials();
  reg.add("three_in_a_row", [](std::size_t, double, std::uint64_t, const Json&) {
    return std::vector<geom::Vec2>{{0, 0}, {1, 0}, {2, 0}};
  });
  EXPECT_TRUE(reg.contains("three_in_a_row"));
  EXPECT_EQ(reg.get("three_in_a_row")(99, 1.0, 1, Json::object()).size(), 3u);
  // Re-registration replaces.
  reg.add("three_in_a_row", [](std::size_t, double, std::uint64_t, const Json&) {
    return std::vector<geom::Vec2>{{0, 0}};
  });
  EXPECT_EQ(reg.get("three_in_a_row")(99, 1.0, 1, Json::object()).size(), 1u);
}

TEST(Registry, SeedParamPinsOverDerivedSeed) {
  // Two different derived seeds with the same pinned params seed must build
  // identically-behaving schedulers.
  const Json params = Json::parse(R"({"seed": 123, "k": 2})");
  auto a = schedulers().get("kasync")(4, 1, params);
  auto b = schedulers().get("kasync")(4, 2, params);

  struct View final : core::SimulationView {
    core::Time front = 0.0;
    [[nodiscard]] std::size_t robot_count() const override { return 4; }
    [[nodiscard]] core::Time busy_until(core::RobotId) const override { return 0.0; }
    [[nodiscard]] core::Time frontier() const override { return front; }
    [[nodiscard]] geom::Vec2 position(core::RobotId, core::Time) const override { return {}; }
    [[nodiscard]] std::size_t activations_of(core::RobotId) const override { return 0; }
  };
  View va, vb;
  for (int i = 0; i < 50; ++i) {
    const auto pa = a->next(va);
    const auto pb = b->next(vb);
    ASSERT_TRUE(pa && pb);
    EXPECT_EQ(pa->robot, pb->robot);
    EXPECT_EQ(pa->t_look, pb->t_look);
    va.front = pa->t_look;
    vb.front = pb->t_look;
  }
}

TEST(Registry, BadSchedulerParamsAreRejectedByName) {
  struct Case {
    const char* type;
    const char* params;
    const char* field;
  };
  const Case cases[] = {
      {"kasync", R"({"min_duration": 0})", "min_duration"},
      {"kasync", R"({"min_duration": -0.5, "max_duration": 1})", "min_duration"},
      {"kasync", R"({"max_duration": 0.1})", "max_duration"},
      {"kasync", R"({"min_gap": -0.01})", "min_gap"},
      {"kasync", R"({"max_gap": 0.01})", "max_gap"},
      {"kasync", R"({"xi": 0})", "xi"},
      {"async", R"({"xi": 1.5})", "xi"},
      {"knesta", R"({"xi": -1})", "xi"},
      {"ssync", R"({"xi": 2})", "xi"},
      // B = 10^7 + 1 Looks fit in one interval, so k = 5 * 10^6 is not
      // clamped, and 4 * k ring entries exceed the 2^24 budget.
      {"kasync", R"({"k": 5000000, "min_duration": 1e-7, "max_duration": 1, "min_gap": 0})",
       "look-ring budget"},
  };
  for (const Case& c : cases) {
    RunSpec spec;
    spec.n = 4;
    spec.scheduler = {.type = c.type, .params = Json::parse(c.params)};
    try {
      (void)instantiate(spec);
      ADD_FAILURE() << c.type << " " << c.params << " was accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(c.field), std::string::npos)
          << c.params << ": " << e.what();
    }
  }
}

TEST(Registry, RetiredKAsyncPathKeysAreIgnored) {
  // heap_selection / indexed_intervals once selected among four scheduler
  // paths; there is one now, and specs that still carry the keys build the
  // same schedule as specs without them.
  const auto looks_of = [](const char* params) {
    RunSpec spec;
    spec.n = 6;
    spec.seed = 5;
    spec.scheduler = {.type = "kasync", .params = Json::parse(params)};
    spec.stop.epsilon = -1.0;
    spec.stop.max_activations = 300;
    RunInstance inst = instantiate(spec);
    inst.engine->run(spec.stop.max_activations);
    std::vector<std::pair<core::RobotId, double>> out;
    for (const auto& rec : inst.engine->trace().records()) {
      out.emplace_back(rec.activation.robot, rec.activation.t_look);
    }
    return out;
  };
  const auto plain = looks_of(R"({"k": 2})");
  ASSERT_EQ(plain.size(), 300u);
  EXPECT_EQ(looks_of(R"({"k": 2, "heap_selection": true})"), plain);
  EXPECT_EQ(looks_of(R"({"k": 2, "heap_selection": false, "indexed_intervals": false})"), plain);
}

}  // namespace
}  // namespace cohesion::run
