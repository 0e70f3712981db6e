#include "run/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace cohesion::run {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("-2.5e3").as_double(), -2500.0);
  EXPECT_EQ(Json::parse("\"hi\\nthere\"").as_string(), "hi\nthere");
}

TEST(Json, IntegerFidelityAt64Bits) {
  // Above 2^53: a double would corrupt these — exactly the values derived
  // per-run seeds take.
  const std::uint64_t seed = 0xDEADBEEFCAFEF00Dull;
  Json j = Json::object();
  j.set("seed", seed);
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.at("seed").as_uint(), seed);

  EXPECT_EQ(Json::parse("18446744073709551615").as_uint(), UINT64_MAX);
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(), INT64_MIN);
}

TEST(Json, DoublesRoundTripShortest) {
  for (const double d : {0.1, 1.0 / 3.0, 1e-300, 6.3, 0.030000000000000002}) {
    const Json back = Json::parse(Json(d).dump());
    EXPECT_EQ(back.as_double(), d) << Json(d).dump();
  }
  // Integral doubles keep their flavor visible.
  EXPECT_EQ(Json(2.0).dump(), "2.0");
}

TEST(Json, ObjectOrderIsPreserved) {
  const Json j = Json::parse(R"({"z": 1, "a": 2, "m": 3})");
  const JsonObject& o = j.entries();
  ASSERT_EQ(o.size(), 3u);
  EXPECT_EQ(o[0].first, "z");
  EXPECT_EQ(o[1].first, "a");
  EXPECT_EQ(o[2].first, "m");
  EXPECT_EQ(j.dump(), R"({"z":1,"a":2,"m":3})");
}

TEST(Json, NestedRoundTrip) {
  const std::string text =
      R"({"name":"e","base":{"n":12,"seed":9000,"xs":[1,2.5,"s",null,true]},"sweep":[]})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);
  EXPECT_EQ(Json::parse(j.dump(2)), j);  // pretty-printing re-parses equal
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("[1,]"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1 \"b\":2}"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("12 34"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("\"unterminated"), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{\"a\":1,\"a\":2}"), std::runtime_error);  // dup key
  EXPECT_THROW((void)Json::parse(""), std::runtime_error);
}

TEST(Json, DeepNestingThrowsInsteadOfOverflowingTheStack) {
  // A million '[' used to recurse a million frames deep and crash; the
  // parser now stops at kMaxParseDepth with a named, offset-bearing error.
  const std::string hostile(1000000, '[');
  try {
    (void)Json::parse(hostile);
    FAIL() << "10^6 nested arrays accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nesting depth exceeds 512"), std::string::npos) << what;
    EXPECT_NE(what.find("offset 512"), std::string::npos) << what;
  }
  EXPECT_THROW((void)Json::parse(std::string(100000, '{')), std::runtime_error);

  // The limit itself is legal, one more level is not.
  const std::size_t max = Json::kMaxParseDepth;
  const std::string at_limit = std::string(max, '[') + std::string(max, ']');
  EXPECT_EQ(Json::parse(at_limit).dump(), at_limit);
  EXPECT_THROW((void)Json::parse("[" + at_limit + "]"), std::runtime_error);
}

TEST(Json, AccessorsEnforceKindAndRange) {
  EXPECT_THROW((void)Json::parse("\"s\"").as_double(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("-1").as_uint(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("2.5").as_int(), std::runtime_error);
  EXPECT_THROW((void)Json::parse("{}").at("missing"), std::runtime_error);
  EXPECT_EQ(Json::parse("7").as_double(), 7.0);  // widening is fine
}

TEST(Json, DefaultedLookups) {
  const Json j = Json::parse(R"({"k": 3, "xi": 0.5, "on": true, "s": "x"})");
  EXPECT_EQ(j.uint_or("k", 9), 3u);
  EXPECT_EQ(j.uint_or("absent", 9), 9u);
  EXPECT_DOUBLE_EQ(j.number_or("xi", 1.0), 0.5);
  EXPECT_EQ(j.bool_or("on", false), true);
  EXPECT_EQ(j.string_or("s", "d"), "x");
  EXPECT_EQ(j.string_or("absent", "d"), "d");
}

}  // namespace
}  // namespace cohesion::run
