#include "core/trace_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"

namespace cohesion::core {
namespace {

Trace sample_trace() {
  const algo::KknpsAlgorithm algo({.k = 2});
  sched::KAsyncScheduler::Params p;
  p.k = 2;
  p.seed = 77;
  p.xi = 0.5;
  sched::KAsyncScheduler sched(6, p);
  EngineConfig cfg;
  cfg.visibility.radius = 1.0;
  cfg.seed = 77;
  Engine engine(metrics::line_configuration(6, 0.8), algo, sched, cfg);
  engine.run(200);
  return engine.trace();
}

TEST(TraceIo, RoundTripExact) {
  const Trace original = sample_trace();
  std::stringstream buf;
  write_trace_csv(original, buf);
  const Trace loaded = read_trace_csv(buf);

  ASSERT_EQ(loaded.robot_count(), original.robot_count());
  ASSERT_EQ(loaded.records().size(), original.records().size());
  for (std::size_t i = 0; i < original.records().size(); ++i) {
    const auto& a = original.records()[i];
    const auto& b = loaded.records()[i];
    EXPECT_EQ(a.activation.robot, b.activation.robot);
    EXPECT_DOUBLE_EQ(a.activation.t_look, b.activation.t_look);
    EXPECT_DOUBLE_EQ(a.activation.t_move_end, b.activation.t_move_end);
    EXPECT_TRUE(geom::almost_equal(a.realized, b.realized, 0.0));
    EXPECT_EQ(a.seen, b.seen);
  }
  // Position reconstruction agrees at arbitrary times.
  for (double t = 0.0; t < original.end_time(); t += 1.3) {
    for (RobotId r = 0; r < original.robot_count(); ++r) {
      EXPECT_TRUE(geom::almost_equal(original.position(r, t), loaded.position(r, t), 0.0));
    }
  }
}

TEST(TraceIo, RejectsMissingHeader) {
  std::stringstream buf("bogus\nI,0,0,0\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsTruncatedLine) {
  std::stringstream buf("cohesion-trace-v1\nI,0,1.0\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownRobotRecord) {
  std::stringstream buf(
      "cohesion-trace-v1\nI,0,0,0\nA,5,0,0,1,1,0,0,0,0,0,0,0\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsUnknownTag) {
  std::stringstream buf("cohesion-trace-v1\nZ,0,0,0\n");
  EXPECT_THROW(read_trace_csv(buf), std::runtime_error);
}

TEST(TraceIo, RejectsNonFiniteNumbers) {
  // std::stod parses these; a NaN time would break the validators' sort.
  for (const char* bad : {"nan", "inf", "-inf"}) {
    std::stringstream times("cohesion-trace-v1\nI,0,0,0\nA,0," + std::string(bad) +
                            ",0,1,1,0,0,0,0,0,0,0\n");
    EXPECT_THROW(read_trace_csv(times), std::runtime_error) << bad;
    std::stringstream coords("cohesion-trace-v1\nI,0,0," + std::string(bad) + "\n");
    EXPECT_THROW(read_trace_csv(coords), std::runtime_error) << bad;
  }
}

TEST(TraceIo, FileRoundTrip) {
  const Trace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/cohesion_trace_io_test.csv";
  write_trace_csv(original, path);
  const Trace loaded = read_trace_csv_file(path);
  EXPECT_EQ(loaded.records().size(), original.records().size());
  EXPECT_DOUBLE_EQ(loaded.end_time(), original.end_time());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(read_trace_csv_file("/nonexistent/path.csv"), std::runtime_error);
}

}  // namespace
}  // namespace cohesion::core
