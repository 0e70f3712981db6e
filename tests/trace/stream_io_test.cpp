// Writer -> reader round trips for the binary activation-stream format:
// header fields, record bit-identity, footer, index-chain seeking, TeeSink
// fan-out, and the reader's actionable rejections (foreign magic,
// unsupported version, corrupt header).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "core/trace_sink.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "trace/stream_format.hpp"
#include "trace/stream_reader.hpp"
#include "trace/stream_writer.hpp"

namespace cohesion::trace {
namespace {

namespace fs = std::filesystem;
using geom::Vec2;

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_stream_io_" + tag + "_" + std::to_string(::getpid()) + ".cohtrace"))
                  .string()) {}
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// A short real run: the records exercise every payload field (fractional
/// realizations, varying seen counts, distinct times).
core::Trace make_reference_trace(std::uint64_t seed, std::size_t n, std::size_t steps) {
  const double v = 1.0;
  auto initial = metrics::random_connected_configuration(n, 0.4 * std::sqrt(double(n)), v, seed);
  algo::KknpsAlgorithm algorithm({.k = 1});
  sched::KAsyncScheduler::Params p;
  p.seed = seed;
  p.k = 2;
  sched::KAsyncScheduler scheduler(n, p);
  core::EngineConfig config;
  config.seed = seed;
  core::Engine engine(std::move(initial), algorithm, scheduler, config);
  engine.run(steps);
  return engine.trace();
}

void expect_identical_record(const core::ActivationRecord& a, const core::ActivationRecord& b,
                             std::size_t i) {
  EXPECT_EQ(a.activation.robot, b.activation.robot) << "rec " << i;
  EXPECT_EQ(a.activation.t_look, b.activation.t_look) << "rec " << i;
  EXPECT_EQ(a.activation.t_move_start, b.activation.t_move_start) << "rec " << i;
  EXPECT_EQ(a.activation.t_move_end, b.activation.t_move_end) << "rec " << i;
  EXPECT_EQ(a.activation.realized_fraction, b.activation.realized_fraction) << "rec " << i;
  EXPECT_EQ(a.from, b.from) << "rec " << i;
  EXPECT_EQ(a.planned, b.planned) << "rec " << i;
  EXPECT_EQ(a.realized, b.realized) << "rec " << i;
  EXPECT_EQ(a.seen, b.seen) << "rec " << i;
}

void write_stream(const std::string& path, const core::Trace& trace, std::uint64_t fingerprint,
                  StreamWriterOptions options) {
  StreamHeader header;
  header.fingerprint = fingerprint;
  header.initial = trace.initial_configuration();
  header.visibility_radius = 1.0;
  header.stop_epsilon = 0.05;
  StreamTraceWriter writer(path, header, options);
  for (const core::ActivationRecord& rec : trace.records()) writer.append(rec);
  writer.finish();
}

TEST(StreamIo, HeaderRoundTrip) {
  TempFile file("header");
  const std::vector<Vec2> initial = {{0.0, 0.0}, {0.25, -1.5}, {3.75, 2.125}};
  StreamHeader header;
  header.fingerprint = 0x0123456789abcdefull;
  header.initial = initial;
  header.visibility_radius = 0.875;
  header.stop_epsilon = 0.03125;
  {
    StreamTraceWriter writer(file.path(), header);
    writer.finish();
  }
  StreamTraceReader reader(file.path());
  EXPECT_EQ(reader.header().fingerprint, header.fingerprint);
  EXPECT_EQ(reader.header().visibility_radius, header.visibility_radius);
  EXPECT_EQ(reader.header().stop_epsilon, header.stop_epsilon);
  ASSERT_EQ(reader.header().initial.size(), initial.size());
  for (std::size_t i = 0; i < initial.size(); ++i) {
    EXPECT_EQ(reader.header().initial[i], initial[i]) << "robot " << i;
  }
  core::ActivationRecord rec;
  EXPECT_FALSE(reader.next(rec));
  EXPECT_TRUE(reader.closed_cleanly());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.records_read(), 0u);
}

TEST(StreamIo, RecordsRoundTripBitIdentical) {
  const core::Trace trace = make_reference_trace(7, 16, 600);
  ASSERT_GT(trace.records().size(), 100u);
  TempFile file("records");
  // Small cadences so the round trip crosses many flush and index
  // boundaries, not just one buffered blob.
  write_stream(file.path(), trace, 42, {.flush_every_records = 7, .index_every_records = 32});

  StreamTraceReader reader(file.path());
  core::ActivationRecord rec;
  std::size_t i = 0;
  while (reader.next(rec)) {
    ASSERT_LT(i, trace.records().size());
    expect_identical_record(rec, trace.records()[i], i);
    ++i;
  }
  EXPECT_EQ(i, trace.records().size());
  EXPECT_TRUE(reader.closed_cleanly());
  EXPECT_FALSE(reader.truncated());
  EXPECT_EQ(reader.records_read(), trace.records().size());
  EXPECT_EQ(reader.end_time(), trace.end_time());
}

TEST(StreamIo, FooterReadsWithoutForwardScan) {
  const core::Trace trace = make_reference_trace(11, 12, 300);
  TempFile indexed("footer_indexed");
  write_stream(indexed.path(), trace, 9, {.flush_every_records = 64, .index_every_records = 50});
  const auto footer = StreamTraceReader::read_footer(indexed.path());
  ASSERT_TRUE(footer.has_value());
  EXPECT_EQ(footer->total_records, trace.records().size());
  EXPECT_EQ(footer->end_time, trace.end_time());
  EXPECT_NE(footer->last_index_offset, 0u);

  TempFile unindexed("footer_unindexed");
  write_stream(unindexed.path(), trace, 9, {.flush_every_records = 64, .index_every_records = 0});
  const auto flat = StreamTraceReader::read_footer(unindexed.path());
  ASSERT_TRUE(flat.has_value());
  EXPECT_EQ(flat->total_records, trace.records().size());
  EXPECT_EQ(flat->last_index_offset, 0u);  // no 'X' frames to anchor

  // A torn file has no trustworthy footer.
  const auto size = fs::file_size(indexed.path());
  fs::resize_file(indexed.path(), size - 8);
  EXPECT_FALSE(StreamTraceReader::read_footer(indexed.path()).has_value());
}

TEST(StreamIo, SeekToLandsOnExactRecord) {
  const core::Trace trace = make_reference_trace(13, 12, 200);
  const std::size_t total = trace.records().size();
  ASSERT_GT(total, 40u);
  TempFile indexed("seek_indexed");
  write_stream(indexed.path(), trace, 1, {.flush_every_records = 16, .index_every_records = 16});

  StreamTraceReader reader(indexed.path());
  core::ActivationRecord rec;
  const std::size_t targets[] = {0, 1, 15, 16, 17, 33, total - 1};
  for (const std::size_t target : targets) {
    ASSERT_TRUE(reader.seek_to(target)) << "target " << target;
    ASSERT_TRUE(reader.next(rec)) << "target " << target;
    expect_identical_record(rec, trace.records()[target], target);
  }
  // Seeking backwards after reading forward must work too (restart path).
  ASSERT_TRUE(reader.seek_to(2));
  ASSERT_TRUE(reader.next(rec));
  expect_identical_record(rec, trace.records()[2], 2);
  EXPECT_FALSE(reader.seek_to(total));  // one past the end

  // Without 'X' frames seek degrades to a forward scan, same results.
  TempFile unindexed("seek_unindexed");
  write_stream(unindexed.path(), trace, 1, {.flush_every_records = 16, .index_every_records = 0});
  StreamTraceReader flat(unindexed.path());
  ASSERT_TRUE(flat.seek_to(total - 3));
  ASSERT_TRUE(flat.next(rec));
  expect_identical_record(rec, trace.records()[total - 3], total - 3);
}

TEST(StreamIo, TeeSinkFansOutToEverySink) {
  const core::Trace trace = make_reference_trace(17, 10, 150);
  TempFile file("tee");
  core::Trace copy(trace.initial_configuration());
  StreamHeader header;
  header.initial = trace.initial_configuration();
  StreamTraceWriter writer(file.path(), header, {.flush_every_records = 8});
  std::vector<core::TraceSink*> sinks = {&copy, &writer};
  core::TeeSink tee(sinks);
  for (const core::ActivationRecord& rec : trace.records()) tee.append(rec);
  tee.finish();
  EXPECT_TRUE(writer.finished());  // finish() propagated through the tee
  ASSERT_EQ(copy.records().size(), trace.records().size());
  for (std::size_t i = 0; i < trace.records().size(); ++i) {
    expect_identical_record(copy.records()[i], trace.records()[i], i);
  }
  StreamTraceReader reader(file.path());
  core::ActivationRecord rec;
  std::size_t i = 0;
  while (reader.next(rec)) expect_identical_record(rec, trace.records()[i++], i);
  EXPECT_EQ(i, trace.records().size());
  EXPECT_TRUE(reader.closed_cleanly());
}

TEST(StreamIo, RejectsForeignMagic) {
  TempFile file("magic");
  {
    std::ofstream out(file.path(), std::ios::binary);
    out << "NOTATRCEgarbage that is long enough to hold a header prefix....";
  }
  try {
    StreamTraceReader reader(file.path());
    FAIL() << "foreign magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("COHTRACE"), std::string::npos) << e.what();
  }
}

TEST(StreamIo, RejectsUnsupportedVersionByName) {
  TempFile file("version");
  {
    // Hand-build a header with version 99 and a *valid* checksum, so the
    // version check (not the checksum check) must be the one that fires.
    std::vector<char> hdr;
    hdr.insert(hdr.end(), kStreamMagic, kStreamMagic + sizeof(kStreamMagic));
    put_u32(hdr, 99);
    put_u32(hdr, 0);
    put_u64(hdr, 0);
    put_u64(hdr, 0);  // zero robots
    put_f64(hdr, 1.0);
    put_f64(hdr, 0.0);
    put_u32(hdr, fnv1a32(hdr.data(), hdr.size()));
    std::ofstream out(file.path(), std::ios::binary);
    out.write(hdr.data(), static_cast<std::streamsize>(hdr.size()));
  }
  try {
    StreamTraceReader reader(file.path());
    FAIL() << "future version accepted";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("version 99"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(kFormatVersion)), std::string::npos) << what;
  }
}

TEST(StreamIo, RejectsCorruptHeaderChecksum) {
  const core::Trace trace = make_reference_trace(19, 8, 50);
  TempFile file("checksum");
  write_stream(file.path(), trace, 5, {});
  {
    // Flip one byte inside the initial configuration.
    std::fstream f(file.path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(48 + 3);
    char b = 0;
    f.get(b);
    f.seekp(48 + 3);
    f.put(static_cast<char>(b ^ 0x40));
  }
  try {
    StreamTraceReader reader(file.path());
    FAIL() << "corrupt header accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
}

TEST(StreamIo, RejectsTruncatedHeader) {
  const core::Trace trace = make_reference_trace(23, 8, 50);
  TempFile file("short_header");
  write_stream(file.path(), trace, 5, {});
  fs::resize_file(file.path(), 20);  // ends before the initial configuration
  EXPECT_THROW(StreamTraceReader reader(file.path()), std::runtime_error);
  fs::resize_file(file.path(), 10);  // ends inside the magic/prefix
  EXPECT_THROW(StreamTraceReader reader(file.path()), std::runtime_error);
  EXPECT_THROW(StreamTraceReader missing("/nonexistent/dir/x.cohtrace"), std::runtime_error);
}

}  // namespace
}  // namespace cohesion::trace
