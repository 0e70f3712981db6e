// Crash-safety fuzz over the binary framing: a stream cut at *any* byte
// must replay as exactly the committed prefix — every activation frame that
// fits entirely before the cut, bit-identical, nothing after it — with the
// stream reported truncated. Same for a flipped byte: the frame checksum
// catches it and iteration stops at the last intact frame.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "algo/kknps.hpp"
#include "core/engine.hpp"
#include "metrics/configurations.hpp"
#include "sched/asynchronous.hpp"
#include "trace/stream_format.hpp"
#include "trace/stream_reader.hpp"
#include "trace/stream_writer.hpp"

namespace cohesion::trace {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kIndexEvery = 16;

class TempFile {
 public:
  explicit TempFile(const std::string& tag)
      : path_((fs::temp_directory_path() /
               ("cohesion_trunc_fuzz_" + tag + "_" + std::to_string(::getpid()) + ".cohtrace"))
                  .string()) {}
  ~TempFile() { fs::remove(path_); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::vector<char> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_prefix(const std::string& path, const std::vector<char>& bytes, std::size_t len) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(len));
}

/// Byte offset at which each activation frame ends, mirroring the writer's
/// layout: header, then per record a 105-byte 'A' frame plus a 33-byte 'X'
/// frame after every kIndexEvery-th record. The flush cadence moves bytes
/// to the OS earlier or later but never changes the byte sequence.
std::vector<std::size_t> activation_frame_ends(std::size_t header_size, std::size_t records) {
  std::vector<std::size_t> ends;
  ends.reserve(records);
  std::size_t offset = header_size;
  for (std::size_t i = 1; i <= records; ++i) {
    offset += frame_size(kActivationPayloadSize);
    ends.push_back(offset);
    if (kIndexEvery > 0 && i % kIndexEvery == 0) offset += frame_size(kIndexPayloadSize);
  }
  return ends;
}

struct Fixture {
  core::Trace trace;
  std::vector<char> bytes;    // the complete, cleanly closed stream
  std::size_t header_size = 0;
  std::vector<std::size_t> frame_ends;
};

Fixture make_fixture(std::uint64_t seed, std::size_t n, std::size_t steps) {
  Fixture fx;
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
  fx.trace = engine.trace();

  TempFile full("full");
  StreamHeader header;
  header.fingerprint = seed;
  header.initial = fx.trace.initial_configuration();
  StreamTraceWriter writer(full.path(), header,
                           {.flush_every_records = 5, .index_every_records = kIndexEvery});
  for (const core::ActivationRecord& rec : fx.trace.records()) writer.append(rec);
  writer.finish();
  fx.bytes = read_all(full.path());

  fx.header_size = 8 + 4 + 4 + 8 + 8 + 8 + 8 + 16 * n + 4;
  fx.frame_ends = activation_frame_ends(fx.header_size, fx.trace.records().size());
  // Sanity: layout model matches the writer (file = frames + 'E' frame).
  EXPECT_EQ(fx.bytes.size(), fx.frame_ends.back() +
                                 (fx.trace.records().size() % kIndexEvery == 0
                                      ? frame_size(kIndexPayloadSize)
                                      : 0) +
                                 frame_size(kEndPayloadSize));
  return fx;
}

/// Committed prefix = activation frames wholly before the cut.
std::size_t expected_records(const Fixture& fx, std::size_t cut) {
  std::size_t count = 0;
  while (count < fx.frame_ends.size() && fx.frame_ends[count] <= cut) ++count;
  return count;
}

void expect_prefix(const Fixture& fx, const std::string& path, std::size_t cut) {
  const std::size_t want = expected_records(fx, cut);
  StreamTraceReader reader(path);
  core::ActivationRecord rec;
  std::size_t got = 0;
  while (reader.next(rec)) {
    ASSERT_LT(got, want) << "cut at " << cut << " yielded a record past the committed prefix";
    const core::ActivationRecord& ref = fx.trace.records()[got];
    ASSERT_EQ(rec.activation.robot, ref.activation.robot) << "cut " << cut << " rec " << got;
    ASSERT_EQ(rec.activation.t_look, ref.activation.t_look) << "cut " << cut << " rec " << got;
    ASSERT_EQ(rec.activation.t_move_end, ref.activation.t_move_end)
        << "cut " << cut << " rec " << got;
    ASSERT_EQ(rec.from, ref.from) << "cut " << cut << " rec " << got;
    ASSERT_EQ(rec.realized, ref.realized) << "cut " << cut << " rec " << got;
    ++got;
  }
  EXPECT_EQ(got, want) << "cut at " << cut;
  EXPECT_EQ(reader.records_read(), want) << "cut at " << cut;
  EXPECT_TRUE(reader.truncated()) << "cut at " << cut;
  EXPECT_FALSE(reader.closed_cleanly()) << "cut at " << cut;
}

TEST(TruncationFuzz, EveryCutYieldsExactlyTheCommittedPrefix) {
  const Fixture fx = make_fixture(3, 10, 220);
  ASSERT_GT(fx.trace.records().size(), 2 * kIndexEvery);

  // Cut points: every frame boundary and its neighbours (the off-by-one
  // cases framing must get right), plus a coarse sweep across all bytes.
  std::set<std::size_t> cuts;
  for (const std::size_t end : fx.frame_ends) {
    if (end + 1 < fx.bytes.size()) {
      cuts.insert(end - 1);
      cuts.insert(end);
      cuts.insert(end + 1);
    }
  }
  for (std::size_t cut = fx.header_size; cut < fx.bytes.size(); cut += 13) cuts.insert(cut);

  TempFile torn("torn");
  for (const std::size_t cut : cuts) {
    write_prefix(torn.path(), fx.bytes, cut);
    expect_prefix(fx, torn.path(), cut);
  }
}

TEST(TruncationFuzz, MissingEndFrameIsTruncatedEvenWithAllRecords) {
  const Fixture fx = make_fixture(5, 8, 120);
  // Cut exactly the 'E' frame (and a trailing 'X', if any): every record
  // survives but the stream must still be flagged torn, not clean.
  std::size_t cut = fx.frame_ends.back();
  if (fx.trace.records().size() % kIndexEvery == 0) cut += frame_size(kIndexPayloadSize);
  TempFile torn("noend");
  write_prefix(torn.path(), fx.bytes, cut);

  StreamTraceReader reader(torn.path());
  core::ActivationRecord rec;
  std::size_t got = 0;
  while (reader.next(rec)) ++got;
  EXPECT_EQ(got, fx.trace.records().size());
  EXPECT_TRUE(reader.truncated());
  EXPECT_FALSE(reader.closed_cleanly());
}

TEST(TruncationFuzz, FlippedPayloadByteStopsAtLastIntactFrame) {
  const Fixture fx = make_fixture(9, 8, 120);
  const std::size_t total = fx.trace.records().size();
  for (const std::size_t victim : {std::size_t{0}, total / 2, total - 1}) {
    std::vector<char> bytes = fx.bytes;
    // Flip a byte in the middle of the victim frame's payload.
    const std::size_t frame_end = fx.frame_ends[victim];
    const std::size_t at = frame_end - frame_size(kActivationPayloadSize) + 5 + 17;
    ASSERT_LT(at, bytes.size()) << "the fixture stream is shorter than its layout";
    bytes[at] = static_cast<char>(bytes[at] ^ 0x08);
    TempFile corrupt("bitflip");
    write_prefix(corrupt.path(), bytes, bytes.size());

    StreamTraceReader reader(corrupt.path());
    core::ActivationRecord rec;
    std::size_t got = 0;
    while (reader.next(rec)) ++got;
    EXPECT_EQ(got, victim) << "victim " << victim;
    EXPECT_TRUE(reader.truncated()) << "victim " << victim;
  }
}

}  // namespace
}  // namespace cohesion::trace
