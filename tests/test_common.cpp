// Tests for mmhand/common: errors, rng, vec3, quaternion, stats, serialize,
// parallel_for, and the append-only line sink.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include "mmhand/common/error.hpp"
#include "mmhand/common/io_safe.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/common/quaternion.hpp"
#include "mmhand/common/ring.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/common/serialize.hpp"
#include "mmhand/common/stats.hpp"
#include "mmhand/common/vec3.hpp"

namespace mmhand {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(Error, CheckThrowsWithMessage) {
  try {
    MMHAND_CHECK(1 == 2, "custom detail " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom detail 42"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertThrows) {
  EXPECT_THROW(MMHAND_ASSERT(false), Error);
  EXPECT_NO_THROW(MMHAND_ASSERT(true));
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i)
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 50; ++i)
    if (a.uniform() == b.uniform()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(0, 5);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 5);
    saw_lo |= v == 0;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs(20000);
  for (auto& x : xs) x = rng.normal(1.5, 2.0);
  EXPECT_NEAR(mean(xs), 1.5, 0.05);
  EXPECT_NEAR(stddev(xs), 2.0, 0.05);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(3);
  auto p = rng.permutation(50);
  std::vector<bool> seen(50, false);
  for (int v : p) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 50);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = true;
  }
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(5), b(5);
  Rng fa = a.fork(), fb = b.fork();
  for (int i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(fa.uniform(), fb.uniform());
}

TEST(Vec3, Arithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
}

TEST(Vec3, DotCrossNorm) {
  const Vec3 x{1, 0, 0}, y{0, 1, 0}, z{0, 0, 1};
  EXPECT_DOUBLE_EQ(x.dot(y), 0.0);
  EXPECT_EQ(x.cross(y), z);
  EXPECT_EQ(y.cross(z), x);
  EXPECT_EQ(z.cross(x), y);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm(), 5.0);
  EXPECT_DOUBLE_EQ(Vec3(3, 4, 0).norm2(), 25.0);
}

TEST(Vec3, Normalized) {
  EXPECT_NEAR(Vec3(2, -1, 5).normalized().norm(), 1.0, 1e-12);
  EXPECT_EQ(Vec3(0, 0, 0).normalized(), Vec3(0, 0, 0));
}

TEST(Quaternion, IdentityRotation) {
  const Vec3 v{1, 2, 3};
  const Vec3 r = Quaternion::identity().rotate(v);
  EXPECT_NEAR(distance(r, v), 0.0, 1e-12);
}

TEST(Quaternion, AxisAngle90Deg) {
  const auto q = Quaternion::from_axis_angle({0, 0, 1}, kPi / 2);
  const Vec3 r = q.rotate({1, 0, 0});
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_NEAR(r.z, 0.0, 1e-12);
}

TEST(Quaternion, CompositionMatchesSequentialRotation) {
  const auto qa = Quaternion::from_axis_angle({0, 0, 1}, 0.7);
  const auto qb = Quaternion::from_axis_angle({1, 0, 0}, -0.4);
  const Vec3 v{0.3, -1.2, 2.0};
  const Vec3 seq = qa.rotate(qb.rotate(v));
  const Vec3 composed = (qa * qb).rotate(v);
  EXPECT_NEAR(distance(seq, composed), 0.0, 1e-12);
}

TEST(Quaternion, RotationVectorRoundTrip) {
  const Vec3 rv{0.3, -0.8, 0.5};
  const auto q = Quaternion::from_rotation_vector(rv);
  const Vec3 back = q.to_rotation_vector();
  EXPECT_NEAR(distance(back, rv), 0.0, 1e-10);
}

TEST(Quaternion, RotationVectorRoundTripNearIdentity) {
  const Vec3 rv{1e-9, -2e-9, 3e-9};
  const auto q = Quaternion::from_rotation_vector(rv);
  EXPECT_NEAR(q.w, 1.0, 1e-12);
  const Vec3 back = q.to_rotation_vector();
  EXPECT_NEAR(back.x, rv.x, 1e-12);
}

TEST(Quaternion, RotationPreservesLengthAndAngles) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) {
    const auto q = Quaternion::from_axis_angle(
        {rng.normal(), rng.normal(), rng.normal()}, rng.uniform(-3, 3));
    const Vec3 a{rng.normal(), rng.normal(), rng.normal()};
    const Vec3 b{rng.normal(), rng.normal(), rng.normal()};
    EXPECT_NEAR(q.rotate(a).norm(), a.norm(), 1e-10);
    EXPECT_NEAR(q.rotate(a).dot(q.rotate(b)), a.dot(b), 1e-9);
  }
}

TEST(Quaternion, MatrixMatchesRotate) {
  const auto q = Quaternion::from_axis_angle({0.2, -0.5, 0.8}, 1.1);
  double m[3][3];
  q.to_matrix(m);
  const Vec3 v{0.4, 1.0, -2.0};
  const Vec3 via_q = q.rotate(v);
  const Vec3 via_m{m[0][0] * v.x + m[0][1] * v.y + m[0][2] * v.z,
                   m[1][0] * v.x + m[1][1] * v.y + m[1][2] * v.z,
                   m[2][0] * v.x + m[2][1] * v.y + m[2][2] * v.z};
  EXPECT_NEAR(distance(via_q, via_m), 0.0, 1e-10);
}

TEST(Quaternion, SlerpEndpointsAndMidpoint) {
  const auto a = Quaternion::identity();
  const auto b = Quaternion::from_axis_angle({0, 0, 1}, kPi / 2);
  EXPECT_NEAR(Quaternion::angle_between(Quaternion::slerp(a, b, 0.0), a),
              0.0, 1e-9);
  EXPECT_NEAR(Quaternion::angle_between(Quaternion::slerp(a, b, 1.0), b),
              0.0, 1e-9);
  const auto mid = Quaternion::slerp(a, b, 0.5);
  const auto expect = Quaternion::from_axis_angle({0, 0, 1}, kPi / 4);
  EXPECT_NEAR(Quaternion::angle_between(mid, expect), 0.0, 1e-9);
}

TEST(Quaternion, AngleBetweenHandlesDoubleCover) {
  const auto q = Quaternion::from_axis_angle({0, 1, 0}, 0.8);
  const Quaternion neg{-q.w, -q.x, -q.y, -q.z};
  EXPECT_NEAR(Quaternion::angle_between(q, neg), 0.0, 1e-9);
}

TEST(Stats, MeanStd) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
}

TEST(Stats, MinMaxPercentile) {
  const std::vector<double> xs{5, 1, 9, 3, 7};
  EXPECT_DOUBLE_EQ(min_value(xs), 1.0);
  EXPECT_DOUBLE_EQ(max_value(xs), 9.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 9.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 5.0);
}

TEST(Stats, FractionBelow) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(fraction_below(xs, 2.5), 0.5);
  EXPECT_DOUBLE_EQ(fraction_below(xs, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(fraction_below(xs, 10.0), 1.0);
}

TEST(Stats, EmpiricalCdfMonotone) {
  Rng rng(4);
  std::vector<double> xs(500);
  for (auto& x : xs) x = rng.uniform(0, 10);
  const auto cdf = empirical_cdf(xs, 20);
  EXPECT_DOUBLE_EQ(cdf.front().value, 0.0);
  EXPECT_NEAR(cdf.back().cumulative, 1.0, 1e-12);
  for (std::size_t i = 1; i < cdf.size(); ++i)
    EXPECT_GE(cdf[i].cumulative, cdf[i - 1].cumulative);
}

TEST(Stats, NormalizedAucOfConstantOne) {
  const std::vector<double> xs{0, 1, 2, 3}, ys{1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(normalized_auc(xs, ys), 1.0);
}

TEST(Stats, NormalizedAucOfLinearRamp) {
  const std::vector<double> xs{0, 1}, ys{0, 1};
  EXPECT_DOUBLE_EQ(normalized_auc(xs, ys), 0.5);
}

TEST(Stats, ErrorsOnEmpty) {
  const std::vector<double> empty;
  EXPECT_THROW(mean(empty), Error);
  EXPECT_THROW(percentile(empty, 50), Error);
}

// RingBuffer wraparound at exact-capacity boundaries: the eviction and
// age-order arithmetic both hinge on the `size_ == capacity` transition.
TEST(RingBuffer, ExactCapacityBoundaryKeepsAgeOrder) {
  RingBuffer<int> ring(4);
  EXPECT_TRUE(ring.empty());
  // Fill to exactly capacity: nothing evicted, order preserved.
  for (int i = 0; i < 4; ++i) ring.push(i);
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i));
  EXPECT_EQ(ring.newest(), 3);
  // One past capacity: exactly the oldest is gone.
  ring.push(4);
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i + 1));
  // A full extra lap lands back on the same slot layout.
  for (int i = 5; i < 9; ++i) ring.push(i);
  ASSERT_EQ(ring.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(ring[i], static_cast<int>(i + 5));
  EXPECT_EQ(ring.newest(), 8);
}

TEST(RingBuffer, CapacityOneAlwaysHoldsNewest) {
  RingBuffer<int> ring(1);
  for (int i = 0; i < 3; ++i) {
    ring.push(i);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring[0], i);
    EXPECT_EQ(ring.newest(), i);
  }
}

TEST(RingBuffer, ClearResetsToEmptyAndRefills) {
  RingBuffer<int> ring(3);
  for (int i = 0; i < 5; ++i) ring.push(i);
  ring.clear();
  EXPECT_TRUE(ring.empty());
  ring.push(7);
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0], 7);
}

TEST(Serialize, RoundTrip) {
  const std::string path = ::testing::TempDir() + "/ser_roundtrip.bin";
  {
    BinaryWriter w(path);
    w.write_u32(0xdeadbeef);
    w.write_u64(1234567890123ull);
    w.write_f32(1.5f);
    w.write_f64(-2.25);
    w.write_string("mmhand");
    w.write_f32_vector({1.0f, 2.0f, 3.0f});
    w.write_i32_vector({-1, 0, 7});
    w.close();
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_u32(), 0xdeadbeef);
  EXPECT_EQ(r.read_u64(), 1234567890123ull);
  EXPECT_FLOAT_EQ(r.read_f32(), 1.5f);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "mmhand");
  EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
  EXPECT_EQ(r.read_i32_vector(), (std::vector<int>{-1, 0, 7}));
  EXPECT_TRUE(r.eof());
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedReadThrows) {
  const std::string path = ::testing::TempDir() + "/ser_trunc.bin";
  {
    BinaryWriter w(path);
    w.write_u32(1);
    w.close();
  }
  BinaryReader r(path);
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u64(), Error);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(BinaryReader("/nonexistent/path/file.bin"), Error);
  EXPECT_FALSE(file_exists("/nonexistent/path/file.bin"));
}

TEST(ParallelFor, EmptyRangeCallsNothing) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::int64_t) { ++calls; });
  parallel_for(7, 3, [&](std::int64_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, OneIndexRangeRunsOnCaller) {
  const int prev = num_threads();
  set_num_threads(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::int64_t> seen;
  parallel_for(2, 3, [&](std::int64_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    seen.push_back(i);
  });
  set_num_threads(prev);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2}));
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  const int prev = num_threads();
  set_num_threads(4);
  constexpr int kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(0, kN, [&](std::int64_t i) {
    ++hits[static_cast<std::size_t>(i)];
  });
  set_num_threads(prev);
  for (int i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, WorkerExceptionPropagatesToCaller) {
  const int prev = num_threads();
  set_num_threads(4);
  EXPECT_THROW(parallel_for(0, 64,
                            [&](std::int64_t i) {
                              if (i == 13)
                                throw std::runtime_error("boom 13");
                            }),
               std::runtime_error);
  set_num_threads(prev);
}

TEST(ParallelFor, NestedCallsFallBackToSerial) {
  const int prev = num_threads();
  set_num_threads(4);
  std::atomic<int> inner_total{0};
  std::atomic<bool> saw_region_flag{true};
  parallel_for(0, 8, [&](std::int64_t) {
    if (!in_parallel_region()) saw_region_flag = false;
    const auto inner_thread = std::this_thread::get_id();
    parallel_for(0, 16, [&](std::int64_t) {
      // Serial fallback: the nested body stays on the outer worker.
      if (std::this_thread::get_id() != inner_thread) saw_region_flag = false;
      ++inner_total;
    });
  });
  set_num_threads(prev);
  EXPECT_TRUE(saw_region_flag.load());
  EXPECT_EQ(inner_total.load(), 8 * 16);
  EXPECT_FALSE(in_parallel_region());
}

// ---------------------------------------------------------------------
// Append-only line sink (run log / telemetry streams).

TEST(LineWriter, OpenRepairsTornTailAndAppendsStayParseable) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "mmhand_linewriter_torn.jsonl").string();
  fs::remove(path);
  {
    std::ofstream f(path, std::ios::binary);
    f << "{\"seq\": 1}\n{\"seq\": 2}\n{\"seq\": 3, \"partial";  // no newline
  }
  EXPECT_GT(io_safe::repair_torn_line_tail(path), 0u);
  io_safe::LineWriter writer;
  ASSERT_TRUE(writer.open(path));
  EXPECT_TRUE(writer.append("{\"seq\": 4}"));
  writer.close();
  std::ifstream f(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(f, line);) lines.push_back(line);
  // The torn record is gone; the intact prefix and the new line remain.
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "{\"seq\": 1}");
  EXPECT_EQ(lines[1], "{\"seq\": 2}");
  EXPECT_EQ(lines[2], "{\"seq\": 4}");
  fs::remove(path);
}

TEST(LineWriter, RepairIsANoOpOnAnIntactFile) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "mmhand_linewriter_intact.jsonl").string();
  fs::remove(path);
  {
    std::ofstream f(path, std::ios::binary);
    f << "{\"seq\": 1}\n";
  }
  EXPECT_EQ(io_safe::repair_torn_line_tail(path), 0u);
  EXPECT_EQ(fs::file_size(path), 11u);
  fs::remove(path);
}

TEST(LineWriter, OpenReportsTheBytesItTruncated) {
  namespace fs = std::filesystem;
  const std::string path =
      (fs::temp_directory_path() / "mmhand_linewriter_report.jsonl").string();
  fs::remove(path);
  const std::string torn_line = "{\"seq\": 2, \"partial";
  {
    std::ofstream f(path, std::ios::binary);
    f << "{\"seq\": 1}\n" << torn_line;
  }
  std::uint64_t truncated = 0;
  io_safe::LineWriter writer;
  ASSERT_TRUE(writer.open(path, &truncated));
  EXPECT_EQ(truncated, torn_line.size());
  EXPECT_EQ(fs::file_size(path), 11u);
  writer.close();
  // An intact tail reports nothing truncated.
  truncated = 99;
  ASSERT_TRUE(writer.open(path, &truncated));
  EXPECT_EQ(truncated, 0u);
  writer.close();
  fs::remove(path);
}

}  // namespace
}  // namespace mmhand
