// Tests for the obs/alloc operator-new interposer: exact deterministic
// counts for every new/delete form, counter silence while tracking is
// disabled, and the runtime half of the purity gate — steady-state
// radar frames allocate nothing at 1 and at 4 pool threads.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "mmhand/common/parallel.hpp"
#include "mmhand/common/rng.hpp"
#include "mmhand/obs/alloc.hpp"
#include "mmhand/radar/antenna_array.hpp"
#include "mmhand/radar/chirp_config.hpp"
#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/pipeline.hpp"

namespace mmhand::obs {
namespace {

/// RAII tracking toggle so a failed EXPECT can't leave tracking on for
/// the rest of the binary.
struct TrackScope {
  TrackScope() { set_alloc_tracking(true); }
  ~TrackScope() { set_alloc_tracking(false); }
};

/// Defeats allocation elision ([expr.new]/10): without an observable
/// escape the optimizer may satisfy a new-expression on the stack and
/// the interposer never sees it.
void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

TEST(AllocInterposer, DisabledByDefaultAndSilentWhenOff) {
  ASSERT_FALSE(alloc_tracking_enabled());
  const AllocCounts before = alloc_counts();
  auto* p = new std::vector<int>(64);
  delete p;
  const AllocCounts after = alloc_counts();
  EXPECT_EQ(after.allocs, before.allocs);
  EXPECT_EQ(after.frees, before.frees);
  EXPECT_EQ(after.bytes, before.bytes);
}

TEST(AllocInterposer, CountsScalarNewDeleteExactly) {
  TrackScope track;
  const AllocCounts before = alloc_counts();
  int* p = new int(7);
  escape(p);
  const AllocCounts mid = alloc_counts();
  delete p;
  const AllocCounts after = alloc_counts();
  EXPECT_EQ(mid.allocs - before.allocs, 1);
  EXPECT_EQ(mid.frees - before.frees, 0);
  EXPECT_GE(mid.bytes - before.bytes, static_cast<std::int64_t>(sizeof(int)));
  EXPECT_EQ(after.frees - before.frees, 1);
}

TEST(AllocInterposer, CountsContainerGrowthDeterministically) {
  TrackScope track;
  const AllocCounts before = alloc_counts();
  {
    std::vector<int> v;
    v.reserve(100);  // exactly one allocation of >= 400 bytes
  }
  const AllocCounts after = alloc_counts();
  EXPECT_EQ(after.allocs - before.allocs, 1);
  EXPECT_EQ(after.frees - before.frees, 1);
  EXPECT_GE(after.bytes - before.bytes, 400);
}

TEST(AllocInterposer, CountsArrayAlignedAndNothrowForms) {
  TrackScope track;
  const AllocCounts before = alloc_counts();
  auto* arr = new char[256];
  escape(arr);
  delete[] arr;

  struct alignas(64) Wide {
    double d[8];
  };
  auto* w = new Wide;
  escape(w);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(w) % 64, 0u);
  delete w;

  int* nt = new (std::nothrow) int;
  escape(nt);
  ASSERT_NE(nt, nullptr);
  delete nt;

  const AllocCounts after = alloc_counts();
  EXPECT_EQ(after.allocs - before.allocs, 3);
  EXPECT_EQ(after.frees - before.frees, 3);
  EXPECT_GE(after.bytes - before.bytes,
            static_cast<std::int64_t>(256 + sizeof(Wide) + sizeof(int)));
}

TEST(AllocInterposer, SteadyStateRadarFramesAreAllocationFree) {
  radar::ChirpConfig chirp;
  chirp.noise_stddev = 0.0;
  const radar::AntennaArray array(chirp);
  const radar::IfSimulator sim(chirp, array);
  const radar::PipelineConfig pc;
  const radar::RadarPipeline pipe(chirp, array, pc);
  radar::Scene scene{
      {Vec3{0.05, 0.30, 0.02}, Vec3{0.0, 0.4, 0.0}, 1.0},
  };
  Rng rng(1);
  const auto frame = sim.simulate_frame(scene, 0.0, rng);
  radar::RadarCube cube;

  const int saved_threads = num_threads();
  for (const int threads : {1, 4}) {
    set_num_threads(threads);
    // Settle: which worker first touches a stage's grow-on-demand
    // scratch is a chunk-claiming race, so early batches may grow; a
    // batch with zero allocations proves steady state (and a real
    // per-frame leak never produces one).
    std::int64_t batch_allocs = -1;
    for (int batch = 0; batch < 8 && batch_allocs != 0; ++batch) {
      TrackScope track;
      const AllocCounts before = alloc_counts();
      for (int i = 0; i < 10; ++i) pipe.process_frame_into(frame, &cube);
      batch_allocs = alloc_counts().allocs - before.allocs;
    }
    EXPECT_EQ(batch_allocs, 0)
        << "steady-state frames allocate at " << threads << " thread(s)";
  }
  set_num_threads(saved_threads);
}

}  // namespace
}  // namespace mmhand::obs
