// Tests for the detection path: radar point-cloud extraction.

#include <gtest/gtest.h>

#include <cmath>

#include "mmhand/radar/if_simulator.hpp"
#include "mmhand/radar/point_cloud.hpp"

namespace mmhand {
namespace {

class PointCloudTest : public ::testing::Test {
 protected:
  PointCloudTest()
      : chirp_([] {
          radar::ChirpConfig c;
          c.noise_stddev = 0.005;
          return c;
        }()),
        array_(chirp_),
        sim_(chirp_, array_),
        pipeline_(chirp_, array_, radar::PipelineConfig{}) {}

  radar::RadarCube cube_for(const radar::Scene& scene) {
    Rng rng(3);
    return pipeline_.process_frame(sim_.simulate_frame(scene, 0.0, rng));
  }

  radar::ChirpConfig chirp_;
  radar::AntennaArray array_;
  radar::IfSimulator sim_;
  radar::RadarPipeline pipeline_;
};

TEST_F(PointCloudTest, SingleTargetYieldsLocalizedCloud) {
  const Vec3 target{0.05, 0.30, 0.02};
  const auto cube = cube_for({{target, Vec3{}, 1.5}});
  const auto points = radar::extract_point_cloud(cube, pipeline_);
  ASSERT_FALSE(points.empty());
  const Vec3 centroid = radar::point_cloud_centroid(points);
  EXPECT_LT(distance(centroid, target), 0.08)
      << "centroid " << centroid.x << "," << centroid.y << "," << centroid.z;
}

TEST_F(PointCloudTest, CloudIsSortedByIntensityAndBounded) {
  const auto cube = cube_for({{Vec3{0.0, 0.30, 0.0}, Vec3{}, 1.0},
                              {Vec3{-0.08, 0.45, 0.0}, Vec3{}, 0.8}});
  radar::PointCloudConfig cfg;
  cfg.max_points = 10;
  const auto points = radar::extract_point_cloud(cube, pipeline_, cfg);
  EXPECT_LE(points.size(), 10u);
  for (std::size_t i = 1; i < points.size(); ++i)
    EXPECT_GE(points[i - 1].intensity, points[i].intensity);
}

TEST_F(PointCloudTest, MovingTargetCarriesVelocity) {
  const auto cube =
      cube_for({{Vec3{0.0, 0.30, 0.0}, Vec3{0.0, 1.0, 0.0}, 1.5}});
  const auto points = radar::extract_point_cloud(cube, pipeline_);
  ASSERT_FALSE(points.empty());
  // The strongest points should carry a positive radial velocity.
  double weighted_v = 0.0, total = 0.0;
  for (const auto& p : points) {
    weighted_v += p.velocity * p.intensity;
    total += p.intensity;
  }
  EXPECT_GT(weighted_v / total, 0.3);
}

TEST_F(PointCloudTest, EmptyCentroidIsZero) {
  EXPECT_EQ(radar::point_cloud_centroid({}), (Vec3{0, 0, 0}));
}

}  // namespace
}  // namespace mmhand
