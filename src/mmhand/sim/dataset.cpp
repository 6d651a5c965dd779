#include "mmhand/sim/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include <limits>

#include "mmhand/common/error.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/fault/fault.hpp"
#include "mmhand/hand/kinematics.hpp"
#include "mmhand/obs/trace.hpp"

namespace mmhand::sim {

namespace {

void zero_cube(radar::RadarCube& cube) {
  std::fill(cube.data().begin(), cube.data().end(), 0.0f);
}

/// Fault-injection pass over a finished recording (MMHAND_FAULT).  Runs
/// strictly sequentially over frames so each kind's event stream is
/// consumed in frame order — the same seed always damages the same
/// frames regardless of thread count.  Models the input-layer failure
/// modes of a real capture rig: single lost frames, multi-frame
/// packet-loss gaps, ADC rail saturation, and NaN bursts.
void inject_input_faults(Recording& rec) {
  for (std::size_t f = 0; f < rec.frames.size(); ++f) {
    auto& data = rec.frames[f].cube.data();
    if (data.empty()) continue;
    if (fault::should_inject(fault::Kind::kGap)) {
      // A DCA1000 packet-loss gap: 2-4 consecutive frames lost.
      const std::size_t len =
          2 + static_cast<std::size_t>(fault::draw_u64(fault::Kind::kGap) % 3);
      const std::size_t end = std::min(f + len, rec.frames.size());
      for (std::size_t g = f; g < end; ++g) zero_cube(rec.frames[g].cube);
      f = end - 1;
      continue;
    }
    if (fault::should_inject(fault::Kind::kDropFrame)) {
      zero_cube(rec.frames[f].cube);
      continue;
    }
    if (fault::should_inject(fault::Kind::kSaturate)) {
      // Rail clipping: every cell pinned at the frame maximum.
      float mx = 0.0f;
      for (const float v : data) mx = std::max(mx, v);
      std::fill(data.begin(), data.end(), mx > 0.0f ? mx : 1.0f);
      continue;
    }
    if (fault::should_inject(fault::Kind::kNanBurst)) {
      const std::size_t start =
          static_cast<std::size_t>(fault::draw_u64(fault::Kind::kNanBurst)) %
          data.size();
      const std::size_t len =
          1 + static_cast<std::size_t>(
                  fault::draw_u64(fault::Kind::kNanBurst) % 64);
      const std::size_t end = std::min(start + len, data.size());
      for (std::size_t c = start; c < end; ++c)
        data[c] = std::numeric_limits<float>::quiet_NaN();
    }
  }
}

}  // namespace

DatasetBuilder::DatasetBuilder(const radar::ChirpConfig& chirp,
                               const radar::PipelineConfig& pipeline_config,
                               const HandSceneConfig& hand_config,
                               const LabelNoiseConfig& label_config)
    : chirp_([&] {
        // Reject malformed configs before any member construction: a
        // NaN bandwidth or an impossible frame period would otherwise
        // surface frames later as a mysteriously empty or poisoned cube.
        chirp.validate();
        pipeline_config.cube.validate();
        return chirp;
      }()),
      array_(chirp_),
      if_sim_(chirp_, array_),
      pipeline_(chirp_, array_, pipeline_config),
      hand_config_(hand_config),
      label_config_(label_config) {}

Recording DatasetBuilder::record(const ScenarioConfig& scenario) const {
  MMHAND_SPAN("sim/record");
  MMHAND_CHECK(scenario.duration_s > 0.0, "recording duration");
  MMHAND_CHECK(scenario.hand_distance_m > 0.05 &&
                   scenario.hand_distance_m < 1.2,
               "hand distance " << scenario.hand_distance_m);

  Rng rng(scenario.seed ^ (0x517cc1b727220a95ull +
                           static_cast<std::uint64_t>(scenario.user_id)));
  Rng script_rng = rng.fork();
  Rng clutter_rng = rng.fork();
  Rng scene_rng = rng.fork();
  Rng noise_rng = rng.fork();
  Rng label_rng = rng.fork();

  // Place the hand at the scenario's bearing and range.
  const double az =
      scenario.hand_azimuth_deg * std::numbers::pi / 180.0;
  hand::GestureScriptConfig script_config;
  script_config.base_wrist = Vec3{scenario.hand_distance_m * std::sin(az),
                                  scenario.hand_distance_m * std::cos(az),
                                  0.0};
  script_config.vocabulary = scenario.vocabulary;
  if (scenario.wrist_drift_m >= 0.0)
    script_config.wrist_drift_m = scenario.wrist_drift_m;
  if (scenario.orientation_wobble_rad >= 0.0)
    script_config.orientation_wobble_rad = scenario.orientation_wobble_rad;
  const hand::GestureScript script(script_config, std::move(script_rng),
                                   scenario.duration_s);

  const auto profile = hand::HandProfile::for_user(scenario.user_id);

  // Clutter persists across the recording; dynamic pieces advance by their
  // velocity each frame.
  radar::Scene clutter = build_clutter(scenario.clutter, clutter_rng);

  Recording rec;
  rec.user_id = scenario.user_id;
  const double dt = chirp_.frame_period_s;
  const int n_frames = static_cast<int>(scenario.duration_s / dt);
  rec.frames.reserve(static_cast<std::size_t>(n_frames));

  // Frames are generated in blocks: the rng-consuming stages (scene
  // synthesis, IF simulation, label jitter) stay strictly sequential so the
  // random streams are consumed in exactly the seed order, then the radar
  // cubes — a pure function of the IF frames — are processed with
  // `parallel_for`.  The block bounds peak IF-frame memory.
  constexpr int kFrameBlock = 8;
  std::vector<radar::IfFrame> if_frames;
  for (int f0 = 0; f0 < n_frames; f0 += kFrameBlock) {
    const int block = std::min(kFrameBlock, n_frames - f0);
    if_frames.clear();
    if_frames.reserve(static_cast<std::size_t>(block));
    const std::size_t rec_base = rec.frames.size();
    MMHAND_SPAN("sim/synthesize_if_block");
    for (int f = f0; f < f0 + block; ++f) {
      const double t = static_cast<double>(f) * dt;
      const auto pose = script.pose_at(t);
      const auto prev_pose = script.pose_at(std::max(0.0, t - dt));
      const auto joints = hand::forward_kinematics(profile, pose);
      const auto prev_joints = hand::forward_kinematics(profile, prev_pose);

      radar::Scene scene =
          build_hand_scene(joints, prev_joints, dt, hand_config_, scene_rng);
      apply_glove(scene, scenario.glove, scene_rng);
      apply_handheld_object(scene, joints, scenario.object, scene_rng);
      scene.insert(scene.end(), clutter.begin(), clutter.end());
      apply_obstacle(scene, scenario.obstacle, scene_rng);

      if_frames.push_back(if_sim_.simulate_frame(scene, 0.0, noise_rng));

      FrameRecord record;
      record.true_joints = joints;
      record.joints = apply_label_noise(joints, label_config_, label_rng);
      record.gesture = script.gesture_at(t);
      record.time_s = t;
      rec.frames.push_back(std::move(record));

      // Advance dynamic clutter to the next frame.
      for (auto& s : clutter) s.position += s.velocity * dt;
    }
    parallel_for(0, block, [&](std::int64_t i) {
      rec.frames[rec_base + static_cast<std::size_t>(i)].cube =
          pipeline_.process_frame(if_frames[static_cast<std::size_t>(i)]);
    });
  }
  if (fault::enabled()) inject_input_faults(rec);
  return rec;
}

}  // namespace mmhand::sim
