// Quickstart: the whole mmHand pipeline in one file.
//
//   1. simulate a mmWave capture of a gesturing hand (the IWR1443 stand-in)
//   2. pre-process IF signals into Radar Cubes (§III)
//   3. train the joint-regression network on a small recording (§IV)
//   4. predict 3-D skeletons on held-out frames and print the error
//
// Uses a deliberately small configuration so it finishes in about a
// minute on a laptop CPU.  See occlusion_demo.cpp for a trained model
// behind obstacles and mesh_export.cpp for MANO-style meshes.

#include <cstdio>

#include "mmhand/eval/experiment.hpp"
#include "mmhand/eval/metrics.hpp"

using namespace mmhand;

int main() {
  std::printf("mmHand quickstart\n=================\n\n");

  // A small protocol: 4 simulated users, 2 folds, tiny network.
  eval::ProtocolConfig config = eval::ProtocolConfig::fast();
  config.train_duration_s = 6.0;
  config.train.epochs = 6;

  std::printf("simulating radar captures and training (%d users, %d-fold "
              "CV)...\n\n",
              config.num_users, config.folds);
  eval::Experiment experiment(config);
  experiment.prepare("mmhand_cache/quickstart");

  // Evaluate each held-out user, exactly like §VI-B.
  eval::EvalAccumulator all;
  for (int user = 0; user < config.num_users; ++user) {
    const auto acc = experiment.evaluate_user(user);
    std::printf("user %d: MPJPE %6.1f mm   3D-PCK@40mm %5.1f %%\n", user + 1,
                acc.mpjpe_mm(), acc.pck(40.0));
    all.merge(acc);
  }
  std::printf("\noverall: MPJPE %.1f mm, 3D-PCK@40mm %.1f %%, AUC(0-60mm) "
              "%.3f\n",
              all.mpjpe_mm(), all.pck(40.0), all.auc(60.0, 61));

  // Show one predicted skeleton against its ground truth.
  auto& model = experiment.model_for_user(0);
  const auto recording =
      experiment.record_test(experiment.default_scenario(0));
  const auto predictions = pose::predict_recording(model, recording);
  if (!predictions.empty()) {
    const auto& p = predictions.front();
    std::printf("\npredicted skeleton at frame %d (x, y, z in meters):\n",
                p.frame_index);
    for (int j = 0; j < hand::kNumJoints; ++j)
      std::printf("  %-11s pred (%6.3f, %6.3f, %6.3f)   truth (%6.3f, "
                  "%6.3f, %6.3f)\n",
                  std::string(hand::joint_name(j)).c_str(),
                  p.joints[static_cast<std::size_t>(j)].x,
                  p.joints[static_cast<std::size_t>(j)].y,
                  p.joints[static_cast<std::size_t>(j)].z,
                  p.oracle[static_cast<std::size_t>(j)].x,
                  p.oracle[static_cast<std::size_t>(j)].y,
                  p.oracle[static_cast<std::size_t>(j)].z);
  }
  std::printf("\ndone. models cached under mmhand_cache/quickstart.\n");
  return 0;
}
