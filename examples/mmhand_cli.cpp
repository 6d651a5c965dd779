// mmhand_cli — a small command-line front end to the library, the entry
// point a downstream user scripts against.
//
//   mmhand_cli simulate [--user N] [--distance M] [--seconds S] [--obj DIR]
//       simulate a capture and print per-frame cube stats
//   mmhand_cli train [--fast] [--cache DIR]
//       train (or load) the cross-validation fold models
//   mmhand_cli eval [--fast] [--cache DIR] [--user N] [--glove silk|cotton]
//                   [--obstacle paper|cloth|board] [--distance M]
//       evaluate a scenario with the held-out fold model
//   mmhand_cli mesh --gesture NAME [--out FILE]
//       reconstruct a MANO mesh for a named gesture and write an OBJ
//   mmhand_cli predict [--fast] [--cache DIR] [--user N] [--seconds S]
//                      [--stride N] [--repeat R]
//       run recording-level inference in a loop — the driver the CI
//       telemetry job points MMHAND_TELEMETRY / MMHAND_FLIGHT at

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "mmhand/eval/model_cache.hpp"
#include "mmhand/mesh/obj_export.hpp"
#include "mmhand/pose/inference.hpp"

using namespace mmhand;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;

  bool flag(const std::string& name) const {
    return options.count(name) > 0;
  }
  std::string get(const std::string& name, const std::string& fallback)
      const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  double get_double(const std::string& name, double fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : std::stod(it->second);
  }
  int get_int(const std::string& name, int fallback) const {
    auto it = options.find(name);
    return it == options.end() ? fallback : std::stoi(it->second);
  }
};

Args parse(int argc, char** argv) {
  Args args;
  if (argc >= 2) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) continue;
    key = key.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options.insert_or_assign(key, std::string(argv[++i]));
    } else {
      args.options.insert_or_assign(key, std::string("1"));
    }
  }
  return args;
}

eval::ProtocolConfig protocol_for(const Args& args) {
  return args.flag("fast") ? eval::ProtocolConfig::fast()
                           : eval::ProtocolConfig::standard();
}

int cmd_simulate(const Args& args) {
  auto cfg = eval::ProtocolConfig::standard();
  sim::DatasetBuilder builder(cfg.chirp, cfg.pipeline);
  sim::ScenarioConfig scenario;
  scenario.user_id = args.get_int("user", 0);
  scenario.hand_distance_m = args.get_double("distance", 0.30);
  scenario.duration_s = args.get_double("seconds", 1.0);
  const auto recording = builder.record(scenario);

  std::printf("%-7s %-10s %s\n", "frame", "cube max", "gesture");
  for (std::size_t f = 0; f < recording.frames.size(); f += 5) {
    const auto& frame = recording.frames[f];
    std::printf("%-7zu %-10.2f %s\n", f, frame.cube.max_value(),
                std::string(hand::gesture_name(frame.gesture)).c_str());
  }
  std::printf("simulated %zu frames (user %d, %.0f cm)\n",
              recording.frames.size(), scenario.user_id,
              100.0 * scenario.hand_distance_m);
  return 0;
}

int cmd_train(const Args& args) {
  eval::Experiment experiment(protocol_for(args));
  experiment.prepare(args.get("cache", eval::cache_directory()));
  std::printf("fold models ready.\n");
  return 0;
}

int cmd_eval(const Args& args) {
  eval::Experiment experiment(protocol_for(args));
  experiment.prepare(args.get("cache", eval::cache_directory()));

  sim::ScenarioConfig scenario =
      experiment.default_scenario(args.get_int("user", 0));
  scenario.hand_distance_m =
      args.get_double("distance", scenario.hand_distance_m);
  const std::string glove = args.get("glove", "");
  if (glove == "silk") scenario.glove = sim::GloveType::kSilk;
  if (glove == "cotton") scenario.glove = sim::GloveType::kCotton;
  const std::string obstacle = args.get("obstacle", "");
  if (obstacle == "paper") scenario.obstacle = sim::Obstacle::kPaper;
  if (obstacle == "cloth") scenario.obstacle = sim::Obstacle::kCloth;
  if (obstacle == "board") scenario.obstacle = sim::Obstacle::kBoard;

  const auto acc = experiment.evaluate_scenario(scenario);
  std::printf("user %d  distance %.0f cm  glove %s  obstacle %s\n",
              scenario.user_id, 100.0 * scenario.hand_distance_m,
              glove.empty() ? "none" : glove.c_str(),
              obstacle.empty() ? "none" : obstacle.c_str());
  std::printf("MPJPE      %6.1f mm (palm %.1f / fingers %.1f)\n",
              acc.mpjpe_mm(), acc.mpjpe_mm(eval::JointSubset::kPalm),
              acc.mpjpe_mm(eval::JointSubset::kFingers));
  std::printf("3D-PCK@40  %6.1f %%\n", acc.pck(40.0));
  std::printf("AUC(0-60)  %6.3f\n", acc.auc(60.0, 61));
  return 0;
}

int cmd_predict(const Args& args) {
  eval::Experiment experiment(protocol_for(args));
  experiment.prepare(args.get("cache", eval::cache_directory()));

  sim::ScenarioConfig scenario =
      experiment.default_scenario(args.get_int("user", 0));
  scenario.duration_s = args.get_double("seconds", scenario.duration_s);
  const auto recording = experiment.record_test(scenario);
  auto& model = experiment.model_for_user(scenario.user_id);

  const int stride = args.get_int("stride", 1);
  const int repeat = args.get_int("repeat", 1);
  std::size_t segments = 0;
  for (int r = 0; r < repeat; ++r) {
    const auto predictions =
        pose::predict_recording(model, recording, stride);
    segments += predictions.size();
  }
  std::printf("predicted %zu segments over %d pass%s (%zu frames, "
              "user %d)\n",
              segments, repeat, repeat == 1 ? "" : "es",
              recording.frames.size(), scenario.user_id);
  return 0;
}

int cmd_mesh(const Args& args) {
  const std::string name = args.get("gesture", "open_palm");
  hand::Gesture gesture = hand::Gesture::kOpenPalm;
  bool found = false;
  for (hand::Gesture g : hand::all_gestures())
    if (hand::gesture_name(g) == name) {
      gesture = g;
      found = true;
    }
  if (!found) {
    std::fprintf(stderr, "unknown gesture '%s'; options:", name.c_str());
    for (hand::Gesture g : hand::all_gestures())
      std::fprintf(stderr, " %s", std::string(hand::gesture_name(g)).c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  auto reconstructor = eval::prepared_mesh_reconstructor();
  hand::HandPose pose;
  pose.fingers = hand::gesture_articulation(gesture);
  pose.orientation = Quaternion{0.0, 0.0, 0.7071067811865476,
                                0.7071067811865476};
  pose.wrist_position = Vec3{0.0, 0.30, 0.0};
  const auto joints = hand::forward_kinematics(
      hand::HandProfile::reference(), pose);
  const auto result = reconstructor->reconstruct(joints);
  const std::string out = args.get("out", name + ".obj");
  mesh::write_obj(out, result.mesh);
  std::printf("wrote %s (%zu vertices, %zu faces)\n", out.c_str(),
              result.mesh.vertices.size(), result.mesh.faces.size());
  return 0;
}

void usage() {
  std::printf(
      "mmhand_cli <command> [options]\n"
      "  simulate [--user N] [--distance M] [--seconds S]\n"
      "  train    [--fast] [--cache DIR]\n"
      "  eval     [--fast] [--cache DIR] [--user N] [--distance M]\n"
      "           [--glove silk|cotton] [--obstacle paper|cloth|board]\n"
      "  mesh     --gesture NAME [--out FILE]\n"
      "  predict  [--fast] [--cache DIR] [--user N] [--seconds S]\n"
      "           [--stride N] [--repeat R]\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    if (args.command == "simulate") return cmd_simulate(args);
    if (args.command == "train") return cmd_train(args);
    if (args.command == "eval") return cmd_eval(args);
    if (args.command == "mesh") return cmd_mesh(args);
    if (args.command == "predict") return cmd_predict(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  usage();
  return args.command.empty() ? 0 : 1;
}
