#pragma once

// The full 3-D hand joint regression network (§IV, Fig. 5): mmSpaceNet
// spatial features per frame, a per-segment feature projection, an LSTM
// over the segment sequence, and a fully-connected head that regresses the
// 21 joints' 3-D positions per segment.

#include <memory>
#include <string>

#include "mmhand/nn/gru.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/pose/mmspacenet.hpp"
#include "mmhand/radar/radar_cube.hpp"

namespace mmhand::pose {

/// Temporal feature extractor choice.  The paper uses an LSTM (§IV-A);
/// the alternatives exist for the temporal-model ablation.
enum class TemporalKind { kLstm, kGru, kNone };

struct PoseNetConfig {
  int segment_frames = 2;     ///< st: consecutive frames per segment
  int sequence_segments = 4;  ///< S: segments per LSTM sequence
  int velocity_bins = 16;     ///< V of the radar cube
  int range_bins = 24;        ///< D of the radar cube
  int angle_bins = 24;        ///< A of the radar cube (azimuth + elevation)
  int feature_dim = 160;      ///< per-segment feature vector
  int lstm_hidden = 96;
  TemporalKind temporal = TemporalKind::kLstm;
  MmSpaceNetConfig spacenet;
  /// Input normalization applied to the log1p cube values: a per-frame
  /// median noise floor (scaled by noise_floor_scale) is subtracted and
  /// clamped at zero, then affine-mapped by scale/offset.
  float noise_floor_scale = 1.3f;
  float cube_scale = 0.4f;
  float cube_offset = -0.5f;

  int frames_per_sample() const {
    return segment_frames * sequence_segments;
  }
  void validate() const;
};

class HandJointRegressor {
 public:
  HandJointRegressor(const PoseNetConfig& config, Rng& rng);

  /// x: [B*S*st, V, D, A] normalized cube frames, sample b owning frame
  /// rows [b*S*st, (b+1)*S*st).  Returns [B*S, 63]: 21 joints x (x, y, z)
  /// meters per segment.  The batch comes from x's shape; each sample's
  /// rows are bitwise identical to a forward over that sample alone (the
  /// serving layer's drained-parity guarantee).  training takes B = 1.
  nn::Tensor forward(const nn::Tensor& x, bool training);

  /// The two halves of forward(): forward(x, t) is
  /// forward_from_features(frame_features(x, t), B, t).
  ///
  /// frame_features: mmSpaceNet over any number N of independent
  /// [N, V, D, A] frames -> [N, C2, D/4, A/4].  Each frame's rows are
  /// bitwise the same whatever other frames share the pass, so a server
  /// can compute them one frame at a time as frames arrive.
  nn::Tensor frame_features(const nn::Tensor& frames, bool training = false);

  /// The rest of the network over `batch` samples' stacked frame
  /// features (frame_features rows, sample-major): segment projection,
  /// temporal layer, head.  Returns [B*S, 63].
  nn::Tensor forward_from_features(nn::Tensor features, int batch,
                                   bool training = false);

  /// Floats of one frame's features (C2 * D/4 * A/4).
  int frame_feature_numel() const {
    return flat_features_ / config_.segment_frames;
  }

  /// Inference over `batch` stacked samples: forward(x, false) after
  /// checking that x holds exactly `batch` of them.
  nn::Tensor forward_batch(const nn::Tensor& x, int batch);

  /// grad: [S, 63].  Accumulates parameter gradients.
  void backward(const nn::Tensor& grad);

  std::vector<nn::Parameter*> parameters();

  const PoseNetConfig& config() const { return config_; }

  /// Initializes the head bias so the network starts predicting `mean`
  /// (the training labels' mean), which centers the regression problem.
  void set_output_bias(const nn::Tensor& mean63);

  void save(const std::string& path);
  void load(const std::string& path);

 private:
  PoseNetConfig config_;
  MmSpaceNet spacenet_;
  nn::Linear segment_fc_;
  nn::ReLU segment_act_;
  std::unique_ptr<nn::Layer> temporal_;  ///< LSTM / GRU / null (ablation)
  nn::Linear head_;
  int flat_features_ = 0;
};

/// Throws mmhand::Error unless the cube's dims are the config's.
void check_cube_dims(const radar::RadarCube& cube,
                     const PoseNetConfig& config);

/// Converts a radar cube into a normalized [V, D, A] tensor slice laid out
/// for the network (the frame dimension is stacked by the sample builder).
void write_cube_frame(const radar::RadarCube& cube,
                      const PoseNetConfig& config, float* dst);

/// write_cube_frame's normalization, in place: `frame` holds one
/// frame's raw [V, D, A] cube cells at the config's dims and ends with
/// the same bits write_cube_frame would write for that cube.
void normalize_cube_frame(const PoseNetConfig& config, float* frame);

}  // namespace mmhand::pose
