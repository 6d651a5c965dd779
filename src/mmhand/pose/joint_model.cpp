#include "mmhand/pose/joint_model.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "mmhand/common/realtime.hpp"

namespace mmhand::pose {

namespace {

constexpr std::uint32_t kModelMagic = 0x6d6d4831;  // "mmH1"

MmSpaceNetConfig resolve_spacenet(const PoseNetConfig& config) {
  MmSpaceNetConfig sn = config.spacenet;
  sn.input_channels = config.velocity_bins;
  return sn;
}

/// Per-thread staging for the cells of the median's histogram bin
/// (nth_element mutates its input).  Grown on demand (audited in
/// scripts/purity_allowlist.json); capacity is retained so steady-state
/// frame normalization never allocates.
float* cube_median_scratch(std::size_t floats) {
  thread_local std::vector<float> buf;
  if (buf.size() < floats) buf.resize(floats);
  return buf.data();
}

/// The cell's bits as an unsigned key in the float order: a
/// non-negative float sets the top bit, a negative one flips every bit
/// (so -0 sorts just below +0, which the float order treats as equal).
std::uint32_t order_key(float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  const std::uint32_t sign = static_cast<std::uint32_t>(
      static_cast<std::int32_t>(bits) >> 31);
  return bits ^ (sign | 0x80000000u);
}

/// Element n/2 of the cells in float order: exactly what nth_element
/// over all of them returns, at a fraction of the cost.  A histogram of
/// the keys' top 12 bits finds the bin that holds the element, and
/// nth_element runs only over that bin's cells.
float cube_median(const float* cells, std::size_t n) {
  constexpr int kShift = 20;  // 4,096 bins
  std::array<std::uint32_t, (1u << (32 - kShift))> hist{};
  for (std::size_t i = 0; i < n; ++i) ++hist[order_key(cells[i]) >> kShift];
  const std::size_t rank = n / 2;
  std::size_t below = 0;
  std::uint32_t bin = 0;
  while (below + hist[bin] <= rank) below += hist[bin++];
  // Branch-free compaction: every cell is written, and only the bin's
  // cells advance the cursor, so the buffer needs one slot of slack.
  // It is sized for every cell, not for this bin, so a frame whose
  // median bin is fuller than any before it (an all-zero or railed
  // frame) does not grow it in steady state.
  float* bucket = cube_median_scratch(n + 1);
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bucket[m] = cells[i];
    m += order_key(cells[i]) >> kShift == bin;
  }
  std::nth_element(bucket, bucket + (rank - below), bucket + m);
  return bucket[rank - below];
}

/// Noise-floor subtraction, the one body behind write_cube_frame and
/// normalize_cube_frame: most cube cells hold thermal-noise speckle
/// whose log-magnitude fluctuations would dominate the input energy; the
/// per-frame median estimates that floor robustly (the hand occupies
/// only a small fraction of cells), and clamping at zero leaves a
/// sparse, signal-only tensor for the network.  `dst` may be `src`.
void normalize_cells(const float* src, std::size_t n,
                     const PoseNetConfig& config, float* dst) {
  if (n == 0) return;
  const float floor = config.noise_floor_scale * cube_median(src, n);
  for (std::size_t i = 0; i < n; ++i) {
    const float v = std::max(0.0f, src[i] - floor);
    dst[i] = v * config.cube_scale + config.cube_offset;
  }
}

}  // namespace

void PoseNetConfig::validate() const {
  MMHAND_CHECK(segment_frames >= 1 && sequence_segments >= 1,
               "segment geometry");
  MMHAND_CHECK(velocity_bins >= 1 && range_bins >= 4 && angle_bins >= 4,
               "cube dims");
  // The stem halves the extents, then each residual block's hourglass
  // needs another factor of 4: inputs must divide by 8.
  MMHAND_CHECK(range_bins % (2 * MmSpaceNet::kSpatialReduction) == 0 &&
                   angle_bins % (2 * MmSpaceNet::kSpatialReduction) == 0,
               "cube extents must divide by "
                   << 2 * MmSpaceNet::kSpatialReduction);
  MMHAND_CHECK(feature_dim >= 8 && lstm_hidden >= 8, "head dims");
  // Normalization constants: NaN/Inf here silently poisons every input
  // tensor, so reject up front; the noise-floor scale must also be
  // non-negative (a negative scale adds noise back in).
  MMHAND_CHECK(std::isfinite(noise_floor_scale) && noise_floor_scale >= 0.0f,
               "noise_floor_scale " << noise_floor_scale);
  MMHAND_CHECK(std::isfinite(cube_scale) && std::isfinite(cube_offset),
               "cube normalization must be finite");
}

namespace {

std::unique_ptr<nn::Layer> make_temporal(const PoseNetConfig& config,
                                         Rng& rng) {
  switch (config.temporal) {
    case TemporalKind::kLstm:
      return std::make_unique<nn::Lstm>(config.feature_dim,
                                        config.lstm_hidden, rng);
    case TemporalKind::kGru:
      return std::make_unique<nn::Gru>(config.feature_dim,
                                       config.lstm_hidden, rng);
    case TemporalKind::kNone:
      return nullptr;
  }
  throw Error("unknown temporal kind");
}

}  // namespace

HandJointRegressor::HandJointRegressor(const PoseNetConfig& config, Rng& rng)
    : config_([&] {
        config.validate();
        return config;
      }()),
      spacenet_(resolve_spacenet(config_), rng),
      segment_fc_(
          config_.segment_frames * config_.spacenet.block2_channels *
              (config_.range_bins / MmSpaceNet::kSpatialReduction) *
              (config_.angle_bins / MmSpaceNet::kSpatialReduction),
          config_.feature_dim, rng),
      temporal_(make_temporal(config_, rng)),
      head_(config_.temporal == TemporalKind::kNone ? config_.feature_dim
                                                    : config_.lstm_hidden,
            63, rng),
      flat_features_(segment_fc_.in_features()) {}

MMHAND_REALTIME
nn::Tensor HandJointRegressor::forward(const nn::Tensor& x, bool training) {
  const int frames = config_.frames_per_sample();
  MMHAND_CHECK(x.rank() == 4 && x.dim(0) % frames == 0,
               "pose input shape mismatch");
  const int batch = x.dim(0) / frames;
  MMHAND_CHECK(!training || batch == 1,
               "pose training takes one sample, got " << batch);
  return forward_from_features(frame_features(x, training), batch, training);
}

MMHAND_REALTIME
nn::Tensor HandJointRegressor::frame_features(const nn::Tensor& frames,
                                              bool training) {
  MMHAND_CHECK(frames.rank() == 4 && frames.dim(1) == config_.velocity_bins &&
                   frames.dim(2) == config_.range_bins &&
                   frames.dim(3) == config_.angle_bins,
               "pose input shape mismatch");
  // Frames are independent through mmSpaceNet (per-frame attention
  // pooling, per-sample conv batch loop), so a frame's features are
  // bitwise the same whichever frames share its pass.
  return spacenet_.forward(frames, training);
}

MMHAND_REALTIME
nn::Tensor HandJointRegressor::forward_from_features(nn::Tensor features,
                                                     int batch,
                                                     bool training) {
  const int segments = config_.sequence_segments;
  MMHAND_CHECK(batch >= 1 && features.numel() ==
                                 static_cast<std::size_t>(batch) *
                                     static_cast<std::size_t>(segments) *
                                     static_cast<std::size_t>(flat_features_),
               "features do not hold " << batch << " samples");
  // Group frames into segments: [B*S, st * C2 * H' * W'].  The projection
  // and head treat rows independently.
  features.reshape({batch * segments, flat_features_});
  nn::Tensor seg = segment_fc_.forward(features, training);
  seg = segment_act_.forward(seg, training);
  // Temporal features over each sample's segment sequence (identity under
  // the no-temporal ablation): [B*S, feat] -> B sequences [B, S, feat] and
  // back.  One sample stays the [S, feat] sequence training's BPTT takes.
  if (temporal_) {
    seg.reshape(batch == 1 ? nn::Shape{segments, config_.feature_dim}
                           : nn::Shape{batch, segments, config_.feature_dim});
    seg = temporal_->forward(seg, training);
    seg.reshape({batch * segments, config_.lstm_hidden});
  }
  return head_.forward(seg, training);
}

MMHAND_REALTIME
nn::Tensor HandJointRegressor::forward_batch(const nn::Tensor& x,
                                             int batch) {
  MMHAND_CHECK(batch >= 1 && x.rank() >= 1 &&
                   x.dim(0) == batch * config_.frames_per_sample(),
               "forward_batch: input does not hold " << batch
                                                      << " samples");
  return forward(x, false);
}

void HandJointRegressor::backward(const nn::Tensor& grad) {
  MMHAND_CHECK(grad.rank() == 2 && grad.dim(0) == config_.sequence_segments &&
                   grad.dim(1) == 63,
               "pose grad shape");
  nn::Tensor g = head_.backward(grad);
  if (temporal_) g = temporal_->backward(g);
  g = segment_act_.backward(g);
  g = segment_fc_.backward(g);
  g.reshape({config_.frames_per_sample(), config_.spacenet.block2_channels,
             config_.range_bins / MmSpaceNet::kSpatialReduction,
             config_.angle_bins / MmSpaceNet::kSpatialReduction});
  (void)spacenet_.backward(g);
}

std::vector<nn::Parameter*> HandJointRegressor::parameters() {
  std::vector<nn::Parameter*> out = spacenet_.parameters();
  std::vector<nn::Layer*> layers{&segment_fc_, &head_};
  if (temporal_) layers.insert(layers.begin() + 1, temporal_.get());
  for (nn::Layer* l : layers) {
    const auto p = l->parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

void HandJointRegressor::set_output_bias(const nn::Tensor& mean63) {
  MMHAND_CHECK(mean63.numel() == 63, "output bias needs 63 values");
  head_.bias().value = mean63.reshaped({63});
}

void HandJointRegressor::save(const std::string& path) {
  BinaryWriter w(path);
  w.write_u32(kModelMagic);
  w.write_u32(1);  // version
  w.write_u32(static_cast<std::uint32_t>(config_.segment_frames));
  w.write_u32(static_cast<std::uint32_t>(config_.sequence_segments));
  w.write_u32(static_cast<std::uint32_t>(config_.velocity_bins));
  w.write_u32(static_cast<std::uint32_t>(config_.range_bins));
  w.write_u32(static_cast<std::uint32_t>(config_.angle_bins));
  w.write_u32(static_cast<std::uint32_t>(config_.temporal));
  nn::save_parameters(parameters(), w);
  w.close();
}

void HandJointRegressor::load(const std::string& path) {
  BinaryReader r(path);
  MMHAND_CHECK(r.read_u32() == kModelMagic, "not an mmHand model: " << path);
  MMHAND_CHECK(r.read_u32() == 1, "unsupported model version in " << path);
  MMHAND_CHECK(r.read_u32() == static_cast<std::uint32_t>(
                                   config_.segment_frames) &&
                   r.read_u32() == static_cast<std::uint32_t>(
                                       config_.sequence_segments) &&
                   r.read_u32() == static_cast<std::uint32_t>(
                                       config_.velocity_bins) &&
                   r.read_u32() == static_cast<std::uint32_t>(
                                       config_.range_bins) &&
                   r.read_u32() == static_cast<std::uint32_t>(
                                       config_.angle_bins) &&
                   r.read_u32() == static_cast<std::uint32_t>(
                                       config_.temporal),
               "checkpoint geometry differs from model config");
  nn::load_parameters(parameters(), r);
}

void check_cube_dims(const radar::RadarCube& cube,
                     const PoseNetConfig& config) {
  MMHAND_CHECK(cube.velocity_bins() == config.velocity_bins &&
                   cube.range_bins() == config.range_bins &&
                   cube.angle_bins() == config.angle_bins,
               "cube dims " << cube.velocity_bins() << "x"
                            << cube.range_bins() << "x" << cube.angle_bins()
                            << " do not match the network config");
}

MMHAND_REALTIME
void write_cube_frame(const radar::RadarCube& cube,
                      const PoseNetConfig& config, float* dst) {
  check_cube_dims(cube, config);
  normalize_cells(cube.data().data(), cube.data().size(), config, dst);
}

MMHAND_REALTIME
void normalize_cube_frame(const PoseNetConfig& config, float* frame) {
  normalize_cells(frame,
                  static_cast<std::size_t>(config.velocity_bins) *
                      static_cast<std::size_t>(config.range_bins) *
                      static_cast<std::size_t>(config.angle_bins),
                  config, frame);
}

}  // namespace mmhand::pose
