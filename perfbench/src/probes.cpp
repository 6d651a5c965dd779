// Traced-run probes: trace reading (per-batch spans), NN op replay and
// the thread-scaling probe.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "harness.hpp"
#include "mmhand/common/parallel.hpp"
#include "mmhand/nn/activations.hpp"
#include "mmhand/nn/attention.hpp"
#include "mmhand/nn/conv2d.hpp"
#include "mmhand/nn/linear.hpp"
#include "mmhand/nn/lstm.hpp"
#include "mmhand/pose/mmspacenet.hpp"

namespace perfbench {

using namespace mmhand;

// ---------------------------------------------------------------- trace

namespace {

struct TraceSpan {
  int kind = 0;  ///< index into kSpanNames
  unsigned tid = 0;
  double ts_us = 0.0, dur_us = 0.0;
};

constexpr const char* kSpanNames[] = {
    "perfbench/clock_sync", "serve/forward_batch", "pose/spacenet_forward",
    "nn/lstm_forward", "serve/mesh"};
constexpr int kSync = 0, kBatch = 1, kSpacenet = 2, kLstm = 3, kMesh = 4;

/// Number after `"key": ` in a Chrome-trace event line, or NaN.
double field(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  if (at == std::string::npos) return std::nan("");
  return std::strtod(line.c_str() + at + std::strlen(key), nullptr);
}

}  // namespace

std::vector<BatchSpans> read_batches(const std::string& path,
                                     std::int64_t sync_steady_ns) {
  std::ifstream file(path);
  MMHAND_CHECK(file.good(), "cannot read trace " << path);
  // obs::write_trace emits one complete ("X") event per line.
  std::vector<TraceSpan> spans;
  std::string line;
  while (std::getline(file, line)) {
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    for (int k = 0; k < static_cast<int>(std::size(kSpanNames)); ++k) {
      const std::string needle =
          std::string("\"name\": \"") + kSpanNames[k] + "\"";
      if (line.find(needle) == std::string::npos) continue;
      spans.push_back({k, static_cast<unsigned>(field(line, "\"tid\": ")),
                       field(line, "\"ts\": "), field(line, "\"dur\": ")});
      break;
    }
  }
  const auto sync = std::find_if(spans.begin(), spans.end(), [](auto& s) {
    return s.kind == kSync;
  });
  MMHAND_CHECK(sync != spans.end(), "trace has no clock sync span");
  // Trace time is microseconds on the observability clock; the sync span
  // pins it to steady_clock.
  const double offset_ns =
      static_cast<double>(sync_steady_ns) - sync->ts_us * 1e3;
  const auto to_steady = [&](double us) {
    return static_cast<std::int64_t>(us * 1e3 + offset_ns);
  };

  std::vector<TraceSpan> batch_spans;
  for (const TraceSpan& s : spans)
    if (s.kind == kBatch) batch_spans.push_back(s);
  std::sort(batch_spans.begin(), batch_spans.end(),
            [](auto& a, auto& b) { return a.ts_us < b.ts_us; });
  std::vector<BatchSpans> out(batch_spans.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].start_ns = to_steady(batch_spans[i].ts_us);
    out[i].end_ns =
        to_steady(batch_spans[i].ts_us + batch_spans[i].dur_us);
  }
  // Nested spans: attach each to the batch span that encloses it on the
  // same thread.
  for (const TraceSpan& s : spans) {
    if (s.kind == kSync || s.kind == kBatch) continue;
    auto it = std::upper_bound(
        batch_spans.begin(), batch_spans.end(), s.ts_us,
        [](double t, const TraceSpan& b) { return t < b.ts_us; });
    if (it == batch_spans.begin()) continue;
    --it;
    if (it->tid != s.tid || s.ts_us + s.dur_us > it->ts_us + it->dur_us + 1.0)
      continue;
    BatchSpans& b = out[static_cast<std::size_t>(it - batch_spans.begin())];
    (s.kind == kSpacenet ? b.spacenet_us
                         : s.kind == kLstm ? b.lstm_us : b.mesh_us) +=
        s.dur_us;
  }
  return out;
}

// --------------------------------------------------------------- replay

namespace {

/// One mmSpaceNet residual block rebuilt from public layers.  Members are
/// declared, and so constructed, in pose::ResidualAttentionBlock's order,
/// so a shared Rng stream gives them the model's weights.
struct Block {
  Block(int in, int out, Rng& rng)
      : skip(in, out, 1, 1, 0, rng),
        down1(in, out, 3, 2, 1, rng),
        down2(out, out, 3, 2, 1, rng),
        up1(out, out, 4, 2, 1, rng),
        up2(out, out, 4, 2, 1, rng),
        frame_att(rng),
        channel_att(out, rng),
        spatial_att(rng, 5) {}

  nn::Conv2d skip, down1, down2;
  nn::ConvTranspose2d up1, up2;
  nn::FrameChannelAttention frame_att;
  nn::ChannelAttention channel_att;
  nn::SpatialAttention spatial_att;
  nn::ReLU relu;
};

/// HandJointRegressor's forward, op by op, in construction order.
struct ReplayNet {
  ReplayNet(const pose::PoseNetConfig& net, Rng& rng)
      : stem(net.velocity_bins, net.spacenet.stem_channels, 3, 2, 1, rng),
        block1(net.spacenet.stem_channels, net.spacenet.block1_channels, rng),
        block2(net.spacenet.block1_channels, net.spacenet.block2_channels,
               rng),
        reduce(net.spacenet.block2_channels, net.spacenet.block2_channels, 3,
               2, 1, rng),
        segment_fc(net.segment_frames * net.spacenet.block2_channels *
                       (net.range_bins / pose::MmSpaceNet::kSpatialReduction) *
                       (net.angle_bins / pose::MmSpaceNet::kSpatialReduction),
                   net.feature_dim, rng),
        lstm(net.feature_dim, net.lstm_hidden, rng),
        head(net.lstm_hidden, 63, rng),
        segments(net.sequence_segments) {}

  nn::Conv2d stem;
  Block block1, block2;
  nn::Conv2d reduce;
  nn::Linear segment_fc;
  nn::Lstm lstm;
  nn::Linear head;
  nn::ReLU relu;
  int segments;
};

enum Op { kConv, kConvT, kAttention, kLinear, kLstmOp, kReluAdd, kNumOps };

class OpTimer {
 public:
  explicit OpTimer(double* acc) : acc_(acc) {}
  Tensor operator()(Op op, auto&& fn) {
    const std::int64_t t0 = now_ns();
    Tensor out = fn();
    acc_[op] += static_cast<double>(now_ns() - t0) / 1e6;
    return out;
  }

 private:
  double* acc_;
};

Tensor run_block(Block& b, const Tensor& x, OpTimer& t) {
  const Tensor skip = t(kConv, [&] { return b.skip.forward(x, false); });
  Tensor h = t(kConv, [&] { return b.down1.forward(x, false); });
  h = t(kReluAdd, [&] { return b.relu.forward(h, false); });
  h = t(kConv, [&] { return b.down2.forward(h, false); });
  h = t(kReluAdd, [&] { return b.relu.forward(h, false); });
  h = t(kConvT, [&] { return b.up1.forward(h, false); });
  h = t(kReluAdd, [&] { return b.relu.forward(h, false); });
  h = t(kConvT, [&] { return b.up2.forward(h, false); });
  h = t(kReluAdd, [&] {
    h.add_(skip);
    return std::move(h);
  });
  h = t(kAttention, [&] { return b.frame_att.forward(h, false); });
  h = t(kAttention, [&] { return b.channel_att.forward(h, false); });
  h = t(kAttention, [&] { return b.spatial_att.forward(h, false); });
  return t(kReluAdd, [&] { return b.relu.forward(h, false); });
}

Tensor run_net(ReplayNet& n, const Tensor& x, OpTimer& t) {
  Tensor h = t(kConv, [&] { return n.stem.forward(x, false); });
  h = t(kReluAdd, [&] { return n.relu.forward(h, false); });
  h = run_block(n.block1, h, t);
  h = run_block(n.block2, h, t);
  h = t(kConv, [&] { return n.reduce.forward(h, false); });
  h = t(kReluAdd, [&] { return n.relu.forward(h, false); });
  const Tensor grouped = h.reshaped(
      {n.segments, static_cast<int>(h.numel()) / n.segments});
  h = t(kLinear, [&] { return n.segment_fc.forward(grouped, false); });
  h = t(kReluAdd, [&] { return n.relu.forward(h, false); });
  h = t(kLstmOp, [&] { return n.lstm.forward(h, false); });
  return t(kLinear, [&] { return n.head.forward(h, false); });
}

}  // namespace

ReplayResult replay_ops(const Workload& w, const Inputs& in) {
  const pose::PoseNetConfig& net = w.protocol.posenet;
  MMHAND_CHECK(net.temporal == pose::TemporalKind::kLstm &&
                   net.spacenet.attention.frame &&
                   net.spacenet.attention.channel &&
                   net.spacenet.attention.spatial,
               "op replay covers the LSTM network with all attention on");
  Rng rng(kModelSeed);
  ReplayNet replay(net, rng);

  // Real normalized windows: ConvTranspose2d skips zero inputs, so the
  // cost depends on the data.
  std::vector<std::pair<const Tensor*, const Tensor*>> windows;
  for (const SessionInputs& si : in.sessions)
    for (std::size_t k = 0; k < si.windows.size(); ++k)
      windows.emplace_back(&si.windows[k], &si.ref_pose[k]);

  ReplayResult r;
  r.matches_model = true;
  std::vector<std::vector<double>> per_window(kNumOps);
  const std::int64_t budget_end = now_ns() + 600 * 1000000ll;
  for (std::size_t i = 0;
       i < windows.size() || (now_ns() < budget_end && i < 4 * windows.size());
       ++i) {
    const auto& [x, ref] = windows[i % windows.size()];
    double acc[kNumOps] = {};
    OpTimer timer(acc);
    const Tensor out = run_net(replay, *x, timer);
    r.matches_model = r.matches_model && same_pose(out, *ref);
    for (int op = 0; op < kNumOps; ++op)
      per_window[static_cast<std::size_t>(op)].push_back(acc[op]);
  }
  const auto med = [&](Op op) {
    return percentile(per_window[static_cast<std::size_t>(op)], 50.0);
  };
  r.conv2d_ms = med(kConv);
  r.conv_transpose2d_ms = med(kConvT);
  r.attention_ms = med(kAttention);
  r.linear_ms = med(kLinear);
  r.lstm_ms = med(kLstmOp);
  r.relu_add_ms = med(kReluAdd);
  return r;
}

// -------------------------------------------------------------- scaling

ScalingResult thread_scaling(Reference& ref, const Inputs& in) {
  const auto& frames = in.sessions.front().frames;
  const Tensor& window = in.sessions.front().windows.front();
  radar::RadarCube cube;

  const auto time_radar = [&] {
    std::vector<double> us;
    for (int rep = 0; rep < 4; ++rep)
      for (const radar::IfFrame& f : frames) {
        const std::int64_t t0 = now_ns();
        ref.pipeline.process_frame_into(f, &cube);
        us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      }
    return percentile(us, 50.0);
  };
  const auto time_pose = [&] {
    std::vector<double> ms;
    const std::int64_t budget_end = now_ns() + 300 * 1000000ll;
    while (ms.size() < 5 || (now_ns() < budget_end && ms.size() < 60)) {
      const std::int64_t t0 = now_ns();
      (void)ref.model.forward_batch(window, 1);
      ms.push_back(static_cast<double>(now_ns() - t0) / 1e6);
    }
    return percentile(ms, 50.0);
  };

  ScalingResult r;
  r.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  set_num_threads(1);
  r.radar_us_1t = time_radar();
  r.pose_ms_1t = time_pose();
  set_num_threads(r.nproc);
  r.radar_us_nt = time_radar();
  r.pose_ms_nt = time_pose();
  return r;
}

}  // namespace perfbench
