#include "mmhand/nn/attention.hpp"

#include <algorithm>

#include "mmhand/nn/activations.hpp"

namespace mmhand::nn {

FrameChannelAttention::FrameChannelAttention(Rng& rng, int hidden)
    : fc1_(1, hidden, rng), fc2_(hidden, 1, rng) {}

std::vector<Parameter*> FrameChannelAttention::parameters() {
  auto p = fc1_.parameters();
  const auto p2 = fc2_.parameters();
  p.insert(p.end(), p2.begin(), p2.end());
  return p;
}

Tensor FrameChannelAttention::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4, "FrameChannelAttention expects [st, C, H, W]");
  const int st = x.dim(0);
  const std::size_t frame_elems = x.numel() / static_cast<std::size_t>(st);

  // Per-frame descriptor: TGAP + TGMP over (C, H, W).  The argmax
  // positions only feed the backward pass, so inference skips the
  // index buffer (keeps the forward allocation-free under pooling).
  Tensor desc({st, 1});
  std::vector<std::size_t> max_idx(
      training ? static_cast<std::size_t>(st) : 0);
  for (int i = 0; i < st; ++i) {
    const float* xi = x.data() + static_cast<std::size_t>(i) * frame_elems;
    float sum = 0.0f, best = xi[0];
    std::size_t best_idx = 0;
    for (std::size_t e = 0; e < frame_elems; ++e) {
      sum += xi[e];
      if (xi[e] > best) {
        best = xi[e];
        best_idx = e;
      }
    }
    desc.at(i, 0) = sum / static_cast<float>(frame_elems) + best;
    if (training) max_idx[static_cast<std::size_t>(i)] = best_idx;
  }

  Tensor hidden = fc1_.forward(desc, training);
  Tensor mask = Tensor::zeros(hidden.shape());
  for (std::size_t e = 0; e < hidden.numel(); ++e) {
    if (hidden[e] > 0.0f)
      mask[e] = 1.0f;
    else
      hidden[e] = 0.0f;
  }
  Tensor logits = fc2_.forward(hidden, training);

  Tensor a({st});
  for (int i = 0; i < st; ++i) a.at(i) = sigmoid_value(logits.at(i, 0));

  Tensor y = x;
  for (int i = 0; i < st; ++i) {
    float* yi = y.data() + static_cast<std::size_t>(i) * frame_elems;
    const float ai = a.at(i);
    for (std::size_t e = 0; e < frame_elems; ++e) yi[e] *= ai;
  }

  if (training) {
    cached_input_ = x;
    relu_mask_ = std::move(mask);
    weights_ = std::move(a);
    max_index_ = std::move(max_idx);
  } else {
    weights_ = std::move(a);
  }
  return y;
}

Tensor FrameChannelAttention::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(),
               "FrameChannelAttention backward before forward");
  const Tensor& x = cached_input_;
  MMHAND_CHECK(grad_out.same_shape(x), "FrameChannelAttention grad shape");
  const int st = x.dim(0);
  const std::size_t frame_elems = x.numel() / static_cast<std::size_t>(st);

  // Direct path: dX = a_i * g;  gate path: da_i = sum(g . x).
  Tensor grad_in = grad_out;
  Tensor dlogits({st, 1});
  for (int i = 0; i < st; ++i) {
    const float* g = grad_out.data() + static_cast<std::size_t>(i) * frame_elems;
    const float* xi = x.data() + static_cast<std::size_t>(i) * frame_elems;
    float* d = grad_in.data() + static_cast<std::size_t>(i) * frame_elems;
    const float ai = weights_.at(i);
    float da = 0.0f;
    for (std::size_t e = 0; e < frame_elems; ++e) {
      da += g[e] * xi[e];
      d[e] = g[e] * ai;
    }
    dlogits.at(i, 0) = da * ai * (1.0f - ai);
  }

  Tensor dhidden = fc2_.backward(dlogits);
  for (std::size_t e = 0; e < dhidden.numel(); ++e)
    dhidden[e] *= relu_mask_[e];
  Tensor ddesc = fc1_.backward(dhidden);

  // Descriptor path: mean spreads 1/M, max hits the argmax element.
  for (int i = 0; i < st; ++i) {
    const float ds = ddesc.at(i, 0);
    float* d = grad_in.data() + static_cast<std::size_t>(i) * frame_elems;
    const float per_elem = ds / static_cast<float>(frame_elems);
    for (std::size_t e = 0; e < frame_elems; ++e) d[e] += per_elem;
    d[max_index_[static_cast<std::size_t>(i)]] += ds;
  }
  return grad_in;
}

ChannelAttention::ChannelAttention(int channels, Rng& rng)
    : channels_(channels), fc_(2 * channels, channels, rng) {
  MMHAND_CHECK(channels >= 1, "ChannelAttention channels");
}

Tensor ChannelAttention::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4 && x.dim(1) == channels_,
               "ChannelAttention expects [N, " << channels_ << ", H, W]");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = static_cast<std::size_t>(h) * w;

  Tensor desc({n, 2 * channels_});
  std::vector<std::size_t> max_idx(
      training ? static_cast<std::size_t>(n) * channels_ : 0);
  for (int s = 0; s < n; ++s)
    for (int c = 0; c < channels_; ++c) {
      const float* xc = x.data() +
                        (static_cast<std::size_t>(s) * channels_ + c) * hw;
      float sum = 0.0f, best = xc[0];
      std::size_t best_idx = 0;
      for (std::size_t e = 0; e < hw; ++e) {
        sum += xc[e];
        if (xc[e] > best) {
          best = xc[e];
          best_idx = e;
        }
      }
      desc.at(s, c) = sum / static_cast<float>(hw);
      desc.at(s, channels_ + c) = best;
      if (training)
        max_idx[static_cast<std::size_t>(s) * channels_ + c] = best_idx;
    }

  Tensor logits = fc_.forward(desc, training);
  Tensor b({n, channels_});
  for (std::size_t e = 0; e < b.numel(); ++e)
    b[e] = sigmoid_value(logits[e]);

  Tensor y = x;
  for (int s = 0; s < n; ++s)
    for (int c = 0; c < channels_; ++c) {
      float* yc = y.data() +
                  (static_cast<std::size_t>(s) * channels_ + c) * hw;
      const float bc = b.at(s, c);
      for (std::size_t e = 0; e < hw; ++e) yc[e] *= bc;
    }

  if (training) {
    cached_input_ = x;
    weights_ = std::move(b);
    max_index_ = std::move(max_idx);
  }
  return y;
}

Tensor ChannelAttention::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(),
               "ChannelAttention backward before forward");
  const Tensor& x = cached_input_;
  MMHAND_CHECK(grad_out.same_shape(x), "ChannelAttention grad shape");
  const int n = x.dim(0), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = static_cast<std::size_t>(h) * w;

  Tensor grad_in = grad_out;
  Tensor dlogits({n, channels_});
  for (int s = 0; s < n; ++s)
    for (int c = 0; c < channels_; ++c) {
      const std::size_t base =
          (static_cast<std::size_t>(s) * channels_ + c) * hw;
      const float* g = grad_out.data() + base;
      const float* xc = x.data() + base;
      float* d = grad_in.data() + base;
      const float bc = weights_.at(s, c);
      float db = 0.0f;
      for (std::size_t e = 0; e < hw; ++e) {
        db += g[e] * xc[e];
        d[e] = g[e] * bc;
      }
      dlogits.at(s, c) = db * bc * (1.0f - bc);
    }

  Tensor ddesc = fc_.backward(dlogits);
  for (int s = 0; s < n; ++s)
    for (int c = 0; c < channels_; ++c) {
      const std::size_t base =
          (static_cast<std::size_t>(s) * channels_ + c) * hw;
      float* d = grad_in.data() + base;
      const float dmean = ddesc.at(s, c) / static_cast<float>(hw);
      for (std::size_t e = 0; e < hw; ++e) d[e] += dmean;
      d[max_index_[static_cast<std::size_t>(s) * channels_ + c]] +=
          ddesc.at(s, channels_ + c);
    }
  return grad_in;
}

SpatialAttention::SpatialAttention(Rng& rng, int kernel)
    : conv_(2, 1, kernel, 1, kernel / 2, rng) {
  MMHAND_CHECK(kernel % 2 == 1, "SpatialAttention kernel must be odd");
}

Tensor SpatialAttention::forward(const Tensor& x, bool training) {
  MMHAND_CHECK(x.rank() == 4, "SpatialAttention expects [N, C, H, W]");
  const int n = x.dim(0), c_dim = x.dim(1), h = x.dim(2), w = x.dim(3);
  const std::size_t hw = static_cast<std::size_t>(h) * w;

  // Channel-outer passes over [hw] rows.  Per pixel the sum still starts
  // at 0 and adds channels in ascending order, and the strict `>` keeps
  // the lowest channel (max_channel starts at 0) on ties, as a per-pixel
  // channel walk would.
  Tensor maps({n, 2, h, w});
  std::vector<int> max_channel(training ? n * hw : 0);
  for (int s = 0; s < n; ++s) {
    const float* xs = x.data() + s * c_dim * hw;
    float* mean = maps.data() + s * 2 * hw;
    float* best = mean + hw;
    int* arg = training ? max_channel.data() + s * hw : nullptr;
    std::fill(mean, mean + hw, 0.0f);
    std::copy(xs, xs + hw, best);
    for (int c = 0; c < c_dim; ++c) {
      const float* row = xs + c * hw;
      for (std::size_t e = 0; e < hw; ++e) mean[e] += row[e];
      if (arg == nullptr) {
        for (std::size_t e = 0; e < hw; ++e)
          best[e] = row[e] > best[e] ? row[e] : best[e];
        continue;
      }
      for (std::size_t e = 0; e < hw; ++e)
        if (row[e] > best[e]) {
          best[e] = row[e];
          arg[e] = c;
        }
    }
    for (std::size_t e = 0; e < hw; ++e) mean[e] /= static_cast<float>(c_dim);
  }

  Tensor pre = conv_.forward(maps, training);
  Tensor m = pre;  // [N, 1, H, W]
  for (std::size_t e = 0; e < m.numel(); ++e) m[e] = sigmoid_value(m[e]);

  Tensor y = x;
  for (int s = 0; s < n; ++s) {
    const float* ms = m.data() + s * hw;
    for (int c = 0; c < c_dim; ++c) {
      float* row = y.data() + (s * c_dim + c) * hw;
      for (std::size_t e = 0; e < hw; ++e) row[e] *= ms[e];
    }
  }

  if (training) {
    cached_input_ = x;
    weights_ = std::move(m);
    max_channel_ = std::move(max_channel);
  }
  return y;
}

Tensor SpatialAttention::backward(const Tensor& grad_out) {
  MMHAND_CHECK(!cached_input_.empty(),
               "SpatialAttention backward before forward");
  const Tensor& x = cached_input_;
  MMHAND_CHECK(grad_out.same_shape(x), "SpatialAttention grad shape");
  const int n = x.dim(0), c_dim = x.dim(1), h = x.dim(2), w = x.dim(3);

  Tensor grad_in = grad_out;
  Tensor dpre({n, 1, h, w});
  for (int s = 0; s < n; ++s)
    for (int i = 0; i < h; ++i)
      for (int j = 0; j < w; ++j) {
        const float mv = weights_.at(s, 0, i, j);
        float dm = 0.0f;
        for (int c = 0; c < c_dim; ++c) {
          dm += grad_out.at(s, c, i, j) * x.at(s, c, i, j);
          grad_in.at(s, c, i, j) = grad_out.at(s, c, i, j) * mv;
        }
        dpre.at(s, 0, i, j) = dm * mv * (1.0f - mv);
      }

  Tensor dmaps = conv_.backward(dpre);
  for (int s = 0; s < n; ++s)
    for (int i = 0; i < h; ++i)
      for (int j = 0; j < w; ++j) {
        const float dmean = dmaps.at(s, 0, i, j) / static_cast<float>(c_dim);
        for (int c = 0; c < c_dim; ++c) grad_in.at(s, c, i, j) += dmean;
        grad_in.at(
            s, max_channel_[(static_cast<std::size_t>(s) * h + i) * w + j],
            i, j) += dmaps.at(s, 1, i, j);
      }
  return grad_in;
}

}  // namespace mmhand::nn
