#include "nn/autodiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/utils.hpp"
#include "nn/gemm.hpp"
#include "nn/im2col.hpp"

namespace xfc::nn {

// ---------------------------------------------------- backward kernels ----
//
// One reverse kernel per forward op in graph.cpp. The thread-count-
// determinism contract from graph.hpp applies throughout: parallel loops
// write disjoint regions, and every cross-image reduction into a parameter
// gradient happens serially in image order.

namespace {

void relu_backward(const float* x, const float* go, std::size_t n,
                   bool first, float* gx) {
  if (first) {
    for (std::size_t i = 0; i < n; ++i)
      gx[i] = x[i] <= 0.0f ? 0.0f : go[i];
  } else {
    for (std::size_t i = 0; i < n; ++i)
      if (x[i] > 0.0f) gx[i] += go[i];
  }
}

/// One (image, group) block of the conv backward: data gradient via the
/// transposed GEMM (+ col2im for k > 1), weight gradient into the caller's
/// per-image accumulator.
void conv_backward_block(const float* x, const float* wts, const float* go,
                         std::size_t in_ch, std::size_t H, std::size_t W,
                         std::size_t out_ch, std::size_t k,
                         std::size_t groups, std::size_t b, std::size_t g,
                         float* gx, float* gw_base) {
  const std::size_t hw = H * W;
  const std::size_t icg = in_ch / groups;
  const std::size_t ocg = out_ch / groups;
  const std::size_t k2 = k * k;
  const float* xg = x + (b * in_ch + g * icg) * hw;
  const float* gog = go + (b * out_ch + g * ocg) * hw;
  const float* wg = wts + g * ocg * icg * k2;
  float* gxg = gx != nullptr ? gx + (b * in_ch + g * icg) * hw : nullptr;
  float* gwg = gw_base != nullptr ? gw_base + g * ocg * icg * k2 : nullptr;

  if (k == 1) {
    if (gxg != nullptr)
      sgemm(true, false, icg, hw, ocg, 1.0f, wg, icg, gog, hw, 0.0f, gxg,
            hw);
    if (gwg != nullptr)
      sgemm(false, true, ocg, icg, hw, 1.0f, gog, hw, xg, hw, 1.0f, gwg,
            icg);
    return;
  }

  Workspace& ws = tls_workspace();
  const ScratchScope scope(ws);
  if (gxg != nullptr) {
    float* dcol = ws.acquire(icg * k2 * hw);
    sgemm(true, false, icg * k2, hw, ocg, 1.0f, wg, icg * k2, gog, hw, 0.0f,
          dcol, hw);
    col2im(dcol, icg, H, W, k, gxg);  // accumulates into pre-zeroed gxg
  }
  if (gwg != nullptr) {
    float* col = ws.acquire(icg * k2 * hw);
    im2col(xg, icg, H, W, k, col);
    sgemm(false, true, ocg, icg * k2, hw, 1.0f, gog, hw, col, hw, 1.0f, gwg,
          icg * k2);
  }
}

void conv_backward(const float* x, const float* wts, const float* go,
                   std::size_t B, std::size_t in_ch, std::size_t H,
                   std::size_t W, std::size_t out_ch, std::size_t k,
                   std::size_t groups, bool first, Workspace& ws, float* gx,
                   float* gw, float* gb) {
  const std::size_t hw = H * W;
  const std::size_t icg = in_ch / groups;
  const std::size_t k2 = k * k;
  const std::size_t wsize = out_ch * icg * k2;

  // col2im scatter-adds, so the data-gradient planes must start zeroed on
  // the first write of this sweep (later writers accumulate on top).
  if (gx != nullptr && k > 1 && first)
    std::fill(gx, gx + B * in_ch * hw, 0.0f);

  if (gw != nullptr) {
    const ScratchScope scope(ws);
    if (B == 1) {
      // Single image: one accumulator, group-parallel (groups touch
      // disjoint weight slices).
      float* acc = ws.acquire(wsize);
      std::fill(acc, acc + wsize, 0.0f);
      parallel_for_chunked(0, groups, 1, [&](std::size_t lo,
                                             std::size_t hi) {
        for (std::size_t g = lo; g < hi; ++g)
          conv_backward_block(x, wts, go, in_ch, H, W, out_ch, k, groups, 0,
                              g, gx, acc);
      });
      for (std::size_t i = 0; i < wsize; ++i) gw[i] += acc[i];
    } else {
      // Per-image accumulators, reduced serially in image order so the
      // weight gradient is independent of XFC_THREADS.
      float* acc_all = ws.acquire(B * wsize);
      parallel_for_chunked(0, B, 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t b = lo; b < hi; ++b) {
          float* acc = acc_all + b * wsize;
          std::fill(acc, acc + wsize, 0.0f);
          for (std::size_t g = 0; g < groups; ++g)
            conv_backward_block(x, wts, go, in_ch, H, W, out_ch, k, groups,
                                b, g, gx, acc);
        }
      });
      for (std::size_t b = 0; b < B; ++b) {
        const float* acc = acc_all + b * wsize;
        for (std::size_t i = 0; i < wsize; ++i) gw[i] += acc[i];
      }
    }
  } else if (gx != nullptr) {
    parallel_for_chunked(0, B * groups, 1, [&](std::size_t lo,
                                               std::size_t hi) {
      for (std::size_t task = lo; task < hi; ++task)
        conv_backward_block(x, wts, go, in_ch, H, W, out_ch, k, groups,
                            task / groups, task % groups, gx, nullptr);
    });
  }

  if (gb != nullptr) {
    parallel_for_chunked(0, out_ch, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t oc = lo; oc < hi; ++oc) {
        double acc = 0.0;
        for (std::size_t b = 0; b < B; ++b) {
          const float* p = go + (b * out_ch + oc) * hw;
          for (std::size_t i = 0; i < hw; ++i) acc += p[i];
        }
        gb[oc] += static_cast<float>(acc);
      }
    });
  }
}

/// Backward through one shared-MLP branch: grads of w1/b1/w2/b2 accumulate;
/// dv receives dL/d(pooled descriptor).
void attn_mlp_backward(const float* w1, const float* w2, std::size_t c,
                       std::size_t mid, const float* v, const float* hpre,
                       const float* hpost, const float* dz, float* dh,
                       float* dv, float* gw1, float* gb1, float* gw2,
                       float* gb2) {
  std::fill(dh, dh + mid, 0.0f);
  for (std::size_t ch = 0; ch < c; ++ch) {
    const float g = dz[ch];
    float* row_g = gw2 + ch * mid;
    const float* row_w = w2 + ch * mid;
    for (std::size_t m = 0; m < mid; ++m) {
      row_g[m] += g * hpost[m];
      dh[m] += g * row_w[m];
    }
    gb2[ch] += g;
  }
  for (std::size_t m = 0; m < mid; ++m)
    if (hpre[m] <= 0.0f) dh[m] = 0.0f;
  std::fill(dv, dv + c, 0.0f);
  for (std::size_t m = 0; m < mid; ++m) {
    const float g = dh[m];
    if (g == 0.0f) continue;
    float* row_g = gw1 + m * c;
    const float* row_w = w1 + m * c;
    for (std::size_t ch = 0; ch < c; ++ch) {
      row_g[ch] += g * v[ch];
      dv[ch] += g * row_w[ch];
    }
    gb1[m] += g;
  }
}

void attention_backward(const float* x, const float* w1, const float* w2,
                        const float* go, std::size_t B, std::size_t c,
                        std::size_t mid, std::size_t hw,
                        const detail::AttnAux& aux, bool first,
                        Workspace& ws, float* gx, float* gw1, float* gb1,
                        float* gw2, float* gb2) {
  const ScratchScope scope(ws);
  float* dz = ws.acquire(c);
  float* dh = ws.acquire(mid);
  float* davg = ws.acquire(c);
  float* dmx = ws.acquire(c);

  for (std::size_t b = 0; b < B; ++b) {
    // dL/dz via the sigmoid: z feeds every pixel of the plane, so the
    // plane-level reduction go·x happens first (serial, double).
    for (std::size_t ch = 0; ch < c; ++ch) {
      const std::size_t bc = b * c + ch;
      const float* go_p = go + bc * hw;
      const float* in_p = x + bc * hw;
      const float s = aux.scale[bc];
      double ds = 0.0;
      if (gx != nullptr) {
        float* gx_p = gx + bc * hw;
        if (first) {
          for (std::size_t i = 0; i < hw; ++i) {
            ds += static_cast<double>(go_p[i]) * in_p[i];
            gx_p[i] = go_p[i] * s;
          }
        } else {
          for (std::size_t i = 0; i < hw; ++i) {
            ds += static_cast<double>(go_p[i]) * in_p[i];
            gx_p[i] += go_p[i] * s;
          }
        }
      } else {
        for (std::size_t i = 0; i < hw; ++i)
          ds += static_cast<double>(go_p[i]) * in_p[i];
      }
      dz[ch] = static_cast<float>(ds * s * (1.0 - s));
    }

    // z = za + zm, so the same dz drives both MLP branches.
    attn_mlp_backward(w1, w2, c, mid, aux.avg + b * c, aux.ha_pre + b * mid,
                      aux.ha_post + b * mid, dz, dh, davg, gw1, gb1, gw2,
                      gb2);
    attn_mlp_backward(w1, w2, c, mid, aux.mx + b * c, aux.hm_pre + b * mid,
                      aux.hm_post + b * mid, dz, dh, dmx, gw1, gb1, gw2,
                      gb2);

    if (gx != nullptr) {
      for (std::size_t ch = 0; ch < c; ++ch) {
        const std::size_t bc = b * c + ch;
        float* gx_p = gx + bc * hw;
        const float ga = davg[ch] / static_cast<float>(hw);
        for (std::size_t i = 0; i < hw; ++i) gx_p[i] += ga;
        gx_p[aux.argmax[bc]] += dmx[ch];
      }
    }
  }
}

void mse_backward(const float* p, const float* t, std::size_t n, float scale,
                  bool first_p, float* gp, bool first_t, float* gt) {
  const double inv_n = 1.0 / static_cast<double>(n);
  const double sc = static_cast<double>(scale);
  for (std::size_t i = 0; i < n; ++i) {
    const double d = static_cast<double>(p[i]) - t[i];
    const float g = static_cast<float>(2.0 * d * inv_n * sc);
    if (gp != nullptr) gp[i] = first_p ? g : gp[i] + g;
    if (gt != nullptr) gt[i] = first_t ? -g : gt[i] - g;
  }
}

}  // namespace

// --------------------------------------------------- GraphExec backward ----

void GraphExec::begin_backward() {
  expects(g_.mode() == Graph::Mode::kTrain,
          "GraphExec::backward: graph is in infer mode");
  // First-writer semantics make zeroing unnecessary: the first gradient
  // contribution to each activation buffer assigns, later ones accumulate.
  std::fill(gwritten_, gwritten_ + n_, std::uint8_t{0});
}

void GraphExec::backward() {
  expects(g_.nodes_.back().op == Op::kMseLoss,
          "GraphExec::backward: root is not a loss node");
  begin_backward();
  for (std::size_t i = n_; i-- > 0;) backprop(i);
}

void GraphExec::backward_from(NodeRef node, const float* seed) {
  const Node& nd = g_.at(node);
  expects(seed != nullptr, "GraphExec::backward_from: null seed");
  begin_backward();
  const std::size_t i0 = static_cast<std::size_t>(node.id);
  expects(grd_[i0] != nullptr,
          "GraphExec::backward_from: node has no gradient buffer");
  std::memcpy(grd_[i0], seed, nd.shape.size() * sizeof(float));
  gwritten_[i0] = 1;
  for (std::size_t i = i0 + 1; i-- > 0;) backprop(i);
}

void GraphExec::backprop(std::size_t i) {
  const Node& nd = g_.nodes_[i];
  if (!nd.needs_grad) return;
  if (nd.op == Op::kInput || nd.op == Op::kParam) return;
  // A loss root starts the sweep with an implicit seed of 1; every other
  // node contributes only if some consumer already wrote its gradient.
  const bool is_unseeded_root = nd.op == Op::kMseLoss && !gwritten_[i];
  if (!gwritten_[i] && !is_unseeded_root) return;

  const auto in_id = [&](int slot) {
    return static_cast<std::size_t>(nd.in[slot]);
  };
  const auto in_val = [&](int slot) { return val_[in_id(slot)]; };
  const auto in_grd = [&](int slot) -> float* {
    return nd.in[slot] >= 0 ? grd_[in_id(slot)] : nullptr;
  };
  const auto first = [&](int slot) { return gwritten_[in_id(slot)] == 0; };
  const auto mark = [&](int slot) {
    if (nd.in[slot] >= 0 && grd_[in_id(slot)] != nullptr)
      gwritten_[in_id(slot)] = 1;
  };
  const float* go = grd_[i];

  switch (nd.op) {
    case Op::kInput:
    case Op::kParam:
      break;
    case Op::kConv2D: {
      const GShape& xs = g_.nodes_[in_id(0)].shape;
      conv_backward(in_val(0), in_val(1), go, xs.n, xs.c, xs.h, xs.w,
                    nd.shape.c, nd.a0, nd.a1, first(0), ws_, in_grd(0),
                    in_grd(1), in_grd(2));
      break;
    }
    case Op::kReLU:
      if (in_grd(0) != nullptr)
        relu_backward(in_val(0), go, nd.shape.size(), first(0), in_grd(0));
      break;
    case Op::kChannelAttention: {
      const GShape& xs = g_.nodes_[in_id(0)].shape;
      const std::size_t mid = xs.c / nd.a0;
      attention_backward(
          in_val(0), in_val(1), in_val(3), go, xs.n, xs.c, mid, xs.h * xs.w,
          detail::AttnAux(aux_[i], iaux_[i], xs.n, xs.c, mid), first(0),
          ws_, in_grd(0), in_grd(1), in_grd(2), in_grd(3), in_grd(4));
      break;
    }
    case Op::kMseLoss: {
      const GShape& ps = g_.nodes_[in_id(0)].shape;
      const float scale = is_unseeded_root ? 1.0f : go[0];
      mse_backward(in_val(0), in_val(1), ps.size(), scale, first(0),
                   in_grd(0), first(1), in_grd(1));
      break;
    }
  }
  for (int s = 0; s < 5; ++s) mark(s);
}

// ------------------------------------------------------------ check_grad ----

CheckGradResult check_grad(Graph& g, GraphExec& exec,
                           const CheckGradOptions& opts) {
  expects(g.mode() == Graph::Mode::kTrain,
          "check_grad: graph must be in train mode");
  expects(g.node(g.root()).op == Op::kMseLoss,
          "check_grad: root must be a loss node");

  const std::vector<Param> params = g.params();
  g.zero_grad();
  exec.forward();
  exec.backward();
  std::vector<std::vector<float>> analytic;
  analytic.reserve(params.size());
  for (const Param& p : params) analytic.push_back(*p.grad);

  CheckGradResult res;
  Rng rng(opts.seed);
  for (std::size_t pi = 0; pi < params.size(); ++pi) {
    std::vector<float>& v = *params[pi].value;
    const std::size_t n = v.size();
    const bool dense = opts.samples_per_param >= n;
    const std::size_t probes = dense ? n : opts.samples_per_param;
    for (std::size_t s = 0; s < probes; ++s) {
      const std::size_t e =
          dense ? s : static_cast<std::size_t>(rng.uniform_index(n));
      const float orig = v[e];
      v[e] = orig + static_cast<float>(opts.eps);
      exec.forward();
      const double lp = exec.loss();
      v[e] = orig - static_cast<float>(opts.eps);
      exec.forward();
      const double lm = exec.loss();
      v[e] = orig;
      const double fd = (lp - lm) / (2.0 * opts.eps);
      const double a = analytic[pi][e];
      const double rel = std::abs(a - fd) /
                         std::max({1.0, std::abs(a), std::abs(fd)});
      ++res.checked;
      if (rel > res.max_rel_err) {
        res.max_rel_err = rel;
        res.worst_param = pi;
        res.worst_elem = e;
        res.worst_analytic = a;
        res.worst_numeric = fd;
      }
    }
  }
  exec.forward();  // leave activations consistent with restored params
  res.ok = res.max_rel_err <= opts.tol;
  return res;
}

// ----------------------------------------------------------------- Model ----

std::vector<float>& Model::add(std::size_t size) {
  return values_.emplace_back(size, 0.0f);
}

std::vector<float>& Model::add_xavier(std::size_t size, std::size_t fan_in,
                                      std::size_t fan_out, Rng& rng) {
  std::vector<float>& v = add(size);
  const double limit = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (float& x : v) x = static_cast<float>(rng.uniform(-limit, limit));
  return v;
}

std::size_t Model::param_count() const {
  std::size_t n = 0;
  for (const auto& v : values_) n += v.size();
  return n;
}

}  // namespace xfc::nn
