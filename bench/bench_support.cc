#include "bench/bench_support.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "src/baselines/allegro.h"
#include "src/baselines/bbr.h"
#include "src/baselines/copa.h"
#include "src/baselines/cubic.h"
#include "src/baselines/orca.h"
#include "src/baselines/vegas.h"
#include "src/baselines/vivace.h"
#include "src/core/reward.h"
#include "src/nn/fast_math.h"
#include "src/rl/inference_policy.h"

namespace mocc {

ModelZoo& BenchZoo() {
  static ModelZoo zoo("mocc_model_zoo");
  return zoo;
}

std::shared_ptr<PreferenceActorCritic> BenchBaseModel() {
  static std::shared_ptr<PreferenceActorCritic> model = [] {
    const OfflineTrainConfig config = StandardOfflinePreset(7);
    std::fprintf(stderr, "[bench] loading/training MOCC base model (omega=%d)...\n",
                 ObjectiveGridSize(config.mocc.landmark_step_divisor));
    return GetOrTrainBaseModel(&BenchZoo(), "bench_base_std", config);
  }();
  return model;
}

std::shared_ptr<MlpActorCritic> BenchAuroraModel(const std::string& key,
                                                 const WeightVector& w, int iterations,
                                                 uint64_t seed) {
  return BenchZoo().GetOrTrainAurora(key, AuroraObsDim(10), [&]() {
    std::fprintf(stderr, "[bench] training Aurora model '%s'...\n", key.c_str());
    AuroraConfig config;
    config.reward_weights = w;
    config.iterations = iterations;
    config.seed = seed;
    config.env.stochastic_loss = false;
    config.ppo.entropy_start = 0.02;
    config.ppo.entropy_end = 0.002;
    config.ppo.entropy_decay_iters = iterations;
    return TrainAurora(config);
  });
}

std::shared_ptr<MlpActorCritic> BenchOrcaModel() {
  return BenchAuroraModel("bench_orca_agent", WeightVector(0.7, 0.2, 0.1), 120, 91);
}

std::vector<SchemeSpec> HandcraftedSchemes() {
  std::vector<SchemeSpec> schemes;
  schemes.push_back({"TCP CUBIC", [](const LinkParams&) { return std::make_unique<CubicCc>(); }});
  schemes.push_back({"TCP Vegas", [](const LinkParams&) { return std::make_unique<VegasCc>(); }});
  schemes.push_back({"BBR", [](const LinkParams&) { return std::make_unique<BbrCc>(); }});
  schemes.push_back({"Copa", [](const LinkParams&) { return std::make_unique<CopaCc>(); }});
  schemes.push_back(
      {"PCC Allegro", [](const LinkParams&) { return std::make_unique<AllegroCc>(); }});
  schemes.push_back(
      {"PCC Vivace", [](const LinkParams&) { return std::make_unique<VivaceCc>(); }});
  return schemes;
}

// Initial pacing rate for deployed RL controllers: a slow-start analogue so ramp time
// does not dominate large-bandwidth links (Eq. 1 moves the rate ~2.5% per RTT).
static double RlInitialRate(const LinkParams& link) {
  return std::max(2e6, 0.25 * link.bandwidth_bps);
}

std::vector<SchemeSpec> AllBaselineSchemes() {
  std::vector<SchemeSpec> schemes = HandcraftedSchemes();
  auto aurora_thr = BenchAuroraModel("bench_aurora_thr", ThroughputObjective());
  auto aurora_lat = BenchAuroraModel("bench_aurora_lat", LatencyObjective(), 120, 43);
  auto orca_agent = BenchOrcaModel();
  schemes.push_back({"Aurora-throughput", [aurora_thr](const LinkParams& link) {
                       return MakeAuroraCc(aurora_thr, "Aurora-throughput", 10,
                                           RlInitialRate(link));
                     }});
  schemes.push_back({"Aurora-latency", [aurora_lat](const LinkParams& link) {
                       return MakeAuroraCc(aurora_lat, "Aurora-latency", 10,
                                           RlInitialRate(link));
                     }});
  schemes.push_back({"Orca", [orca_agent](const LinkParams&) {
                       return std::make_unique<OrcaCc>(orca_agent);
                     }});
  return schemes;
}

SchemeSpec MoccScheme(const WeightVector& w, const std::string& name) {
  auto model = BenchBaseModel();
  return {name, [model, w, name](const LinkParams& link) {
            return PolicySpec().WithModel(model).WithName(name).MakeController(
                w, RlInitialRate(link));
          }};
}

SingleFlowResult RunSingleFlow(const SchemeSpec& scheme, const SingleFlowRunConfig& config) {
  PacketNetwork net(config.link, config.seed);
  if (!config.trace.empty()) {
    net.SetBandwidthTrace(config.trace);
  }
  const int flow = net.AddFlow(scheme.make(config.link));
  double duration = config.duration_s;
  double warmup = config.warmup_s;
  const double min_duration = config.min_rtts * config.link.BaseRttS();
  if (duration < min_duration) {
    duration = min_duration;
    warmup = duration / 2.0;
  }
  net.Run(duration);

  const FlowRecord& rec = net.record(flow);
  SingleFlowResult result;
  const double thr_bps = rec.AvgThroughputBps(warmup, duration);
  result.throughput_mbps = thr_bps / 1e6;
  result.utilization = std::min(1.0, thr_bps / config.link.bandwidth_bps);
  result.avg_rtt_s = rec.AvgRttS();
  result.latency_ratio =
      result.avg_rtt_s > 0.0 ? result.avg_rtt_s / config.link.BaseRttS() : 1.0;
  result.loss_rate = rec.LossRate();

  MonitorReport aggregate;
  aggregate.throughput_bps = thr_bps;
  aggregate.avg_rtt_s = result.avg_rtt_s > 0.0 ? result.avg_rtt_s : config.link.BaseRttS();
  aggregate.loss_rate = result.loss_rate;
  result.reward = DynamicReward(config.reward_weights, aggregate,
                                config.link.bandwidth_bps, config.link.BaseRttS());
  return result;
}

namespace {

// ---------------------------------------------------------------------------
// PR-7-era auto-vectorized float32 deployment row path, preserved verbatim as
// the reference denominator for the explicit-SIMD speedup gate. These are the
// exact pre-dispatch kernel templates (register-tiled column blocks of
// RowMatVecBias and the fixed-width FastTanh block sweep), compiled HERE under
// the global flags (-march=native + default contraction), so "what gcc
// auto-vectorizes them into today" is measured in-binary on the same host and
// in the same cache conditions as the dispatched path — not frozen into a
// stale committed number.
// ---------------------------------------------------------------------------

template <size_t TILE>
inline void AutovecRowMatVecTile(const float* x, const float* w, const float* b,
                                 float* y, size_t in, size_t out, size_t j0) {
  float acc[TILE] = {0.0f};
  const float* wp = w + j0;
  for (size_t k = 0; k < in; ++k, wp += out) {
    const float xk = x[k];
    for (size_t t = 0; t < TILE; ++t) {
      acc[t] += xk * wp[t];
    }
  }
  for (size_t t = 0; t < TILE; ++t) {
    y[j0 + t] = acc[t] + b[j0 + t];
  }
}

void AutovecRowMatVecBias(const float* x, const float* w, const float* b, float* y,
                          size_t in, size_t out) {
  size_t j0 = 0;
  for (; j0 + 32 <= out; j0 += 32) {
    AutovecRowMatVecTile<32>(x, w, b, y, in, out, j0);
  }
  for (; j0 + 16 <= out; j0 += 16) {
    AutovecRowMatVecTile<16>(x, w, b, y, in, out, j0);
  }
  for (; j0 + 8 <= out; j0 += 8) {
    AutovecRowMatVecTile<8>(x, w, b, y, in, out, j0);
  }
  for (; j0 < out; ++j0) {
    float acc = 0.0f;
    const float* wp = w + j0;
    for (size_t k = 0; k < in; ++k, wp += out) {
      acc += x[k] * *wp;
    }
    y[j0] = acc + b[j0];
  }
}

inline void AutovecTanh8(float* data) {
  for (size_t t = 0; t < 8; ++t) {
    data[t] = FastTanh(data[t]);
  }
}

void AutovecTanhArray(float* data, size_t n) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    AutovecTanh8(data + i);
  }
  if (i < n) {
    float tail[8] = {0.0f};
    std::copy(data + i, data + n, tail);
    AutovecTanh8(tail);
    std::copy(tail, tail + (n - i), data + i);
  }
}

// One float32 MLP snapshot row-forwarded with the PR-7 kernels above.
struct AutovecMlpF32 {
  struct Layer {
    std::vector<float> w;  // in x out row-major
    std::vector<float> b;
    size_t in = 0;
    size_t out = 0;
    Activation act = Activation::kIdentity;
  };

  void CastFrom(MlpT<double>* src) {
    layers.clear();
    size_t max_dim = src->in_dim();
    for (size_t li = 0; li < src->layer_count(); ++li) {
      const auto& sl = src->layer(li);
      Layer l;
      l.in = sl.in_dim();
      l.out = sl.out_dim();
      l.act = sl.activation();
      l.w.resize(l.in * l.out);
      l.b.resize(l.out);
      for (size_t i = 0; i < l.w.size(); ++i) {
        l.w[i] = static_cast<float>(sl.weights().data()[i]);
      }
      for (size_t i = 0; i < l.out; ++i) {
        l.b[i] = static_cast<float>(sl.bias().data()[i]);
      }
      max_dim = std::max(max_dim, l.out);
      layers.push_back(std::move(l));
    }
    scratch0.resize(max_dim);
    scratch1.resize(max_dim);
  }

  void ForwardRow(const float* x, float* y) {
    const float* cur = x;
    for (size_t li = 0; li < layers.size(); ++li) {
      Layer& l = layers[li];
      float* dst = li + 1 == layers.size() ? y
                   : li % 2 == 0           ? scratch0.data()
                                           : scratch1.data();
      AutovecRowMatVecBias(cur, l.w.data(), l.b.data(), dst, l.in, l.out);
      if (l.act == Activation::kTanh) {
        AutovecTanhArray(dst, l.out);
      }
      cur = dst;
    }
  }

  std::vector<Layer> layers;
  std::vector<float> scratch0;
  std::vector<float> scratch1;
};

// The PR-7 PreferenceFloat32Policy row path: NarrowObs, per-head PN cache keyed
// on the weight prefix, history copy into the concat row, trunk forward — all
// through the auto-vectorized kernels (no cached layer-0 partial: that trick
// ships with the dispatched path this replica is the baseline for).
struct AutovecF32PolicyReplica {
  explicit AutovecF32PolicyReplica(SeedModelReplica* seed, size_t weight_dim,
                                   size_t pn_out_dim, size_t hist)
      : weight_dim_(weight_dim), pn_out_(pn_out_dim), hist_dim_(hist) {
    actor_.pn.CastFrom(&seed->actor_pn);
    actor_.trunk.CastFrom(&seed->actor_trunk);
    critic_.pn.CastFrom(&seed->critic_pn);
    critic_.trunk.CastFrom(&seed->critic_trunk);
    for (Head* h : {&actor_, &critic_}) {
      h->concat_row.resize(pn_out_ + hist_dim_);
      h->pn_cache_w.resize(weight_dim_);
    }
  }

  void ForwardRow(const std::vector<double>& obs, double* mean, double* value) {
    obs_f32_.resize(obs.size());
    for (size_t i = 0; i < obs.size(); ++i) {
      obs_f32_[i] = static_cast<float>(obs[i]);
    }
    float m = 0.0f;
    float v = 0.0f;
    ForwardHeadRow(&actor_, obs_f32_.data(), &m);
    ForwardHeadRow(&critic_, obs_f32_.data(), &v);
    *mean = static_cast<double>(m);
    *value = static_cast<double>(v);
  }

 private:
  struct Head {
    AutovecMlpF32 pn;
    AutovecMlpF32 trunk;
    std::vector<float> concat_row;
    std::vector<float> pn_cache_w;
    bool pn_cache_valid = false;
  };

  void ForwardHeadRow(Head* head, const float* obs, float* out) {
    float* concat = head->concat_row.data();
    const bool pn_hit = head->pn_cache_valid &&
                        std::equal(obs, obs + weight_dim_, head->pn_cache_w.begin());
    if (!pn_hit) {
      head->pn.ForwardRow(obs, concat);
      std::copy(obs, obs + weight_dim_, head->pn_cache_w.begin());
      head->pn_cache_valid = true;
    }
    std::copy(obs + weight_dim_, obs + weight_dim_ + hist_dim_, concat + pn_out_);
    head->trunk.ForwardRow(concat, out);
  }

  size_t weight_dim_;
  size_t pn_out_;
  size_t hist_dim_;
  Head actor_;
  Head critic_;
  std::vector<float> obs_f32_;
};

}  // namespace

BenchJson::BenchJson(std::string name) : name_(std::move(name)) {}

void BenchJson::Add(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(12);
  out << value;
  entries_.emplace_back(key, out.str());
}

void BenchJson::AddString(const std::string& key, const std::string& value) {
  std::string escaped = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      escaped.push_back('\\');
    }
    escaped.push_back(c);
  }
  escaped.push_back('"');
  entries_.emplace_back(key, escaped);
}

bool BenchJson::Write() const {
  std::ofstream out(path(), std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\n  \"bench\": \"" << name_ << "\"";
  for (const auto& [key, value] : entries_) {
    out << ",\n  \"" << key << "\": " << value;
  }
  out << "\n}\n";
  out.flush();
  if (out.good()) {
    std::fprintf(stderr, "[bench] wrote %s\n", path().c_str());
    return true;
  }
  return false;
}

double MeasureOpsPerSec(const std::function<void()>& fn, double min_seconds) {
  using Clock = std::chrono::steady_clock;
  // Untimed warmup so one-time workspace growth is excluded from steady state.
  fn();
  int64_t calls = 0;
  int64_t batch = 1;
  const Clock::time_point start = Clock::now();
  double elapsed = 0.0;
  while (elapsed < min_seconds) {
    for (int64_t i = 0; i < batch; ++i) {
      fn();
    }
    calls += batch;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
    // Grow the batch so the clock is read ~logarithmically often.
    batch = std::min<int64_t>(batch * 2, 1 << 16);
  }
  return elapsed > 0.0 ? static_cast<double>(calls) / elapsed : 0.0;
}

Matrix SeedStyleMlpForward(Mlp* net, const Matrix& x, Activation output_activation) {
  // Seed MatMul: triple loop with the aik == 0.0 skip branch.
  const auto seed_matmul = [](const Matrix& a, const Matrix& b) {
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i) {
      for (size_t k = 0; k < a.cols(); ++k) {
        const double aik = a(i, k);
        if (aik == 0.0) {
          continue;
        }
        for (size_t j = 0; j < b.cols(); ++j) {
          c(i, j) += aik * b(k, j);
        }
      }
    }
    return c;
  };
  auto params = net->Params();
  const size_t layers = params.size() / 2;
  Matrix y = x;
  for (size_t l = 0; l < layers; ++l) {
    const Matrix cached_input = y;  // seed DenseLayer::Forward cached a copy
    Matrix out = seed_matmul(cached_input, *params[2 * l].value);
    AddRowBias(&out, *params[2 * l + 1].value);
    const Activation act = l + 1 < layers ? Activation::kTanh : output_activation;
    if (act == Activation::kTanh) {
      // Seed ApplyActivation: scalar libm tanh (the current one is vectorized).
      for (size_t i = 0; i < out.size(); ++i) {
        out.data()[i] = std::tanh(out.data()[i]);
      }
    }
    const Matrix cached_output = out;  // ... and cached the post-activation output
    y = cached_output;
  }
  return y;
}

Matrix SeedStylePreferenceHeadForward(Mlp* pn, Mlp* trunk, const Matrix& obs,
                                      size_t weight_dim, size_t pn_out_dim) {
  // Replicates the seed PreferenceActorCritic::ForwardHead: fresh slice matrices
  // for the weight vector and the history, PN forward, fresh concat matrix, a
  // cached copy of it, then the trunk forward.
  const size_t batch = obs.rows();
  const size_t hist_dim = obs.cols() - weight_dim;
  Matrix weights(batch, weight_dim);
  Matrix history(batch, hist_dim);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < weight_dim; ++c) {
      weights(b, c) = obs(b, c);
    }
    for (size_t c = 0; c < hist_dim; ++c) {
      history(b, c) = obs(b, weight_dim + c);
    }
  }
  const Matrix pn_out = SeedStyleMlpForward(pn, weights, Activation::kTanh);
  Matrix concat(batch, pn_out_dim + hist_dim);
  for (size_t b = 0; b < batch; ++b) {
    for (size_t c = 0; c < pn_out_dim; ++c) {
      concat(b, c) = pn_out(b, c);
    }
    for (size_t c = 0; c < hist_dim; ++c) {
      concat(b, pn_out_dim + c) = history(b, c);
    }
  }
  const Matrix cached_concat = concat;  // seed kept a copy for the backward pass
  (void)cached_concat;
  return SeedStyleMlpForward(trunk, concat);
}

SeedModelReplica::SeedModelReplica(const MoccConfig& config)
    : rng(1),
      actor_pn({PreferenceActorCritic::kWeightDim, config.pn_hidden, config.pn_out},
               Activation::kTanh, Activation::kTanh, &rng),
      actor_trunk({config.pn_out + config.HistoryDim(), 64, 32, 1}, Activation::kTanh,
                  Activation::kIdentity, &rng),
      critic_pn({PreferenceActorCritic::kWeightDim, config.pn_hidden, config.pn_out},
                Activation::kTanh, Activation::kTanh, &rng),
      critic_trunk({config.pn_out + config.HistoryDim(), 64, 32, 1}, Activation::kTanh,
                   Activation::kIdentity, &rng),
      weight_dim(PreferenceActorCritic::kWeightDim),
      pn_out(config.pn_out) {}

double SeedModelReplica::ForwardSeedStyle(const std::vector<double>& obs) {
  Matrix x(1, obs.size());
  x.SetRow(0, obs);
  const Matrix mean =
      SeedStylePreferenceHeadForward(&actor_pn, &actor_trunk, x, weight_dim, pn_out);
  const Matrix value =
      SeedStylePreferenceHeadForward(&critic_pn, &critic_trunk, x, weight_dim, pn_out);
  return mean(0, 0) + value(0, 0);
}

InferencePathRates MeasureInferencePaths(const MoccConfig& config) {
  Rng rng(1);
  SeedModelReplica replica(config);
  PreferenceActorCritic model(config, &rng);
  std::vector<double> obs(config.ObsDim());
  Rng obs_rng(99);
  for (auto& v : obs) {
    v = obs_rng.Uniform(-1.0, 1.0);
  }

  InferencePathRates rates;
  volatile double sink = 0.0;
  rates.seed_batched_ops_per_sec =
      MeasureOpsPerSec([&] { sink = replica.ForwardSeedStyle(obs); });
  Matrix x(1, obs.size());
  Matrix mean;
  Matrix value;
  rates.batched_ops_per_sec = MeasureOpsPerSec([&] {
    x.SetRow(0, obs);
    model.Forward(x, &mean, &value);
    sink = mean(0, 0) + value(0, 0);
  });
  double m = 0.0;
  double v = 0.0;
  double m2 = 0.0;
  double v2 = 0.0;
  rates.fast_row_ops_per_sec = MeasureOpsPerSec([&] {
    model.ForwardRow(obs, &m, &v);
    sink = m + v;
  });
  std::unique_ptr<InferencePolicy> f32 = model.MakeFloat32Policy();
  rates.fast_row_f32_ops_per_sec = MeasureOpsPerSec([&] {
    f32->ForwardRow(obs, &m, &v);
    sink = m + v;
  });
  AutovecF32PolicyReplica autovec(&replica, PreferenceActorCritic::kWeightDim,
                                  config.pn_out, config.HistoryDim());
  rates.autovec_row_f32_ops_per_sec = MeasureOpsPerSec([&] {
    autovec.ForwardRow(obs, &m2, &v2);
    sink = m2 + v2;
  });
  std::unique_ptr<InferencePolicy> int8 = model.MakeInt8Policy();
  rates.int8_row_ops_per_sec = MeasureOpsPerSec([&] {
    int8->ForwardRow(obs, &m, &v);
    sink = m + v;
  });
  (void)sink;
  return rates;
}

}  // namespace mocc
