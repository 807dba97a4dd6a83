// Workload `serve`: one MoccServing on the deployment path, two phases.
//
// Set-up: float32, four objectives, spread arrival phases, RTT-like monitor
// intervals of 20-50 ms, and a fixed churn rate (connections detach and fresh
// ones attach every tick). kConnections keeps the slab (~400 B a connection)
// well above a 2 MiB per-core L2.
//
// Traffic: each connection's send rate and loss rate are drawn from the
// Table-3 training row (1-5 Mbps, 0-3% loss), the link range the committed
// checkpoint was trained on. The reported phase uses the rate as the level of
// its MI reports, the selftimed phase as its packet rate.
//
// Clock: a 1 ms service tick on a virtual clock. Ticks run back to back (a
// closed loop over ticks, one datapath thread) and every tick's inputs come
// from the seeded schedule, never from the wall clock, so host stalls cannot
// change the work — they only show up in that tick's latency.
//
//   reported   externally clocked connections: each due MI report enters
//              through PostReport, then RatePoll() decides.
//   selftimed  self-timed connections: OnPacketSent, then OnAck or OnLoss,
//              for every packet at the connection's packet rate, then
//              RatePoll(now) expires the due intervals and decides.
//
// A tick's latency is the wall time of its serving calls (churn, feedback or
// reports, the poll, and reading the new rates); generating the inputs and
// checking the outputs happen outside it.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "src/baselines/rl_cc.h"
#include "src/core/mocc_api.h"
#include "src/core/policy_spec.h"
#include "src/core/preference_model.h"
#include "src/netsim/link_params.h"

namespace perfbench {
namespace {

using namespace mocc;

constexpr int kConnections = 16384;
constexpr double kTickS = 0.001;
constexpr int kSetups = 5;           // timed set-ups per phase; the last one serves
constexpr int kWarmupTicks = 100;
constexpr int kChurnPerTick = 2;
constexpr int kDigestTicks = 500;
constexpr int kBlockTicks = 1000;     // job_s: one virtual second per phase
constexpr uint64_t kReplayEvery = 997;  // connections replayed per-flow: serial % this == 0
constexpr int kWheel = 64;            // > the longest MI in ticks
constexpr double kInitialRateBps = 2e6;

const WeightVector kObjectives[] = {{0.8, 0.1, 0.1},
                                    {1.0 / 3, 1.0 / 3, 1.0 / 3},
                                    {0.1, 0.8, 0.1},
                                    {0.1, 0.1, 0.8}};

struct Conn {
  ServingConnId id;
  uint64_t serial = 0;
  int objective = 0;
  int mi_ticks = 0;
  int64_t next_due = 0;      // tick of the next report (reported) or deadline
  double rtt_s = 0.0;
  double level_bps = 0.0;    // send rate: report level or packet rate
  double loss_rate = 0.0;
  int64_t reports = 0;
  double start_time_s = 0.0;
  // Per-flow replay of sampled connections (null = not sampled).
  std::unique_ptr<RlRateController> replay;
  int64_t mi_sent = 0, mi_acked = 0, mi_lost = 0;
  double mi_rtt_sum_s = 0.0, min_rtt_s = 0.0, mi_start_s = 0.0;
};

struct PhaseStats {
  std::vector<double> tick_us;
  std::vector<double> decisions_per_tick;
  int64_t decisions = 0, due = 0, failed_posts = 0, feedback_calls = 0, posts = 0;
  int64_t churn_calls = 0, polls = 0, replayed = 0, replay_mismatch = 0, bad_rates = 0;
  uint64_t digest = 0;
  double setup_s = 0.0;
};

class ServeSim {
 public:
  ServeSim(const Options& options, bool selftimed)
      : options_(options), selftimed_(selftimed),
        seed_(SplitMix(options.seed * 2654435761ULL + (selftimed ? 1 : 0))) {}

  // The timed set-up — checkpoint load, CreateService and kConnections
  // attaches — then the untimed warm-up ticks. Returns false when the service
  // cannot be built.
  bool Setup(PhaseStats* stats) {
    int64_t start = NowNs();
    spec_ = PolicySpec();
    spec_.WithCheckpoint(options_.model_path)
        .WithPrecision(Precision::kFloat32)
        .WithInitialRate(kInitialRateBps);
    service_ = CreateService(spec_);
    int64_t setup_ns = NowNs() - start;
    if (service_ == nullptr) return false;
    conns_.clear();
    conns_.resize(kConnections);
    pacing_.assign(kConnections, Pacing{});
    wheel_.assign(kWheel, {});
    tick_ = 0;
    next_serial_ = 0;
    for (int i = 0; i < kConnections; ++i) Draw(i, tick_);
    start = NowNs();
    for (int i = 0; i < kConnections; ++i) conns_[static_cast<size_t>(i)].id = AttachService(i);
    setup_ns += NowNs() - start;
    stats->setup_s = setup_ns * 1e-9;
    PhaseStats warm;
    for (int t = 0; t < kWarmupTicks; ++t) Tick(nullptr, &warm);
    base_hist_ = service_->stats().batch_size_log2_hist;
    base_pn_ = service_->PnRecomputeCount();
    base_dropped_ = service_->stats().ring_dropped;
    return true;
  }

  PreferenceActorCritic* model() const { return spec_.ResolveModel().get(); }

  // One service tick: inputs from the schedule, then the timed serving calls,
  // then the output checks.
  void Tick(Tracer* tracer, PhaseStats* stats) {
    ++tick_;
    const double now_s = static_cast<double>(tick_) * kTickS;
    if (tracer != nullptr) tracer->SetGroup(tick_);
    int32_t span = tracer != nullptr ? tracer->Begin("bench.inputs") : -1;
    PrepareInputs(now_s);
    if (tracer != nullptr) tracer->End(span);

    const int64_t t0 = NowNs();
    const int32_t tick_span = tracer != nullptr ? tracer->Begin("serve.tick") : -1;
    {
      ScopedSpan churn(tracer, "serving.churn");
      for (size_t k = 0; k < churn_.size(); ++k) {
        service_->DetachConnection(churned_ids_[k]);
        conns_[static_cast<size_t>(churn_[k])].id = AttachService(churn_[k]);
      }
    }
    size_t decided = 0;
    if (selftimed_) {
      {
        ScopedSpan feedback(tracer, "serving.feedback");
        for (const Feedback& f : feedback_) {
          const ServingConnId id = conns_[static_cast<size_t>(f.index)].id;
          if (f.lost) {
            service_->OnPacketSent(id);
            service_->OnLoss(id, LossInfo{now_s, 0});
          } else {
            service_->OnPacketSent(id);
            service_->OnAck(id, f.ack);
          }
        }
      }
      ScopedSpan poll(tracer, "serving.poll");
      decided = service_->RatePoll(now_s);
    } else {
      {
        ScopedSpan post(tracer, "serving.post");
        for (const Post& p : posts_) {
          post_ok_.push_back(service_->PostReport(conns_[static_cast<size_t>(p.index)].id,
                                                  p.report) ? 1 : 0);
        }
      }
      ScopedSpan poll(tracer, "serving.poll");
      decided = service_->RatePoll();
    }
    {
      ScopedSpan read(tracer, "serving.read");
      for (int index : due_) {
        rates_.push_back(service_->RateBps(conns_[static_cast<size_t>(index)].id));
      }
    }
    if (tracer != nullptr) tracer->End(tick_span);
    const int64_t t1 = NowNs();

    span = tracer != nullptr ? tracer->Begin("bench.checks") : -1;
    stats->tick_us.push_back((t1 - t0) * 1e-3);
    stats->decisions_per_tick.push_back(static_cast<double>(decided));
    stats->decisions += static_cast<int64_t>(decided);
    stats->due += static_cast<int64_t>(due_.size());
    stats->feedback_calls += 2 * static_cast<int64_t>(feedback_.size());
    stats->posts += static_cast<int64_t>(posts_.size());
    stats->churn_calls += 2 * static_cast<int64_t>(churn_.size());
    ++stats->polls;
    for (char ok : post_ok_) stats->failed_posts += ok ? 0 : 1;
    CheckRates(stats);
    if (tracer != nullptr) tracer->End(span);
  }

  int64_t batches_since_setup() const {
    int64_t n = 0;
    const auto& hist = service_->stats().batch_size_log2_hist;
    for (size_t i = 0; i < hist.size(); ++i) n += hist[i] - base_hist_[i];
    return n;
  }
  int64_t pn_since_setup() const { return service_->PnRecomputeCount() - base_pn_; }
  int64_t dropped_since_setup() const { return service_->stats().ring_dropped - base_dropped_; }
  int64_t measured_ticks() const { return tick_ - kWarmupTicks; }

 private:
  struct Feedback {
    int index;
    bool lost;
    AckInfo ack;
  };
  struct Post {
    int index;
    MonitorReport report;
  };

  // Draws a fresh connection into slot `index` (not yet attached).
  void Draw(int index, int64_t tick) {
    Conn& c = conns_[static_cast<size_t>(index)];
    c = Conn();
    c.serial = next_serial_++;
    const uint64_t key = SplitMix(seed_ ^ (c.serial * 0x9e3779b97f4a7c15ULL));
    c.objective = static_cast<int>(c.serial % 4);
    c.rtt_s = 0.020 + 0.030 * Unit(key + 1);
    c.mi_ticks = static_cast<int>(std::lround(c.rtt_s / kTickS));
    const int phase = static_cast<int>(Unit(key + 2) * c.mi_ticks);
    c.next_due = tick + phase + c.mi_ticks;
    c.start_time_s = static_cast<double>(tick + phase) * kTickS;
    c.mi_start_s = c.start_time_s;
    const LinkParamsRange row = TrainingRange();
    c.level_bps = row.min_bandwidth_bps +
                  (row.max_bandwidth_bps - row.min_bandwidth_bps) * Unit(key + 3);
    c.loss_rate = row.min_loss_rate + (row.max_loss_rate - row.min_loss_rate) * Unit(key + 4);
    pacing_[static_cast<size_t>(index)] = {
        static_cast<float>(c.level_bps / kDefaultPacketSizeBits * kTickS), 0.0f};
    if (c.serial % kReplayEvery == 0) {
      c.replay = spec_.MakeController(kObjectives[c.objective], kInitialRateBps);
    }
    wheel_[static_cast<size_t>(c.next_due % kWheel)].push_back({index, c.serial});
  }

  ServingConnId AttachService(int index) {
    const Conn& c = conns_[static_cast<size_t>(index)];
    MoccServing::ConnectionOptions options;
    options.initial_rate_bps = kInitialRateBps;
    if (selftimed_) {
      options.mi_duration_s = c.mi_ticks * kTickS;
      options.start_time_s = c.start_time_s;
    }
    return service_->AttachConnection(kObjectives[c.objective], options);
  }

  // The schedule's inputs for tick_: churn victims, due connections, and the
  // reports (reported) or packet events (selftimed).
  void PrepareInputs(double now_s) {
    churn_.clear();
    due_.clear();
    posts_.clear();
    feedback_.clear();
    post_ok_.clear();
    rates_.clear();
    churned_ids_.clear();
    // Churned slots get a fresh connection (attached in the timed churn; its
    // first interval ends at least 20 ticks later). The old connection's
    // wheel entries are skipped by serial below.
    const uint64_t first = SplitMix(seed_ + static_cast<uint64_t>(tick_) * 131);
    for (int k = 0; k < kChurnPerTick; ++k) {
      const int index = static_cast<int>((first + static_cast<uint64_t>(k)) % kConnections);
      churn_.push_back(index);
      churned_ids_.push_back(conns_[static_cast<size_t>(index)].id);
      Draw(index, tick_);
    }
    std::vector<Wheel>& bucket = wheel_[static_cast<size_t>(tick_ % kWheel)];
    std::vector<Wheel> keep;
    for (const Wheel& w : bucket) {
      Conn& c = conns_[static_cast<size_t>(w.index)];
      if (c.serial != w.serial) continue;
      if (c.next_due != tick_) {
        keep.push_back(w);
        continue;
      }
      due_.push_back(w.index);
    }
    bucket.swap(keep);
    if (selftimed_) {
      // Packet pacing lives in a compact array so generating the inputs does
      // not sweep the service's state out of cache.
      for (int i = 0; i < kConnections; ++i) {
        Pacing& pace = pacing_[static_cast<size_t>(i)];
        pace.credit += pace.pkts_per_tick;
        const int n = static_cast<int>(pace.credit);
        if (n == 0) continue;
        pace.credit -= static_cast<float>(n);
        Conn& c = conns_[static_cast<size_t>(i)];
        for (int p = 0; p < n; ++p) {
          const uint64_t key = SplitMix(c.serial * 1315423911ULL +
                                        static_cast<uint64_t>(tick_) * 64 +
                                        static_cast<uint64_t>(p));
          Feedback f;
          f.index = i;
          f.lost = static_cast<double>(key & 0xffff) < c.loss_rate * 65536.0;  // low bits
          f.ack.ack_time_s = now_s;
          f.ack.send_time_s = now_s - c.rtt_s;
          f.ack.rtt_s = c.rtt_s * (1.0 + 0.25 * Unit(key));
          f.ack.size_bits = kDefaultPacketSizeBits;
          feedback_.push_back(f);
          if (c.replay != nullptr) {
            ++c.mi_sent;
            if (f.lost) {
              ++c.mi_lost;
            } else {
              ++c.mi_acked;
              c.mi_rtt_sum_s += f.ack.rtt_s;
              if (f.ack.rtt_s > 0.0 && (c.min_rtt_s <= 0.0 || f.ack.rtt_s < c.min_rtt_s)) {
                c.min_rtt_s = f.ack.rtt_s;
              }
            }
          }
        }
      }
    } else {
      for (int index : due_) {
        Conn& c = conns_[static_cast<size_t>(index)];
        const uint64_t key = SplitMix(c.serial * 2246822519ULL + static_cast<uint64_t>(c.reports));
        Post p;
        p.index = index;
        MonitorReport& r = p.report;
        r.start_time_s = now_s - c.mi_ticks * kTickS;
        r.duration_s = c.mi_ticks * kTickS;
        r.send_rate_bps = c.level_bps * (0.85 + 0.3 * Unit(key + 1));
        r.packets_sent = std::max<int64_t>(
            1, std::llround(r.send_rate_bps * r.duration_s / kDefaultPacketSizeBits));
        for (int64_t k = 0; k < r.packets_sent; ++k) {
          r.packets_lost += Unit(key + 5 + static_cast<uint64_t>(k)) < c.loss_rate ? 1 : 0;
        }
        r.packets_acked = r.packets_sent - r.packets_lost;
        r.throughput_bps = r.send_rate_bps * static_cast<double>(r.packets_acked) /
                           static_cast<double>(r.packets_sent);
        r.avg_rtt_s = c.rtt_s * (1.0 + 0.3 * Unit(key + 4));
        r.min_rtt_s = c.rtt_s;
        r.loss_rate = static_cast<double>(r.packets_lost) / static_cast<double>(r.packets_sent);
        posts_.push_back(p);
      }
    }
    for (int index : due_) {
      Conn& c = conns_[static_cast<size_t>(index)];
      ++c.reports;
      c.next_due += c.mi_ticks;
      wheel_[static_cast<size_t>(c.next_due % kWheel)].push_back({index, c.serial});
    }
  }

  // Every new rate is finite and inside the spec's bounds; sampled connections
  // decide bit-identically through a per-flow PolicySpec::MakeController.
  void CheckRates(PhaseStats* stats) {
    for (size_t k = 0; k < due_.size(); ++k) {
      const double rate = rates_[k];
      if (!std::isfinite(rate) || rate < spec_.min_rate_bps() || rate > spec_.max_rate_bps()) {
        ++stats->bad_rates;
      }
      if (measured_ticks() > 0 && measured_ticks() <= kDigestTicks) {
        stats->digest = MixDouble(stats->digest, rate);
      }
      Conn& c = conns_[static_cast<size_t>(due_[k])];
      if (c.replay == nullptr) continue;
      MonitorReport report;
      if (selftimed_) {
        const double duration_s = c.mi_ticks * kTickS;
        report.start_time_s = c.mi_start_s;
        report.duration_s = duration_s;
        report.packets_sent = c.mi_sent;
        report.packets_acked = c.mi_acked;
        report.packets_lost = c.mi_lost;
        report.send_rate_bps =
            static_cast<double>(c.mi_sent * kDefaultPacketSizeBits) / duration_s;
        report.throughput_bps =
            static_cast<double>(c.mi_acked * kDefaultPacketSizeBits) / duration_s;
        report.avg_rtt_s =
            c.mi_acked > 0 ? c.mi_rtt_sum_s / static_cast<double>(c.mi_acked) : 0.0;
        report.min_rtt_s = c.min_rtt_s;
        const int64_t acked_lost = c.mi_acked + c.mi_lost;
        report.loss_rate = acked_lost > 0 ? static_cast<double>(c.mi_lost) /
                                                static_cast<double>(acked_lost)
                                          : 0.0;
        c.mi_sent = c.mi_acked = c.mi_lost = 0;
        c.mi_rtt_sum_s = 0.0;
        c.mi_start_s = static_cast<double>(tick_) * kTickS;
      } else {
        report = posts_[k].report;
      }
      c.replay->OnMonitorInterval(report);
      ++stats->replayed;
      if (c.replay->PacingRateBps() != rate) ++stats->replay_mismatch;
    }
  }

  struct Wheel {
    int index;
    uint64_t serial;
  };

  const Options& options_;
  bool selftimed_;
  uint64_t seed_;
  PolicySpec spec_;
  std::unique_ptr<MoccServing> service_;
  struct Pacing {
    float pkts_per_tick = 0.0f;
    float credit = 0.0f;
  };
  std::vector<Conn> conns_;
  std::vector<Pacing> pacing_;
  std::vector<std::vector<Wheel>> wheel_;
  int64_t tick_ = 0;
  uint64_t next_serial_ = 0;
  std::vector<int> churn_, due_;
  std::vector<ServingConnId> churned_ids_;
  std::vector<Post> posts_;
  std::vector<Feedback> feedback_;
  std::vector<char> post_ok_;
  std::vector<double> rates_;
  std::array<int64_t, 16> base_hist_{};
  int64_t base_pn_ = 0, base_dropped_ = 0;
};

const char* PhaseName(bool selftimed) { return selftimed ? "selftimed" : "reported"; }

// Decisions made must equal decisions due, minus counted failures.
void CheckPhase(bool selftimed, ServeSim* sim, const PhaseStats& s, Result* result) {
  const std::string name = PhaseName(selftimed);
  const int64_t dropped = sim->dropped_since_setup();
  result->attempted += s.due;
  result->failed += s.failed_posts + dropped;
  result->Check(s.decisions == s.due - s.failed_posts - dropped,
                name + ": decisions made equal decisions due minus failures (" +
                    std::to_string(s.decisions) + " vs " + std::to_string(s.due) + ")");
  result->Check(s.bad_rates == 0, name + ": every rate is finite and inside the spec's bounds");
  result->Check(s.replayed > 0 && s.replay_mismatch == 0,
                name + ": sampled connections decide bit-identically per-flow (" +
                    std::to_string(s.replayed) + " decisions replayed)");
}

// Per-block figures: blocks of kBlockTicks ticks (one virtual second).
struct BlockFigures {
  std::vector<double> seconds, rate, p50_us, p99_us;
};

BlockFigures Blocks(const PhaseStats& s) {
  BlockFigures f;
  for (size_t b = 0; b + kBlockTicks <= s.tick_us.size(); b += kBlockTicks) {
    const std::vector<double> ticks(s.tick_us.begin() + static_cast<long>(b),
                                    s.tick_us.begin() + static_cast<long>(b + kBlockTicks));
    double us = 0.0, decisions = 0.0;
    for (size_t i = b; i < b + kBlockTicks; ++i) {
      us += s.tick_us[i];
      decisions += s.decisions_per_tick[i];
    }
    f.seconds.push_back(us * 1e-6);
    f.rate.push_back(decisions / (us * 1e-6));
    f.p50_us.push_back(Percentile(ticks, 0.5));
    f.p99_us.push_back(Percentile(ticks, 0.99));
  }
  return f;
}

}  // namespace

void RunServe(const Options& options, Result* result) {
  std::printf("serve: %d connections, float32, 4 objectives, MIs 20-50 ms, 1-5 Mbps and "
              "0-3%% loss per connection, churn %d attach+detach per 1 ms tick, virtual "
              "clock; the two phases alternate in blocks of %d ticks\n",
              kConnections, kChurnPerTick, kBlockTicks);
  std::vector<double> setup;
  ServeSim sims[2] = {ServeSim(options, false), ServeSim(options, true)};
  PhaseStats stats[2];
  for (int phase = 0; phase < 2; ++phase) {
    for (int i = 0; i < kSetups; ++i) {
      if (!result->Check(sims[phase].Setup(&stats[phase]), "service builds from the checkpoint")) {
        return;
      }
      setup.push_back(stats[phase].setup_s);
    }
    if (!CheckPinnedModel(sims[phase].model(), result)) return;
  }
  // Alternate one-second blocks of the two phases, so both see the same mix
  // of host conditions; every figure is a median over blocks.
  const int64_t start = NowNs();
  ReportFirstTimedCall(options, start);
  for (int block = 0;
       stats[1].tick_us.size() < 2 * kBlockTicks || SecondsSince(start) < options.seconds;
       ++block) {
    RotateCpu(block);
    for (int phase = 0; phase < 2; ++phase) {
      for (int t = 0; t < kBlockTicks; ++t) sims[phase].Tick(nullptr, &stats[phase]);
    }
  }
  double job_s = 0.0;
  for (int phase = 0; phase < 2; ++phase) {
    const bool selftimed = phase == 1;
    const PhaseStats& st = stats[phase];
    CheckPhase(selftimed, &sims[phase], st, result);
    const std::string name = PhaseName(selftimed);
    const BlockFigures f = Blocks(st);
    const std::string n = "median over " + std::to_string(f.rate.size()) + " blocks of " +
                          std::to_string(kBlockTicks) + " ticks";
    std::printf("serve %s: %lld decisions over %zu ticks, rate digest %016llx\n", name.c_str(),
                static_cast<long long>(st.decisions), st.tick_us.size(),
                static_cast<unsigned long long>(st.digest));
    Report("serve_" + name + "_decisions_per_s", Median(f.rate), "1/s", n);
    Report("serve_" + name + "_tick_p50_us", Median(f.p50_us), "us", n);
    Report("serve_" + name + "_tick_p99_us", Median(f.p99_us), "us", n);
    const int64_t late = std::count_if(st.tick_us.begin(), st.tick_us.end(),
                                       [](double us) { return us > 1000.0; });
    std::printf("serve %s: %lld of %zu ticks over the 1000 us latency limit\n", name.c_str(),
                static_cast<long long>(late), st.tick_us.size());
    const std::string stage = selftimed ? "stage2" : "stage1";
    result->Set(stage + "_per_s", Median(f.rate), "1/s");
    result->Set(stage + "_p99_us", Median(f.p99_us), "us");
    job_s += Median(f.seconds);
  }
  result->Set("setup_s", Median(setup), "s");
  result->Set("job_s", job_s, "s");
}

void TraceServe(const Options& options, double seconds, Tracer* tracer, Result* result) {
  double untraced_s = 0.0, traced_s = 0.0;
  // The serve workload's wall time is its ticks' serving calls, as in the
  // untraced run: the bench.inputs and bench.checks spans between ticks lie
  // outside it.
  const size_t first_span = tracer->spans().size();
  for (int phase = 0; phase < 2; ++phase) {
    const bool selftimed = phase == 1;
    const std::string name = PhaseName(selftimed);
    // Untraced reference, then the same ticks traced on a fresh service.
    ServeSim reference(options, selftimed);
    PhaseStats ref;
    if (!result->Check(reference.Setup(&ref), "service builds from the checkpoint") ||
        !CheckPinnedModel(reference.model(), result)) {
      return;
    }
    const int64_t start = NowNs();
    while (reference.measured_ticks() < kBlockTicks || SecondsSince(start) < seconds / 4.0) {
      reference.Tick(nullptr, &ref);
    }
    const int64_t ticks = reference.measured_ticks();
    for (double us : ref.tick_us) untraced_s += us * 1e-6;

    ServeSim sim(options, selftimed);
    PhaseStats stats;
    if (!result->Check(sim.Setup(&stats), "service builds from the checkpoint")) return;
    const size_t phase_span = tracer->spans().size();
    while (sim.measured_ticks() < ticks) sim.Tick(tracer, &stats);
    CheckPhase(selftimed, &sim, stats, result);
    for (double us : stats.tick_us) traced_s += us * 1e-6;
    result->Check(stats.digest == ref.digest, name + ": traced run decides like the untraced run");

    double post_ns = 0.0, feedback_ns = 0.0, poll_ns = 0.0, churn_ns = 0.0, tick_ns = 0.0;
    for (size_t i = phase_span; i < tracer->spans().size(); ++i) {
      const Span& s = tracer->spans()[i];
      const double ns = static_cast<double>(s.end_ns - s.start_ns);
      const std::string span_name = s.name;
      if (span_name == "serving.post") post_ns += ns;
      if (span_name == "serving.feedback") feedback_ns += ns;
      if (span_name == "serving.poll") poll_ns += ns;
      if (span_name == "serving.churn") churn_ns += ns;
      if (span_name == "serve.tick") tick_ns += ns;
    }
    const std::string p = "serving." + name + ".";
    tracer->Count(p + "ticks", static_cast<double>(stats.tick_us.size()));
    tracer->Count(p + "decisions", static_cast<double>(stats.decisions));
    tracer->Count(p + "feedback_calls", static_cast<double>(stats.feedback_calls));
    tracer->Count(p + "posts", static_cast<double>(stats.posts));
    tracer->Count(p + "churn_calls", static_cast<double>(stats.churn_calls));
    tracer->Count(p + "batches", static_cast<double>(sim.batches_since_setup()));
    tracer->Count(p + "pn_recomputes", static_cast<double>(sim.pn_since_setup()));
    if (selftimed) {
      result->Set(p + "feedback_ns", feedback_ns / std::max<int64_t>(1, stats.feedback_calls),
                  "ns");
      result->Set(p + "feedback_share_pct", feedback_ns / tick_ns * 100.0, "%");
    } else {
      result->Set(p + "post_ns", post_ns / std::max<int64_t>(1, stats.posts), "ns");
    }
    result->Set(p + "poll_ns_per_decision", poll_ns / std::max<int64_t>(1, stats.decisions),
                "ns");
    result->Set(p + "batch_rows_mean",
                static_cast<double>(stats.decisions) /
                    static_cast<double>(std::max<int64_t>(1, sim.batches_since_setup())),
                "rows");
    result->Set(p + "pn_recomputes_per_poll",
                static_cast<double>(sim.pn_since_setup()) /
                    static_cast<double>(std::max<int64_t>(1, stats.polls)),
                "count");
    result->Set(p + "decisions_per_tick_p99", Percentile(stats.decisions_per_tick, 0.99),
                "count");
    result->Set(p + "attach_us", churn_ns * 1e-3 / std::max<int64_t>(1, stats.churn_calls),
                "us");
  }
  const double unattributed = tracer->UnattributedShare(first_span, {"serve.tick"});
  result->Set("trace.serve.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0, "%");
  result->Set("trace.serve.unattributed_pct", unattributed * 100.0, "%");
  result->Check(unattributed <= 0.10, "named spans cover >= 90% of the traced serve phases");
}

}  // namespace perfbench
