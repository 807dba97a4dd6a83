// Shared pieces of the repository benchmark: run options, clocks, order
// statistics, digests, the result record every workload fills, and the span
// tracer used by traced runs.
#ifndef MOCC_PERFBENCH_SRC_COMMON_H_
#define MOCC_PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace mocc {
class PreferenceActorCritic;
}

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;    // checkpoints and the trace file go here
  std::string model_path;  // the committed trained checkpoint
  int64_t start_ns = 0;    // NowNs() on entry to main
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) * 1e-9; }

// Nearest-rank percentile (q in [0, 1]) of an unsorted sample; 0 when empty.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Order-sensitive 64-bit digest; doubles enter by bit pattern.
inline uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}
inline uint64_t MixDouble(uint64_t h, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return Mix(h, bits);
}

// splitmix64: stateless per-key draws for the generated traffic schedules.
inline uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
inline double Unit(uint64_t key) {  // uniform in [0, 1)
  return static_cast<double>(SplitMix(key) >> 11) * (1.0 / 9007199254740992.0);
}

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one invocation reports; `metrics` become the JSON result line.
struct Result {
  int64_t attempted = 0;
  int64_t failed = 0;
  bool correct = true;
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed output check: prints it and marks the run incorrect.
  void Fail(const std::string& what);
  // Checks `ok`; on failure records `what`. Returns ok.
  bool Check(bool ok, const std::string& what);
};

// Digest of a model's parameters (doubles by bit pattern); *finite tells
// whether every weight is finite.
uint64_t ModelDigest(mocc::PreferenceActorCritic* model, bool* finite);

// The committed checkpoint (perfbench/model/) is pinned by its digest:
// evaluate and serve time only the trained policy they were calibrated on,
// never untrained weights or another checkpoint.
constexpr uint64_t kPinnedModelDigest = 0x3a887800b2fbf136ULL;
bool CheckPinnedModel(mocc::PreferenceActorCritic* model, Result* result);

// Prints one "name = value unit" report line (to stdout, before the JSON).
void Report(const std::string& name, double value, const std::string& unit,
            const std::string& note = "");

// Reports the time from entry to main to the first timed call, made at
// `call_ns`: everything a run does before it measures, warm-up included.
// Information only; the declared setup_s is the median of several set-ups
// without warm-up.
void ReportFirstTimedCall(const Options& options, int64_t call_ns);

// Peak resident set size of this process (VmHWM), in MB.
double PeakRssMb();

// Moves the calling thread to the k-th CPU (modulo their number) of the set
// the process was started with. Timed work rotates over the host's CPUs
// block by block, so one busy core cannot set a whole run's figures; the
// work itself stays on one thread.
void RotateCpu(int k);

// --- Tracing ---------------------------------------------------------------
// Spans record name, start, end, parent and a group id shared by the spans of
// one iteration, env step or service tick. They stay in memory and are written
// as JSON lines at exit. With tracing off, Begin/End are never called: the
// untraced paths take no span at all.
struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  int64_t group = 0;
};

class Tracer {
 public:
  int32_t Begin(const char* name);
  void End(int32_t id);
  void SetGroup(int64_t group) { group_ = group; }
  // Counts recorded at the span boundaries (packets, samples, decisions, ...),
  // written with the spans.
  void Count(const std::string& name, double amount) { counts_[name] += amount; }

  const std::vector<Span>& spans() const { return spans_; }
  // Sum of durations (ns) and number of spans named `name`.
  double TotalNs(const std::string& name) const;
  int64_t Calls(const std::string& name) const;
  // Share (0..1) of the traced wall time that no layer span names. The wall
  // time is the total duration of the spans begun at or after `first` that
  // are named wrappers[0]; the unattributed part is the self time (duration
  // minus what direct children cover) of every span named in `wrappers` —
  // those only group calls (a run, a fleet call, an iteration, a tick), so
  // their self time is work outside the layer spans. Spans named bench.* are
  // the benchmark's own work and cover nothing.
  double UnattributedShare(size_t first, const std::vector<std::string>& wrappers) const;
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  std::map<std::string, double> counts_;
  int64_t group_ = 0;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer != nullptr ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

// --- Workloads -------------------------------------------------------------
// Untraced runs fill the end-to-end metrics; traced runs (which trace every
// workload, so each traced invocation carries every per-layer metric) fill
// the per-layer metrics from `tracer`. TraceTrain always runs one real
// training and two twins; the others spend about `seconds`.
void RunTrain(const Options& options, Result* result);
void RunEvaluate(const Options& options, Result* result);
void RunServe(const Options& options, Result* result);
void TraceTrain(const Options& options, Tracer* tracer, Result* result);
void TraceEvaluate(const Options& options, double seconds, Tracer* tracer,
                   Result* result);
void TraceServe(const Options& options, double seconds, Tracer* tracer, Result* result);

}  // namespace perfbench

#endif  // MOCC_PERFBENCH_SRC_COMMON_H_
