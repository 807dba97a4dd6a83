#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include <sched.h>

#include "src/core/preference_model.h"

namespace perfbench {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void Result::Fail(const std::string& what) {
  std::printf("CHECK FAILED: %s\n", what.c_str());
  correct = false;
}

bool Result::Check(bool ok, const std::string& what) {
  if (!ok) {
    Fail(what);
  }
  return ok;
}

uint64_t ModelDigest(mocc::PreferenceActorCritic* model, bool* finite) {
  uint64_t h = 0;
  *finite = true;
  for (const mocc::ParamRef& p : model->Params()) {
    for (double v : p.value->storage()) {
      h = MixDouble(h, v);
      *finite = *finite && std::isfinite(v);
    }
  }
  return h;
}

bool CheckPinnedModel(mocc::PreferenceActorCritic* model, Result* result) {
  if (!result->Check(model != nullptr, "the committed checkpoint loads")) return false;
  bool finite = false;
  const uint64_t digest = ModelDigest(model, &finite);
  std::printf("model: %zu parameters, digest %016llx\n", model->ParameterCount(),
              static_cast<unsigned long long>(digest));
  return result->Check(digest == kPinnedModelDigest && finite,
                       "the loaded model is the committed trained checkpoint");
}

void Report(const std::string& name, double value, const std::string& unit,
            const std::string& note) {
  std::printf("  %-44s %14.6g %-8s %s\n", name.c_str(), value, unit.c_str(),
              note.c_str());
}

void ReportFirstTimedCall(const Options& options, int64_t call_ns) {
  Report("first_timed_call_s", (call_ns - options.start_ns) * 1e-9, "s",
         "from entry to main, warm-up included (not declared)");
}

void RotateCpu(int k) {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) allowed.push_back(c);
      }
    }
    return allowed;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(k) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);  // best effort: noise control only
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

int32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.group = group_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int32_t id = static_cast<int32_t>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!stack_.empty() && stack_.back() == id) {
    stack_.pop_back();
  }
}

double Tracer::TotalNs(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (name == s.name) {
      total += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return total;
}

int64_t Tracer::Calls(const std::string& name) const {
  int64_t calls = 0;
  for (const Span& s : spans_) {
    calls += name == s.name ? 1 : 0;
  }
  return calls;
}

double Tracer::UnattributedShare(size_t first, const std::vector<std::string>& wrappers) const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent >= 0 && std::strncmp(s.name, "bench.", 6) != 0) {
      covered[static_cast<size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  double wall = 0.0, unattributed = 0.0;
  for (size_t i = first; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (std::find(wrappers.begin(), wrappers.end(), s.name) == wrappers.end()) continue;
    const double ns = static_cast<double>(s.end_ns - s.start_ns);
    unattributed += std::max(0.0, ns - covered[i]);
    if (wrappers.front() == s.name) wall += ns;
  }
  return wall > 0.0 ? unattributed / wall : 0.0;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"group\":%lld}\n",
                 i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.group));
  }
  for (const auto& [name, value] : counts_) {
    std::fprintf(out, "{\"count\":\"%s\",\"value\":%.17g}\n", name.c_str(), value);
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
