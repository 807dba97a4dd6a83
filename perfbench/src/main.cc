// mocc_perfbench — the repository benchmark: three workloads (train, evaluate,
// serve) over the library's public API, each one process on one thread.
//
//   mocc_perfbench --workload train|evaluate|serve --seed N --seconds S
//                  --trace 0|1 --work-dir DIR --model PATH
//
// --trace 0 measures the named workload untraced and prints its end-to-end
// metrics. --trace 1 is a separate invocation that traces every workload
// outside-in (spans around the calls into each layer), writes the spans to
// DIR/trace-<workload>-<seed>.jsonl and prints the per-layer metrics. Every
// run checks its outputs; the last stdout line is one JSON object
// {correct, attempted, failed, metrics}, and the exit code is non-zero when
// any check failed.
#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "src/nn/simd/dispatch.h"

namespace {

using perfbench::Options;
using perfbench::Result;

int Usage(const char* why) {
  std::fprintf(stderr,
               "mocc_perfbench: %s\nusage: mocc_perfbench --workload train|evaluate|serve "
               "--seed N --seconds S --trace 0|1 --work-dir DIR --model PATH\n",
               why);
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options->seconds > 0.0) || options->seconds > 600.0) {
        return false;
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else if (key == "--model") {
      options->model_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && !options->work_dir.empty() &&
         !options->model_path.empty() &&
         (options->workload == "train" || options->workload == "evaluate" ||
          options->workload == "serve");
}

void PrintJson(const Result& result) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed));
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    // JSON has no NaN or infinity; a non-finite value already failed its check.
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                name.c_str(), value, metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.start_ns = perfbench::NowNs();
  if (!ParseArgs(argc, argv, &options)) {
    return Usage("bad arguments");
  }
  struct stat st;
  if (stat(options.work_dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode)) {
    return Usage("--work-dir must be an existing directory");
  }
  if (access(options.model_path.c_str(), R_OK) != 0) {
    return Usage("--model is not readable");
  }

  // Run metadata, recorded with every result.
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(), static_cast<unsigned long long>(options.seed),
              options.seconds, options.trace ? 1 : 0);
  std::printf("host: nproc=%u simd_tier=%s\n", std::thread::hardware_concurrency(),
              mocc::simd::TierName(mocc::simd::ActiveTier()));
  std::printf("build: compiler=\"%s\" flags=\"%s\" MOCC_NATIVE_ARCH=%s lto=%s\n",
              PERFBENCH_COMPILER, PERFBENCH_CXX_FLAGS, PERFBENCH_NATIVE_ARCH,
              PERFBENCH_LTO);
  std::printf("threads: 1 (every timed call runs on the calling thread)\n");

  Result result;
  if (!options.trace) {
    if (options.workload == "train") {
      perfbench::RunTrain(options, &result);
    } else if (options.workload == "evaluate") {
      perfbench::RunEvaluate(options, &result);
    } else {
      perfbench::RunServe(options, &result);
    }
    result.Set("peak_rss_mb", perfbench::PeakRssMb(), "MB");
  } else {
    // One traced invocation traces all three workloads, so every traced run
    // carries every per-layer metric.
    perfbench::Tracer tracer;
    perfbench::TraceTrain(options, &tracer, &result);
    perfbench::TraceEvaluate(options, options.seconds * 0.25, &tracer, &result);
    perfbench::TraceServe(options, options.seconds * 0.25, &tracer, &result);
    const std::string path = options.work_dir + "/trace-" + options.workload + "-" +
                             std::to_string(options.seed) + ".jsonl";
    result.Check(tracer.Write(path), "trace file written to " + path);
    std::printf("trace: %zu spans written to %s\n", tracer.spans().size(), path.c_str());
  }
  for (const auto& [name, metric] : result.metrics) {
    result.Check(std::isfinite(metric.value), "metric " + name + " is finite");
  }
  std::printf("result: attempted=%lld failed=%lld correct=%s\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed), result.correct ? "true" : "false");
  std::fflush(stdout);
  PrintJson(result);
  return result.correct && result.failed == 0 ? 0 : 1;
}
