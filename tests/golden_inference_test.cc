// Golden-file regression test for deployment inference.
//
// tests/data/ holds a small fixed-seed Figure-3 model (golden_model.bin, the
// standard MOCCMODL container) plus the expected ForwardRow outputs of both
// precision paths on a fixed observation set (golden_forward.txt, hex floats).
// Future kernel refactors — retiling RowMatVecBias, a new FastTanh polynomial,
// SIMD intrinsics — are diffable against these committed values: a change that
// moves outputs past the tolerances below is a behavioural change, not a
// refactor, and must regenerate the goldens deliberately.
//
// Tolerances, not bit-equality: CI builds this suite with gcc, clang and
// ASan/UBSan at -DMOCC_NATIVE_ARCH=OFF while developers run -march=native, so
// FMA contraction legitimately differs between binaries. The double path is
// allowed 1e-9 absolute drift (vs ~1e-13 expected from contraction alone), the
// float32 path 1e-4 (vs ~1e-5 expected); both margins are far below any
// control-relevant difference and far above compiler noise.
//
// Regenerate with: MOCC_REGEN_GOLDENS=1 ./golden_inference_test
// (writes into the source tree's tests/data/; commit the result).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/mocc_config.h"
#include "src/core/preference_model.h"
#include "src/rl/inference_policy.h"

#ifndef MOCC_TEST_DATA_DIR
#define MOCC_TEST_DATA_DIR "tests/data"
#endif

namespace mocc {
namespace {

constexpr uint64_t kModelSeed = 20260731;
constexpr uint64_t kObsSeed = 123;
constexpr int kNumObservations = 16;
constexpr double kDoubleTol = 1e-9;
constexpr double kFloat32Tol = 1e-4;
// The int8 path is exact integer arithmetic plus a fixed sequence of explicit
// std::fma / correctly rounded single ops (see src/nn/simd/dispatch.h), so the
// committed values reproduce bit-for-bit on every tier of one binary —
// including under MOCC_FORCE_SCALAR=1, which is how CI proves the scalar
// fallback computes the SAME quantized network. The tolerance only covers
// cross-compiler libm drift in the float head layer.
constexpr double kInt8Tol = 1e-6;
// How far quantization itself may move the action mean / value vs the double
// reference on these synthetic rows. Matches the trained-checkpoint drift caps
// in rl_test.cc.
constexpr double kInt8VsDoubleTol = 1e-1;

std::string DataPath(const std::string& file) {
  return std::string(MOCC_TEST_DATA_DIR) + "/" + file;
}

// The fixed observation set: a spread of weight vectors (normalized prefix) over
// histories drawn uniform in [-1, 1]. Deterministic given kObsSeed.
std::vector<std::vector<double>> GoldenObservations(const MoccConfig& config) {
  Rng rng(kObsSeed);
  std::vector<std::vector<double>> observations;
  for (int i = 0; i < kNumObservations; ++i) {
    std::vector<double> obs(config.ObsDim());
    const double thr = rng.Uniform(0.0, 1.0);
    const double lat = rng.Uniform(0.0, 1.0 - thr);
    obs[0] = thr;
    obs[1] = lat;
    obs[2] = 1.0 - thr - lat;
    for (size_t c = 3; c < obs.size(); ++c) {
      obs[c] = rng.Uniform(-1.0, 1.0);
    }
    observations.push_back(std::move(obs));
  }
  return observations;
}

struct GoldenRow {
  double mean_d, value_d, mean_f, value_f;
};

std::vector<GoldenRow> ComputeRows(PreferenceActorCritic* model) {
  std::unique_ptr<InferencePolicy> policy = model->MakeFloat32Policy();
  std::vector<GoldenRow> rows;
  for (const auto& obs : GoldenObservations(model->config())) {
    GoldenRow row;
    model->ForwardRow(obs, &row.mean_d, &row.value_d);
    policy->ForwardRow(obs, &row.mean_f, &row.value_f);
    rows.push_back(row);
  }
  return rows;
}

bool WriteGoldenOutputs(const std::string& path, const std::vector<GoldenRow>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# ForwardRow goldens: index mean_double value_double mean_f32 "
                  "value_f32 (hex floats)\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%zu %a %a %a %a\n", i, rows[i].mean_d, rows[i].value_d,
                 rows[i].mean_f, rows[i].value_f);
  }
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

bool ReadGoldenOutputs(const std::string& path, std::vector<GoldenRow>* rows) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  char header[256];
  if (std::fgets(header, sizeof(header), f) == nullptr) {
    std::fclose(f);
    return false;
  }
  rows->clear();
  size_t index = 0;
  GoldenRow row;
  while (std::fscanf(f, "%zu %la %la %la %la", &index, &row.mean_d, &row.value_d,
                     &row.mean_f, &row.value_f) == 5) {
    rows->push_back(row);
  }
  std::fclose(f);
  return !rows->empty();
}

// The int8 rows are kept in a separate file (golden_forward_int8.txt) so the
// float goldens stay byte-stable across quantization-scheme revisions.
struct Int8Row {
  double mean_q, value_q;
};

std::vector<Int8Row> ComputeInt8Rows(PreferenceActorCritic* model) {
  std::unique_ptr<InferencePolicy> policy = model->MakeInt8Policy();
  std::vector<Int8Row> rows;
  if (policy == nullptr) {
    return rows;
  }
  for (const auto& obs : GoldenObservations(model->config())) {
    Int8Row row;
    policy->ForwardRow(obs, &row.mean_q, &row.value_q);
    rows.push_back(row);
  }
  return rows;
}

bool WriteInt8Outputs(const std::string& path, const std::vector<Int8Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "# Int8 ForwardRow goldens: index mean_int8 value_int8 "
                  "(hex floats)\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%zu %a %a\n", i, rows[i].mean_q, rows[i].value_q);
  }
  const bool ok = std::fflush(f) == 0;
  std::fclose(f);
  return ok;
}

bool ReadInt8Outputs(const std::string& path, std::vector<Int8Row>* rows) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return false;
  }
  char header[256];
  if (std::fgets(header, sizeof(header), f) == nullptr) {
    std::fclose(f);
    return false;
  }
  rows->clear();
  size_t index = 0;
  Int8Row row;
  while (std::fscanf(f, "%zu %la %la", &index, &row.mean_q, &row.value_q) == 3) {
    rows->push_back(row);
  }
  std::fclose(f);
  return !rows->empty();
}

TEST(GoldenInferenceTest, ForwardRowMatchesCommittedGoldens) {
  MoccConfig config;
  const std::string model_path = DataPath("golden_model.bin");
  const std::string outputs_path = DataPath("golden_forward.txt");

  if (std::getenv("MOCC_REGEN_GOLDENS") != nullptr) {
    Rng rng(kModelSeed);
    PreferenceActorCritic model(config, &rng);
    ASSERT_TRUE(model.SaveToFile(model_path)) << model_path;
    ASSERT_TRUE(WriteGoldenOutputs(outputs_path, ComputeRows(&model))) << outputs_path;
    ASSERT_TRUE(WriteInt8Outputs(DataPath("golden_forward_int8.txt"),
                                 ComputeInt8Rows(&model)));
    GTEST_SKIP() << "regenerated goldens in " << MOCC_TEST_DATA_DIR;
  }

  // Loading the committed file also pins the MOCCMODL serialization format.
  std::shared_ptr<PreferenceActorCritic> model =
      PreferenceActorCritic::LoadFromFile(model_path, config);
  ASSERT_NE(model, nullptr) << "cannot load " << model_path
                            << " (regenerate with MOCC_REGEN_GOLDENS=1)";
  std::vector<GoldenRow> expected;
  ASSERT_TRUE(ReadGoldenOutputs(outputs_path, &expected)) << outputs_path;
  ASSERT_EQ(expected.size(), static_cast<size_t>(kNumObservations));

  const std::vector<GoldenRow> actual = ComputeRows(model.get());
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i].mean_d, expected[i].mean_d, kDoubleTol) << "obs " << i;
    EXPECT_NEAR(actual[i].value_d, expected[i].value_d, kDoubleTol) << "obs " << i;
    EXPECT_NEAR(actual[i].mean_f, expected[i].mean_f, kFloat32Tol) << "obs " << i;
    EXPECT_NEAR(actual[i].value_f, expected[i].value_f, kFloat32Tol) << "obs " << i;
    // The committed goldens themselves certify the two precisions agree.
    EXPECT_NEAR(expected[i].mean_f, expected[i].mean_d, 1e-3) << "obs " << i;
  }
}

// The int8 deployment path against its committed goldens. Registered twice in
// ctest: once normally (the host's best tier, AVX2 on CI) and once under
// MOCC_FORCE_SCALAR=1 (golden_inference_test_scalar) — both runs must land on
// the same committed values, which is the end-to-end form of the scalar<->SIMD
// bit-identity contract.
TEST(GoldenInferenceTest, Int8ForwardRowMatchesCommittedGoldens) {
  if (std::getenv("MOCC_REGEN_GOLDENS") != nullptr) {
    GTEST_SKIP() << "regenerated by ForwardRowMatchesCommittedGoldens";
  }
  MoccConfig config;
  std::shared_ptr<PreferenceActorCritic> model =
      PreferenceActorCritic::LoadFromFile(DataPath("golden_model.bin"), config);
  ASSERT_NE(model, nullptr);
  std::vector<Int8Row> expected;
  ASSERT_TRUE(ReadInt8Outputs(DataPath("golden_forward_int8.txt"), &expected))
      << "regenerate with MOCC_REGEN_GOLDENS=1";
  ASSERT_EQ(expected.size(), static_cast<size_t>(kNumObservations));

  const std::vector<Int8Row> actual = ComputeInt8Rows(model.get());
  ASSERT_EQ(actual.size(), expected.size());
  std::vector<GoldenRow> reference;
  ASSERT_TRUE(ReadGoldenOutputs(DataPath("golden_forward.txt"), &reference));
  ASSERT_EQ(reference.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(actual[i].mean_q, expected[i].mean_q, kInt8Tol) << "obs " << i;
    EXPECT_NEAR(actual[i].value_q, expected[i].value_q, kInt8Tol) << "obs " << i;
    // And quantization drift vs the double reference stays control-irrelevant.
    EXPECT_NEAR(expected[i].mean_q, reference[i].mean_d, kInt8VsDoubleTol)
        << "obs " << i;
    EXPECT_NEAR(expected[i].value_q, reference[i].value_d, kInt8VsDoubleTol)
        << "obs " << i;
  }
}

// Byte-level guard for the off-by-default contract of the ECN observation
// channel: with MoccConfig::ecn_signal left at its default (false), the
// observation layout, the forward pass and therefore the regenerated golden
// files must reproduce the committed golden_forward*.txt hex-for-hex on the
// capture toolchain. Regeneration happens in TempDir — nothing is written into
// the source tree.
TEST(GoldenInferenceTest, CommittedForwardGoldensByteIdenticalWithEcnSignalOff) {
  if (std::getenv("MOCC_REGEN_GOLDENS") != nullptr) {
    GTEST_SKIP() << "regeneration run";
  }
  MoccConfig config;
  ASSERT_FALSE(config.ecn_signal) << "the ECN channel must be off by default";
  std::shared_ptr<PreferenceActorCritic> model =
      PreferenceActorCritic::LoadFromFile(DataPath("golden_model.bin"), config);
  ASSERT_NE(model, nullptr);
  auto slurp = [](const std::string& path) {
    std::string bytes;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f != nullptr) {
      char buf[4096];
      size_t n = 0;
      while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
        bytes.append(buf, n);
      }
      std::fclose(f);
    }
    return bytes;
  };
  // Per-process names: ctest runs this binary twice at once (plain and under
  // MOCC_FORCE_SCALAR=1), and a shared temp file let one run read the other's
  // half-written output.
  const std::string tmp_prefix =
      ::testing::TempDir() + "/golden_forward_" + std::to_string(getpid());
  const std::string regen_f = tmp_prefix + "_regen.txt";
  ASSERT_TRUE(WriteGoldenOutputs(regen_f, ComputeRows(model.get())));
  const std::string committed_f = slurp(DataPath("golden_forward.txt"));
  ASSERT_FALSE(committed_f.empty());
  EXPECT_EQ(slurp(regen_f), committed_f) << "golden_forward.txt";

  const std::string regen_q = tmp_prefix + "_int8_regen.txt";
  ASSERT_TRUE(WriteInt8Outputs(regen_q, ComputeInt8Rows(model.get())));
  const std::string committed_q = slurp(DataPath("golden_forward_int8.txt"));
  ASSERT_FALSE(committed_q.empty());
  EXPECT_EQ(slurp(regen_q), committed_q) << "golden_forward_int8.txt";
  std::remove(regen_f.c_str());
  std::remove(regen_q.c_str());
}

}  // namespace
}  // namespace mocc
