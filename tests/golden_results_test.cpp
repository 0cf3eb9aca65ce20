// Golden-results regression suite: recomputes every EXPERIMENTS.md headline
// number through bench/golden_metrics.h and compares against the pinned
// values in tests/golden/*.json, with per-key tolerances from
// tests/golden/tolerances.json. Any drift in a headline — a risk, a count,
// a Null flipping to a number — fails here instead of silently rotting in
// the EXPERIMENTS.md prose.
//
// To refresh the goldens after an INTENDED change, rerun the benches:
//   build/bench/bench_fig03_regression_elapsed --json-out tests/golden/fig03.json
//   build/bench/bench_fig10_exp1_elapsed      --json-out tests/golden/exp1.json
//   build/bench/bench_tab2_neighbor_count     --json-out tests/golden/tab2.json
//   build/bench/bench_fig13_exp2_balanced30   --json-out tests/golden/fig13.json
//   build/bench/bench_fig16_32node_configs    --json-out tests/golden/fig16.json
//   build/bench/bench_fig17_optimizer_cost    --json-out tests/golden/fig17.json
//   build/tools/qpp_tool chaos --fabric-soak --seed 42 --requests 50000
//       --json-out tests/golden/fabric.json   (one command line)
// then update the affected EXPERIMENTS.md lines in the same commit.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/predictor.h"
#include "golden_metrics.h"

namespace qpp::bench {
namespace {

std::string GoldenPath(const std::string& file) {
  return std::string(QPP_GOLDEN_DIR) + "/" + file;
}

// The experiment build and the Exp1 training are by far the most
// expensive shared steps; compute each once per test binary.
const PaperExperiment& Exp() {
  static const PaperExperiment exp = BuildPaperExperiment();
  return exp;
}

const Exp1Golden& Exp1() {
  static const Exp1Golden exp1 = ComputeExp1(Exp());
  return exp1;
}

// Every golden key must have a tolerance entry; every computed key must be
// pinned and vice versa, so added/removed headline values (including Null
// indicator flips) fail loudly rather than going unchecked.
void CompareToGolden(const GoldenMap& computed, const std::string& file) {
  const GoldenMap golden = ReadGoldenJson(GoldenPath(file));
  const GoldenMap tolerances = ReadGoldenJson(GoldenPath("tolerances.json"));

  std::set<std::string> computed_keys, golden_keys;
  for (const auto& [k, v] : computed) computed_keys.insert(k);
  for (const auto& [k, v] : golden) golden_keys.insert(k);
  EXPECT_EQ(computed_keys, golden_keys)
      << file << ": headline key set changed — a metric appeared, "
      << "disappeared, or flipped between Null and a number";

  for (const auto& [key, pinned] : golden) {
    const auto it = computed.find(key);
    if (it == computed.end()) continue;  // already reported above
    const auto tol = tolerances.find(key);
    ASSERT_NE(tol, tolerances.end())
        << file << ": no tolerance entry for " << key;
    EXPECT_NEAR(it->second, pinned, tol->second)
        << file << ": " << key << " drifted from its pinned value";
  }
}

TEST(GoldenResultsTest, Fig03RegressionNegativeResult) {
  CompareToGolden(ComputeFig03(Exp()).values, "fig03.json");
}

TEST(GoldenResultsTest, Exp1MultiMetricRisks) {
  CompareToGolden(Exp1().values, "exp1.json");
}

TEST(GoldenResultsTest, Tab2NeighborCountSweep) {
  CompareToGolden(ComputeTab2(Exp()).values, "tab2.json");
}

TEST(GoldenResultsTest, Fig13BalancedTrainingCollapse) {
  CompareToGolden(ComputeFig13(Exp(), Exp1().evals).values, "fig13.json");
}

TEST(GoldenResultsTest, Fig16NodeConfigsAndDiskNull) {
  CompareToGolden(ComputeFig16().values, "fig16.json");
}

TEST(GoldenResultsTest, Fig17OptimizerCostFit) {
  CompareToGolden(ComputeFig17(Exp(), Exp1().evals).values, "fig17.json");
}

TEST(GoldenResultsTest, FabricSoakCounters) {
  // The fabric capacity soak's deterministic counter set (tolerance 0 on
  // every key): admission decisions, the counted replica kill, stall =
  // deadline fallback accounting, and rolling drains at the pinned seed.
  const FabricSoakGolden soak = ComputeFabricSoak();
  EXPECT_TRUE(soak.ok) << soak.report;
  CompareToGolden(soak.values, "fabric.json");
}

TEST(GoldenResultsTest, LifecycleChaosCounters) {
  // The model-lifecycle scenario's counter set at the pinned seed, all
  // zero-tolerance. lifecycle_poisoned_promoted and
  // lifecycle_poisoned_served pin at exactly 0 — the never-promote
  // contract for model_poison-faulted candidates is a headline value, not
  // just a scenario invariant.
  const LifecycleGolden run = ComputeLifecycleChaos();
  EXPECT_TRUE(run.ok) << run.report;
  CompareToGolden(run.values, "lifecycle.json");
}

// The routers' classify step (core::Predictor::PredictType) must give the
// category Predict would, for every model kind, over the Experiment-1 plans:
// it is the same projection, neighbor search and vote without the rest of
// the prediction.
TEST(PredictTypeTest, MatchesPredictOverExperiment1Plans) {
  std::vector<const ml::TrainingExample*> plans;
  for (const auto& ex : Exp().train) plans.push_back(&ex);
  for (const auto& ex : Exp().test) plans.push_back(&ex);

  core::Predictor icd;  // N = 1027 > exact_threshold: the ICD solver
  icd.Train(Exp().train);
  ASSERT_EQ(icd.kcca().solver_used(), ml::KccaSolver::kIcd);

  core::PredictorConfig exact_cfg;
  exact_cfg.kcca.solver = ml::KccaSolver::kExact;
  core::Predictor exact(exact_cfg);
  // Every 4th example keeps the exact N x N problem small.
  std::vector<ml::TrainingExample> subset;
  for (size_t i = 0; i < Exp().train.size(); i += 4) {
    subset.push_back(Exp().train[i]);
  }
  exact.Train(subset);
  ASSERT_EQ(exact.kcca().solver_used(), ml::KccaSolver::kExact);

  core::PredictorConfig reg_cfg;
  reg_cfg.model = core::ModelKind::kRegression;
  core::Predictor regression(reg_cfg);
  regression.Train(Exp().train);

  for (const core::Predictor* model : {&icd, &exact, &regression}) {
    std::set<workload::QueryType> seen;
    for (const ml::TrainingExample* ex : plans) {
      const workload::QueryType want =
          model->Predict(ex->query_features).predicted_type;
      ASSERT_EQ(model->PredictType(ex->query_features), want);
      seen.insert(want);
    }
    EXPECT_GE(seen.size(), 2u) << "a one-category model proves little";
  }
}

// The ISSUE's floor: the suite must pin at least 10 headline values. It
// pins far more, but keep the floor explicit so pruning can't hollow the
// suite out unnoticed.
TEST(GoldenResultsTest, PinsAtLeastTenHeadlineValues) {
  size_t total = 0;
  for (const char* file : {"fig03.json", "exp1.json", "tab2.json",
                           "fig13.json", "fig16.json", "fig17.json",
                           "fabric.json", "lifecycle.json"}) {
    total += ReadGoldenJson(GoldenPath(file)).size();
  }
  EXPECT_GE(total, 10u);
  // And every pinned key has an explicit tolerance.
  const GoldenMap tolerances = ReadGoldenJson(GoldenPath("tolerances.json"));
  EXPECT_GE(tolerances.size(), total);
}

// The writer/parser pair is the suite's foundation; round-trip it,
// including negative, fractional, and exponent-formatted values.
TEST(GoldenResultsTest, GoldenJsonRoundTrips) {
  const GoldenMap original = {
      {"alpha", 1.0},
      {"beta_null", 0.0},
      {"gamma", -0.3460574557},
      {"delta", 1.23456789e-7},
      {"epsilon", 1027.0},
  };
  const std::string path = testing::TempDir() + "/golden_roundtrip.json";
  WriteGoldenJson(path, original);
  const GoldenMap reread = ReadGoldenJson(path);
  ASSERT_EQ(reread.size(), original.size());
  for (const auto& [key, value] : original) {
    ASSERT_TRUE(reread.count(key)) << key;
    EXPECT_NEAR(reread.at(key), value, 1e-15) << key;
  }
}

}  // namespace
}  // namespace qpp::bench
