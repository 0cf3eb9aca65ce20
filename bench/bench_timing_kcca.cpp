// Reproduces Section VII-C.4 ("How fast is KCCA?") as google-benchmark
// microbenchmarks: prediction of a single query completes well under a
// second, while training is polynomial in the training-set size (cubic for
// the exact solver; the ICD path amortizes to roughly linear in N for a
// fixed approximation rank).
//
// The custom main additionally runs the qpp::par thread-scaling report:
// the same training job at QPP_THREADS = 1, 2, 8, verifying the models
// are byte-identical and reporting wall-clock speedup. `--quick` runs a
// smaller N and skips the google-benchmark suites (CI smoke); `--json-out
// FILE` writes the report as JSON for artifact upload. The report also
// splits one ICD training into its stages (ICD of x, ICD of y, the CCA fit
// and the eigensolve inside it) and times the exact path's N x N
// eigensolve at N = 230, the golf-ball expert's size.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.h"
#include "catalog/tpcds.h"
#include "common/check.h"
#include "common/rng.h"
#include "core/predictor.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/incomplete_cholesky.h"
#include "ml/cca.h"
#include "ml/kernel.h"
#include "ml/preprocess.h"
#include "par/simd.h"
#include "par/thread_pool.h"

using namespace qpp;

namespace {

std::vector<ml::TrainingExample> SyntheticExamples(size_t n) {
  Rng rng(1234);
  std::vector<ml::TrainingExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ml::TrainingExample ex;
    ex.query_features.resize(ml::kPlanFeatureDims);
    for (double& v : ex.query_features) {
      v = rng.Bernoulli(0.3) ? rng.LogNormal(6.0, 3.0) : 0.0;
    }
    ex.metrics.elapsed_seconds = rng.LogNormal(1.0, 2.0);
    ex.metrics.records_accessed = rng.LogNormal(12.0, 2.0);
    ex.metrics.records_used = rng.LogNormal(10.0, 2.0);
    ex.metrics.message_count = rng.LogNormal(6.0, 2.0);
    ex.metrics.message_bytes = rng.LogNormal(14.0, 2.0);
    out.push_back(std::move(ex));
  }
  return out;
}

void BM_TrainIcd(benchmark::State& state) {
  const auto examples = SyntheticExamples(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    core::Predictor pred;
    pred.Train(examples);
    benchmark::DoNotOptimize(pred.trained());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TrainIcd)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_TrainExact(benchmark::State& state) {
  const auto examples = SyntheticExamples(static_cast<size_t>(state.range(0)));
  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;
  for (auto _ : state) {
    core::Predictor pred(cfg);
    pred.Train(examples);
    benchmark::DoNotOptimize(pred.trained());
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_TrainExact)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->Complexity();

void BM_PredictSingleQuery(benchmark::State& state) {
  const auto examples = SyntheticExamples(static_cast<size_t>(state.range(0)));
  core::Predictor pred;
  pred.Train(examples);
  const linalg::Vector probe = examples[7].query_features;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.Predict(probe).metrics.elapsed_seconds);
  }
}
BENCHMARK(BM_PredictSingleQuery)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_PlanAndFeaturizeQuery(benchmark::State& state) {
  // The full compile-time pipeline a deployment would run per query:
  // parse -> optimize -> feature vector.
  const auto catalog = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&catalog, {});
  const std::string sql =
      "SELECT i_brand_id, SUM(ss_ext_sales_price) "
      "FROM store_sales, item, date_dim "
      "WHERE ss_item_sk = i_item_sk AND ss_sold_date_sk = d_date_sk "
      "AND d_year = 2000 AND d_moy = 11 AND i_category_id = 6 "
      "GROUP BY i_brand_id ORDER BY i_brand_id LIMIT 100";
  for (auto _ : state) {
    auto plan = opt.Plan(sql);
    benchmark::DoNotOptimize(ml::PlanFeatureVector(plan.value()));
  }
}
BENCHMARK(BM_PlanAndFeaturizeQuery)->Unit(benchmark::kMicrosecond);

void BM_SimulateQuery(benchmark::State& state) {
  const auto catalog = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&catalog, {});
  const engine::ExecutionSimulator sim(&catalog,
                                       engine::SystemConfig::Neoview4());
  auto plan = opt.Plan(
      "SELECT COUNT(*) FROM store_sales, store_returns "
      "WHERE ss_ext_sales_price > sr_return_amt");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.Execute(plan.value()).elapsed_seconds);
  }
}
BENCHMARK(BM_SimulateQuery)->Unit(benchmark::kMicrosecond);

/// Wall milliseconds of the training stages that dominate a retrain.
struct StageTimes {
  size_t n = 0;
  size_t rank_x = 0;
  size_t rank_y = 0;
  double icd_x_ms = 0.0;
  double icd_y_ms = 0.0;
  double cca_fit_ms = 0.0;   ///< ml::FitCca, eigensolve included
  double eigen_ms = 0.0;     ///< the rank_x-square eigensolve FitCca runs
  size_t exact_n = 0;
  double exact_eigen_ms = 0.0;  ///< the exact path's N x N eigensolve
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

/// Both views preprocessed the way Predictor::Train does.
struct Views {
  linalg::Matrix x, y;
};

Views Preprocess(const std::vector<ml::TrainingExample>& examples) {
  const ml::FeatureMatrices mats = ml::StackExamples(examples);
  ml::Preprocessor px(true, true);
  px.Fit(mats.x);
  ml::Preprocessor py(true, true);
  py.Fit(mats.y);
  return {px.Transform(mats.x), py.Transform(mats.y)};
}

/// The symmetric problem ml::FitCca hands to TopKEigenSymmetric, rebuilt
/// with the same steps (centered covariances, relative ridge, Cholesky
/// whitening, S = M M^T).
linalg::Matrix CcaProblem(const linalg::Matrix& x, const linalg::Matrix& y,
                          double reg) {
  const auto centered = [](const linalg::Matrix& m) {
    linalg::Matrix c = m;
    for (size_t j = 0; j < m.cols(); ++j) {
      double s = 0.0;
      for (size_t i = 0; i < m.rows(); ++i) s += m(i, j);
      const double mean = s / static_cast<double>(m.rows());
      for (size_t i = 0; i < m.rows(); ++i) c(i, j) = m(i, j) - mean;
    }
    return c;
  };
  const auto ridge = [reg](linalg::Matrix* c) {
    double mean_diag = 0.0;
    for (size_t i = 0; i < c->rows(); ++i) mean_diag += (*c)(i, i);
    mean_diag /= std::max<double>(static_cast<double>(c->rows()), 1.0);
    if (mean_diag <= 0.0) mean_diag = 1.0;
    c->AddToDiagonal(reg * mean_diag + 1e-12);
  };
  const linalg::Matrix xc = centered(x);
  const linalg::Matrix yc = centered(y);
  const double inv_n = 1.0 / static_cast<double>(x.rows() - 1);
  linalg::Matrix cxx = xc.TransposeMultiply(xc).Scale(inv_n);
  linalg::Matrix cyy = yc.TransposeMultiply(yc).Scale(inv_n);
  const linalg::Matrix cxy = xc.TransposeMultiply(yc).Scale(inv_n);
  ridge(&cxx);
  ridge(&cyy);
  const linalg::Cholesky lx(cxx, 1e-3);
  const linalg::Cholesky ly(cyy, 1e-3);
  QPP_CHECK(lx.ok() && ly.ok());
  const linalg::Matrix u1 = lx.SolveLowerMatrix(cxy);
  const linalg::Matrix m = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  return m.MultiplyTranspose(m);
}

/// The exact path's S = Lx^-1 (Kx Ky) My^-1 (Ky Kx) Lx^-T, rebuilt with
/// the steps of ml::KccaModel::Train.
linalg::Matrix ExactProblem(const Views& v, const ml::KccaOptions& opt) {
  const size_t n = v.x.rows();
  linalg::Matrix kx = ml::KernelMatrix(
      v.x, {ml::GaussianScaleFromNorms(v.x, opt.tau_factor_x)});
  linalg::Matrix ky = ml::KernelMatrix(
      v.y, {ml::GaussianScaleFromNorms(v.y, opt.tau_factor_y)});
  ml::CenterKernelMatrix(&kx);
  ml::CenterKernelMatrix(&ky);
  const auto system = [&](const linalg::Matrix& k) {
    const double kappa =
        opt.kappa * k.FrobeniusNorm() / std::sqrt(static_cast<double>(n));
    linalg::Matrix m = k.Multiply(k).Add(k.Scale(kappa));
    m.AddToDiagonal(1e-8 * std::max(m.MaxAbs(), 1.0));
    return m;
  };
  const linalg::Cholesky lx(system(kx), 1e-2);
  const linalg::Cholesky ly(system(ky), 1e-2);
  QPP_CHECK(lx.ok() && ly.ok());
  const linalg::Matrix u1 = lx.SolveLowerMatrix(kx.Multiply(ky));
  const linalg::Matrix g = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  return g.MultiplyTranspose(g);
}

StageTimes RunStageTimes(const std::vector<ml::TrainingExample>& examples,
                         const std::vector<ml::TrainingExample>& exact) {
  StageTimes st;
  const ml::KccaOptions opt;
  const Views v = Preprocess(examples);
  st.n = v.x.rows();
  // The KCCA ICD kernel oracles: exp(-||a - b||^2 / tau), 1 on the diagonal.
  const auto oracle = [](const linalg::Matrix& m, double tau) {
    return [&m, tau](size_t i, size_t j) {
      if (i == j) return 1.0;
      const double* a = m.data().data() + i * m.cols();
      const double* b = m.data().data() + j * m.cols();
      double s = 0.0;
      for (size_t k = 0; k < m.cols(); ++k) {
        const double d = a[k] - b[k];
        s += d * d;
      }
      return std::exp(-s / tau);
    };
  };
  const double tau_x = ml::GaussianScaleFromNorms(v.x, opt.tau_factor_x);
  const double tau_y = ml::GaussianScaleFromNorms(v.y, opt.tau_factor_y);
  auto t0 = std::chrono::steady_clock::now();
  const linalg::IncompleteCholeskyResult icx = linalg::IncompleteCholesky(
      st.n, oracle(v.x, tau_x), opt.icd_max_rank, opt.icd_tolerance);
  st.icd_x_ms = MsSince(t0);
  t0 = std::chrono::steady_clock::now();
  const linalg::IncompleteCholeskyResult icy = linalg::IncompleteCholesky(
      st.n, oracle(v.y, tau_y), opt.icd_max_rank, opt.icd_tolerance);
  st.icd_y_ms = MsSince(t0);
  st.rank_x = icx.pivots.size();
  st.rank_y = icy.pivots.size();

  const size_t d = std::min({opt.num_dims, st.rank_x, st.rank_y});
  t0 = std::chrono::steady_clock::now();
  const ml::CcaModel cca = ml::FitCca(icx.g, icy.g, d, opt.kappa);
  st.cca_fit_ms = MsSince(t0);
  const linalg::Matrix s = CcaProblem(icx.g, icy.g, opt.kappa);
  t0 = std::chrono::steady_clock::now();
  const linalg::TopEigen top = linalg::TopKEigenSymmetric(s, d);
  st.eigen_ms = MsSince(t0);
  // The rebuilt problem must be the one FitCca solved.
  QPP_CHECK(top.converged &&
            std::min(std::sqrt(std::max(top.values[0], 0.0)), 1.0) ==
                cca.correlations[0]);

  const linalg::Matrix se = ExactProblem(Preprocess(exact), opt);
  st.exact_n = se.rows();
  t0 = std::chrono::steady_clock::now();
  const linalg::TopEigen etop =
      linalg::TopKEigenSymmetric(se, std::min(opt.num_dims, st.exact_n));
  st.exact_eigen_ms = MsSince(t0);
  QPP_CHECK(etop.converged);
  return st;
}

struct ThreadScalingReport {
  size_t n = 0;
  size_t threads_available = 0;
  std::string isa;
  double ms[3] = {0.0, 0.0, 0.0};  // at 1, 2, 8 threads
  /// Training wall time with the SIMD kernels forced to the scalar oracle
  /// (same thread count as ms[0]); the models must be byte-identical.
  double scalar_ms = 0.0;
  bool byte_identical = false;
  double speedup_8v1 = 0.0;
  double simd_speedup = 0.0;
};

ThreadScalingReport RunThreadScaling(size_t n) {
  static const size_t kCounts[3] = {1, 2, 8};
  ThreadScalingReport rep;
  rep.n = n;
  rep.threads_available = std::thread::hardware_concurrency();
  rep.isa = simd::CompiledIsa();
  const auto examples = SyntheticExamples(n);
  std::string bytes[3];
  for (size_t t = 0; t < 3; ++t) {
    par::SetGlobalThreads(kCounts[t]);
    const auto t0 = std::chrono::steady_clock::now();
    core::Predictor pred;
    pred.Train(examples);
    rep.ms[t] = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    std::ostringstream os;
    pred.Save(&os);
    bytes[t] = os.str();
  }
  // Scalar-oracle A/B at 1 thread: quantifies the SIMD kernel win on the
  // training path and pins byte-identity of the resulting model.
  std::string scalar_bytes;
  {
    par::SetGlobalThreads(1);
    const bool prev = simd::SetForceScalar(true);
    const auto t0 = std::chrono::steady_clock::now();
    core::Predictor pred;
    pred.Train(examples);
    rep.scalar_ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    simd::SetForceScalar(prev);
    std::ostringstream os;
    pred.Save(&os);
    scalar_bytes = os.str();
  }
  par::SetGlobalThreads(par::DefaultThreads());
  rep.byte_identical = bytes[0] == bytes[1] && bytes[0] == bytes[2] &&
                       bytes[0] == scalar_bytes;
  rep.speedup_8v1 = rep.ms[2] > 0.0 ? rep.ms[0] / rep.ms[2] : 0.0;
  rep.simd_speedup = rep.ms[0] > 0.0 ? rep.scalar_ms / rep.ms[0] : 0.0;
  return rep;
}

void WriteJson(const ThreadScalingReport& rep, const StageTimes& st,
               const std::string& path) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"bench_timing_kcca\",\n"
      << "  \"metric\": \"train_wall_ms_by_threads\",\n"
      << "  \"n\": " << rep.n << ",\n"
      << "  \"threads_available\": " << rep.threads_available << ",\n"
      << "  \"isa\": \"" << rep.isa << "\",\n"
      << "  \"train_ms_1\": " << rep.ms[0] << ",\n"
      << "  \"train_ms_2\": " << rep.ms[1] << ",\n"
      << "  \"train_ms_8\": " << rep.ms[2] << ",\n"
      << "  \"train_scalar_ms_1\": " << rep.scalar_ms << ",\n"
      << "  \"speedup_8v1\": " << rep.speedup_8v1 << ",\n"
      << "  \"simd_speedup_1t\": " << rep.simd_speedup << ",\n"
      << "  \"byte_identical\": " << (rep.byte_identical ? "true" : "false")
      << ",\n"
      << "  \"stage_n\": " << st.n << ",\n"
      << "  \"stage_rank_x\": " << st.rank_x << ",\n"
      << "  \"stage_rank_y\": " << st.rank_y << ",\n"
      << "  \"stage_icd_x_ms\": " << st.icd_x_ms << ",\n"
      << "  \"stage_icd_y_ms\": " << st.icd_y_ms << ",\n"
      << "  \"stage_cca_fit_ms\": " << st.cca_fit_ms << ",\n"
      << "  \"stage_eigen_ms\": " << st.eigen_ms << ",\n"
      << "  \"stage_exact_n\": " << st.exact_n << ",\n"
      << "  \"stage_exact_eigen_ms\": " << st.exact_eigen_ms << "\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_out;
  // Strip our flags before handing argv to google-benchmark.
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  bench::PrintHeader(
      "timing — KCCA training/prediction speed (Section VII-C.4) + "
      "qpp::par thread scaling",
      "training parallelizes across the qpp::par pool with byte-identical "
      "results at every thread count; target >=3x at 8 threads (multi-core "
      "hosts; see threads_available)");

  const ThreadScalingReport rep = RunThreadScaling(quick ? 384 : 1024);
  std::printf(
      "train N=%zu (ICD) [%s]: %.1f ms @1T, %.1f ms @2T, %.1f ms @8T  "
      "scalar-oracle @1T: %.1f ms (simd speedup %.2fx)\n"
      "  speedup(8v1)=%.2fx  byte_identical=%s  (host cores: %zu)\n",
      rep.n, rep.isa.c_str(), rep.ms[0], rep.ms[1], rep.ms[2], rep.scalar_ms,
      rep.simd_speedup, rep.speedup_8v1, rep.byte_identical ? "yes" : "NO",
      rep.threads_available);
  std::printf("BENCH bench_timing_kcca threads=1,2,8 n=%zu speedup_8v1=%.2f "
              "simd_speedup_1t=%.2f byte_identical=%d\n",
              rep.n, rep.speedup_8v1, rep.simd_speedup,
              rep.byte_identical ? 1 : 0);
  const StageTimes st = RunStageTimes(SyntheticExamples(rep.n),
                                      SyntheticExamples(230));
  std::printf(
      "train stages N=%zu (rank x %zu, y %zu): ICD x %.1f ms, ICD y %.1f ms, "
      "CCA fit %.1f ms (eigensolve %.1f ms); exact eigensolve N=%zu: "
      "%.1f ms\n",
      st.n, st.rank_x, st.rank_y, st.icd_x_ms, st.icd_y_ms, st.cca_fit_ms,
      st.eigen_ms, st.exact_n, st.exact_eigen_ms);
  if (!json_out.empty()) WriteJson(rep, st, json_out);
  if (!rep.byte_identical) {
    std::fprintf(stderr, "FAIL: models differ across thread counts\n");
    return 1;
  }
  if (quick) return 0;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
