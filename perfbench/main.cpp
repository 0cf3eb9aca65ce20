// End-to-end benchmark of the qpp system (see README.md in this directory).
//
//   qpp_perfbench --workload <compile_predict|serve_unique|serve_repeat|retrain>
//                 --seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]
//
// Prints a host probe, one line per phase (requests attempted, answered by
// the model, from a cache, by a labeled fallback, failed), and as the last
// line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones. Exits nonzero when an output check fails.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "par/simd.h"
#include "par/thread_pool.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric lists of BENCHMARK.json, in its order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"cpu_us_per_op", "us"},
    {"retrain_s", "s"},
    {"risk_elapsed", "risk"},
    {"risk_messages", "risk"},
};

constexpr MetricSpec kPerLayer[] = {
    {"host.effective_parallelism", "threads"},
    {"host.hardware_threads", "threads"},
    {"workload.generate_ms", "ms"},
    {"optimizer.setup_plan_ms", "ms"},
    {"engine.execute_us", "us"},
    {"core.train_predictor_s", "s"},
    {"sql.parse_us", "us"},
    {"sql.parse_cpu_us", "us"},
    {"optimizer.plan_us", "us"},
    {"optimizer.plan_cpu_us", "us"},
    {"ml.plan_features_us", "us"},
    {"ml.plan_features_cpu_us", "us"},
    {"core.predict_us", "us"},
    {"core.predict_cpu_us", "us"},
    {"core.predict_self_us", "us"},
    {"ml.preprocess_us", "us"},
    {"ml.kernel_us", "us"},
    {"linalg.solve_us", "us"},
    {"ml.project_us", "us"},
    {"ml.kcca_project_us", "us"},
    {"ml.knn_us", "us"},
    {"core.assemble_us", "us"},
    {"fabric.submit_p50_us", "us"},
    {"fabric.submit_p99_us", "us"},
    {"fabric.classify_us", "us"},
    {"fabric.route_cache_hit_ratio", "ratio"},
    {"serve.queue_wait_p50_us", "us"},
    {"serve.queue_wait_p99_us", "us"},
    {"serve.batch_size_mean", "requests"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.cache_lookup_us", "us"},
    {"serve.predict_us_per_req", "us"},
    {"serve.respond_us", "us"},
    {"serve.batch_self_us", "us"},
    {"serve.model_answers", "count"},
    {"serve.cache_answers", "count"},
    {"serve.fallback_answers", "count"},
    {"loadgen.late_p99_us", "us"},
    {"process.cpu_us_per_req", "us"},
    {"core.train_two_step_s", "s"},
    {"core.train_two_step_cpu_s", "s"},
    {"core.save_ms", "ms"},
    {"core.load_ms", "ms"},
    {"fabric.publish_ms", "ms"},
    {"serve.first_answer_us", "us"},
    {"ml.kcca_train_icd_ms", "ms"},
    {"ml.kcca_train_icd_cpu_ms", "ms"},
    {"ml.kcca_train_exact_ms", "ms"},
    {"ml.kcca_train_exact_cpu_ms", "ms"},
    {"ml.kdtree_build_ms", "ms"},
    {"par.region_ms", "ms"},
    {"process.cpu_s_per_retrain", "s"},
    {"process.cpu_wall_ratio_retrain", "ratio"},
    {"e2e.throughput_qps", "queries/s"},
    {"e2e.capacity_qps", "requests/s"},
    {"e2e.latency_p50_us", "us"},
    {"e2e.latency_p99_us", "us"},
    {"e2e.heavy_p99_us", "us"},
    {"trace.e2e_us", "us"},
    {"trace.unattributed_us", "us"},
    {"trace.unattributed_pct", "%"},
    {"trace.overhead_pct", "%"},
};

/// Effective parallelism: a calibrated spin loop timed on one raw
/// std::thread, then on hardware_concurrency() threads at once.
double SpinProbe(unsigned threads, double* single_ms) {
  const auto spin = [](uint64_t iters) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t i = 0; i < iters; ++i) x = x * 6364136223846793005ull + i;
    return x;
  };
  const auto timed = [&](unsigned n, uint64_t iters) {
    std::vector<std::thread> pool;
    std::vector<uint64_t> sink(n);
    const auto t0 = perfbench::Clock::now();
    for (unsigned t = 0; t < n; ++t) {
      pool.emplace_back([&, t] { sink[t] = spin(iters); });
    }
    for (std::thread& th : pool) th.join();
    const double s = perfbench::Seconds(t0, perfbench::Clock::now());
    volatile uint64_t keep = sink[0];
    (void)keep;
    return s;
  };
  uint64_t iters = 1u << 16;
  while (timed(1, iters) < 0.01 && iters < (1ull << 40)) iters *= 2;
  // Best of three of each: a descheduled run only ever reads slower.
  double one = 1e30;
  double all = 1e30;
  for (int r = 0; r < 3; ++r) {
    one = std::min(one, timed(1, iters));
    all = std::min(all, timed(threads, iters));
  }
  *single_ms = one * 1e3;
  return std::min<double>(threads, threads * one / all);
}

int Usage() {
  std::fprintf(stderr,
               "usage: qpp_perfbench --workload <compile_predict|serve_unique|"
               "serve_repeat|retrain> --seed <n> --seconds <s> --trace <0|1> "
               "[--scratch <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      opt.workload = value;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      opt.trace = value == "1";
    } else if (key == "--scratch") {
      opt.scratch_dir = value;
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || !(opt.seconds > 0.0)) return Usage();

  const std::string self_test = perfbench::ReferenceSelfTest();
  if (!self_test.empty()) {
    std::printf("reference self-test failed: %s\n", self_test.c_str());
    return 1;
  }

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  double single_ms = 0.0;
  const double parallelism = SpinProbe(hw, &single_ms);
  std::printf("host: hardware_concurrency %u, effective parallelism %.2f "
              "(spin probe, %.1f ms per thread), SIMD %s (%zu lanes), qpp "
              "threads %zu\n",
              hw, parallelism, single_ms, qpp::simd::ActiveIsa(),
              qpp::simd::CompiledLanes(), qpp::par::EffectiveThreads());

  perfbench::Report report;
  try {
    if (opt.workload == "compile_predict") {
      perfbench::RunCompilePredict(opt, &report);
    } else if (opt.workload == "serve_unique") {
      perfbench::RunServe(opt, /*repeat=*/false, &report);
    } else if (opt.workload == "serve_repeat") {
      perfbench::RunServe(opt, /*repeat=*/true, &report);
    } else if (opt.workload == "retrain") {
      perfbench::RunRetrain(opt, &report);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
  report.Set("peak_rss_mb", perfbench::PeakRssMb());
  report.Set("host.effective_parallelism", parallelism);
  report.Set("host.hardware_threads", hw);

  std::string metrics;
  bool complete = true;
  const auto emit = [&](const MetricSpec& m) {
    if (!report.Has(m.name) && !opt.trace) {
      std::printf("internal error: metric %s not measured\n", m.name);
      complete = false;
    }
    double v = report.Get(m.name);
    if (!std::isfinite(v)) {
      report.Fail(std::string("metric ") + m.name + " is not finite");
      v = -1.0;
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", v);
    if (!metrics.empty()) metrics += ", ";
    metrics += std::string("\"") + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
  };
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) emit(m);
  } else {
    for (const MetricSpec& m : kEndToEnd) emit(m);
  }
  if (!complete) return 1;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()),
              metrics.c_str());
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
