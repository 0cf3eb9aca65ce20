// Shared pieces of the end-to-end benchmark: clocks, sample summaries, the
// result report, layer timers for the traced run, and the seeded inputs
// every workload starts from (the paper's Experiment-1 data).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "core/predictor.h"
#include "fabric/fabric.h"
#include "ml/feature_vector.h"
#include "optimizer/optimizer.h"
#include "serve/cost_fallback.h"
#include "workload/pools.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuSeconds();
/// CPU time of the whole process, every thread (getrusage RUSAGE_SELF).
double ProcessCpuSeconds();
/// Peak resident set size of the process so far.
double PeakRssMb();

struct Options {
  std::string workload;
  uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the retrain workload's model file.
  std::string scratch_dir = ".";
};

/// A timing as the benchmark reports it: the median plus the highest of
/// p99/p95/p90/p75 that has at least ten samples beyond it. With fewer
/// than forty samples the tail is the median.
struct Summary {
  size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_q = 0.5;
};
Summary Summarize(std::vector<double> samples);
/// Tail of a long sample robust to a burst of host stalls: the median, over
/// consecutive windows of kTailWindow samples (in arrival order), of each
/// window's p99, so every window's p99 has ten samples beyond it. Shorter
/// samples fall back to Summarize's tail.
constexpr size_t kTailWindow = 1000;
double WindowedTail(const std::vector<double>& samples);
/// Nearest-rank quantile of an ascending sample.
double QuantileSorted(const std::vector<double>& sorted, double q);

/// Requests of one phase by how they were answered.
struct PhaseCounts {
  uint64_t attempted = 0;
  uint64_t model = 0;
  uint64_t cache = 0;
  uint64_t fallback = 0;
  uint64_t failed = 0;
};
void PrintPhase(const std::string& workload, const std::string& phase,
                const PhaseCounts& c);

/// The run's result: operation counts, output-check failures and the named
/// metrics. main.cpp prints it as the last line of standard output, with
/// the metrics in the order BENCHMARK.json lists them.
class Report {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  double Get(const std::string& name) const;
  /// Records a failed output check (printed, and makes the run incorrect).
  void Fail(const std::string& what);
  void AddOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return check_failures_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t check_failures_ = 0;
  std::map<std::string, double> values_;
};

/// Wall and thread-CPU time per layer, accumulated around calls into the
/// program's public functions (traced run only).
class Layers {
 public:
  /// A disabled Layers only calls through (the untraced run).
  explicit Layers(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  struct Acc {
    double wall_s = 0.0;
    double cpu_s = 0.0;
    uint64_t calls = 0;
  };
  template <typename F>
  auto Time(const std::string& name, F&& f) {
    if (!enabled_) return f();
    Acc& acc = acc_[name];
    const double c0 = ThreadCpuSeconds();
    const auto t0 = Clock::now();
    struct Close {
      Acc& acc;
      double c0;
      Clock::time_point t0;
      ~Close() {
        acc.wall_s += Seconds(t0, Clock::now());
        acc.cpu_s += ThreadCpuSeconds() - c0;
        ++acc.calls;
      }
    } close{acc, c0, t0};
    return f();
  }
  const Acc& Get(const std::string& name) const;

 private:
  bool enabled_;
  std::map<std::string, Acc> acc_;
};

/// The paper's Experiment-1 data: 26000 TPC-DS + problem-template
/// candidates planned and run on the simulated 4-processor system, pooled
/// by elapsed time, split 767/230/30 for training and 45/7/9 held out.
/// Built from the repository's default seed in every run, so the models —
/// and their held-out quality — are the same whatever --seed is; the
/// workload seed draws the request streams.
struct Experiment {
  std::shared_ptr<qpp::catalog::Catalog> catalog;
  std::unique_ptr<qpp::optimizer::Optimizer> optimizer;
  qpp::workload::QueryPools pools;
  qpp::workload::TrainTestSplit split;
  std::vector<qpp::ml::TrainingExample> train;
  std::vector<qpp::ml::TrainingExample> test;
  /// Held-out set for predictive risk: the 61 test queries plus a sample
  /// of the other pooled queries outside the training set (wrecking balls
  /// excluded, as from the split), kHeldOut in all: risk on 61 queries
  /// swings with single outliers.
  std::vector<size_t> held_out;
  qpp::serve::CostCalibration calibration;
};
constexpr size_t kHeldOut = 2000;

/// Set-up layers: the workload generator, the optimizer and the execution
/// simulator, timed per call.
constexpr uint64_t kExperimentSeed = 42;
Experiment BuildExperiment(Layers* layers);

/// Plan feature vectors of every pooled query, with duplicates removed
/// (first occurrence kept), in pool order.
struct DistinctPlan {
  qpp::linalg::Vector features;
  double optimizer_cost = 0.0;
  qpp::workload::QueryType pool = qpp::workload::QueryType::kFeather;
};
std::vector<DistinctPlan> DistinctPlans(const Experiment& exp);

/// Sends one request to `fabric` and waits for its answer (closed loop).
qpp::serve::ServeResponse Ask(qpp::fabric::Fabric* fabric,
                              const qpp::linalg::Vector& features, double cost);

/// FNV-1a over the bit patterns of a vector.
uint64_t HashBits(const qpp::linalg::Vector& v);

// ---------------------------------------------------------------------------
// Independent output checks (reference.cpp).

/// The k nearest rows of `points` to `q` by a plain Euclidean scan, with
/// ties in distance (within a relative tolerance) reported so that either
/// tied point is accepted.
struct ReferenceNeighbors {
  std::vector<size_t> indices;  ///< k nearest, ascending distance
  std::vector<double> distances;
};
ReferenceNeighbors BruteForceNearest(const qpp::linalg::Matrix& points,
                                     const qpp::linalg::Vector& q, size_t k);

/// Checks `got` (the program's neighbor indices and six metrics) against
/// the brute-force neighbors of `q` among `points` and the equal-weighted
/// mean of their rows of `metrics`. Returns an empty string when they
/// agree, else what differs.
std::string CheckAgainstReference(const qpp::linalg::Matrix& points,
                                  const qpp::linalg::Matrix& metrics,
                                  const qpp::linalg::Vector& q,
                                  const std::vector<size_t>& got_neighbors,
                                  const qpp::linalg::Vector& got_metrics);

/// Runs the reference on `model`'s own projection of `features`.
std::string CheckPrediction(const qpp::core::Predictor& model,
                            const qpp::linalg::Vector& features,
                            const qpp::core::Prediction& got);

/// Predictive risk, 1 - sum (p - a)^2 / sum (a - mean(a))^2.
double PredictiveRisk(const std::vector<double>& predicted,
                      const std::vector<double>& actual);

/// Bit equality of every field of two predictions.
bool SameBits(const qpp::core::Prediction& a, const qpp::core::Prediction& b);

/// Self-test of the reference on a hand-built case whose neighbors and
/// averages are known by construction. Empty string = passed.
std::string ReferenceSelfTest();

// ---------------------------------------------------------------------------
// Workloads.

void RunCompilePredict(const Options& opt, Report* report);
void RunServe(const Options& opt, bool repeat, Report* report);
void RunRetrain(const Options& opt, Report* report);

/// Median of a sample (0 when empty).
double Median(std::vector<double> v);

/// Set-up is repeated this many times in an untraced run and setup_s is
/// the median; the traced run sets up once.
constexpr int kSetupRepeats = 3;

/// Builds the workload state `repeats` times (freeing the previous one
/// first), keeps the last, and reports the median wall time as setup_s.
template <typename State, typename Build>
std::unique_ptr<State> SetUp(int repeats, Report* report, Build build) {
  std::vector<double> times;
  std::unique_ptr<State> state;
  for (int r = 0; r < repeats; ++r) {
    state.reset();
    const auto t0 = Clock::now();
    state = build(r == repeats - 1);
    times.push_back(Seconds(t0, Clock::now()));
  }
  report->Set("setup_s", Median(times));
  return state;
}

/// Traced run: the set-up layers' figures (generation, planning and
/// simulated execution of the candidates; training; publishing).
void ReportSetupLayers(const Layers& layers, Report* report);

/// Prints the predictive risk of answers as a fabric served them.
void PrintServedRisk(const std::string& workload,
                     const std::vector<qpp::engine::QueryMetrics>& served,
                     const std::vector<qpp::engine::QueryMetrics>& actual);

/// compile_predict and the fabric workloads take `retrain_s` as a median
/// over this many examples-to-first-answer cycles made after the measured
/// phases (compile_predict adds its set-ups' own).
constexpr int kExtraRetrains = 6;

/// Held-out quality: predictive risk of elapsed time and message count.
void ReportRisk(const std::vector<qpp::engine::QueryMetrics>& predicted,
                const std::vector<qpp::engine::QueryMetrics>& actual,
                Report* report);

}  // namespace perfbench
