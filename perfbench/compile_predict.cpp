// compile_predict: one client in a closed loop turns unique SQL text into a
// prediction — Optimizer::Plan (parse, bind, plan), PlanFeatureVector,
// Predictor::Predict — the paper's Fig. 1 customer-site path.
#include <cstdio>
#include <functional>
#include <unordered_set>

#include "bench.h"
#include "sql/parser.h"
#include "workload/generator.h"
#include "workload/problem_templates.h"
#include "workload/tpcds_templates.h"

namespace perfbench {

using namespace qpp;

namespace {

/// SQL texts are generated in blocks between timed stretches, so the
/// stream never repeats a text and generation never counts as query time.
constexpr size_t kSqlBlock = 4096;
/// Every kCheckEvery-th answer is kept for the reference check.
constexpr size_t kCheckEvery = 32;
/// Closed-loop stretches per untraced run.
constexpr int kRounds = 8;

struct State {
  Experiment exp;
  core::Predictor predictor;
  std::vector<workload::QueryTemplate> mix;
};

class SqlStream {
 public:
  SqlStream(const std::vector<workload::QueryTemplate>* mix, uint64_t seed)
      : mix_(mix), seed_(seed) {}
  /// Next unique SQL text; refills (untimed by the caller) when empty.
  bool Empty() const { return next_ >= block_.size(); }
  void Refill() {
    block_.clear();
    next_ = 0;
    while (block_.empty()) {
      auto queries = workload::GenerateWorkload(
          *mix_, kSqlBlock, seed_ ^ (0xC0DE5EEDull * ++blocks_));
      for (auto& q : queries) {
        if (seen_.insert(std::hash<std::string>{}(q.sql)).second) {
          block_.push_back(std::move(q));
        }
      }
    }
  }
  const workload::GeneratedQuery& Next() { return block_[next_++]; }

 private:
  const std::vector<workload::QueryTemplate>* mix_;
  uint64_t seed_;
  uint64_t blocks_ = 0;
  std::vector<workload::GeneratedQuery> block_;
  size_t next_ = 0;
  std::unordered_set<size_t> seen_;
};

struct Checked {
  linalg::Vector features;
  core::Prediction prediction;
};

struct LoopResult {
  std::vector<double> latency_s;
  std::vector<double> heavy_latency_s;
  double busy_s = 0.0;
  double cpu_s = 0.0;
  uint64_t failed = 0;
  std::vector<Checked> checked;
};

}  // namespace

void RunCompilePredict(const Options& opt, Report* report) {
  Layers layers(opt.trace);
  std::vector<double> train_to_answer;
  const std::unique_ptr<State> state = SetUp<State>(
      opt.trace ? 1 : kSetupRepeats, report, [&](bool) {
        auto s = std::make_unique<State>();
        s->exp = BuildExperiment(&layers);
        const auto t0 = Clock::now();
        layers.Time("core.train_predictor",
                    [&] { s->predictor.Train(s->exp.train); });
        s->predictor.Predict(s->exp.test.front().query_features);
        train_to_answer.push_back(Seconds(t0, Clock::now()));
        const auto tpcds = workload::TpcdsTemplates();
        const auto problem = workload::ProblemTemplates();
        for (int r = 0; r < 3; ++r) {
          s->mix.insert(s->mix.end(), tpcds.begin(), tpcds.end());
        }
        for (int r = 0; r < 2; ++r) {
          s->mix.insert(s->mix.end(), problem.begin(), problem.end());
        }
        // Warm-up: a few hundred queries through the whole path.
        SqlStream warm(&s->mix, opt.seed ^ 0x3A9Full);
        warm.Refill();
        for (int i = 0; i < 256; ++i) {
          auto plan = s->exp.optimizer->Plan(warm.Next().sql);
          if (plan.ok()) s->predictor.Predict(ml::PlanFeatureVector(plan.value()));
        }
        return s;
      });
  ReportSetupLayers(layers, report);
  const optimizer::Optimizer& optimizer = *state->exp.optimizer;
  const core::Predictor& predictor = state->predictor;

  SqlStream sql(&state->mix, opt.seed);
  core::Predictor::BatchScratch scratch;
  std::vector<core::Prediction> out;
  std::vector<linalg::Vector> one(1);
  core::Predictor::BatchStageTimes stages;

  // One closed-loop stretch of `seconds` wall time. Traced stretches split
  // each query at the layer boundaries (parse, plan, features, predict with
  // its stage times); untraced ones make the plain public calls.
  const auto run_loop = [&](double seconds, bool traced) {
    LoopResult r;
    double refill_cpu_s = 0.0;
    const double cpu0 = ProcessCpuSeconds();
    const auto start = Clock::now();
    size_t n = 0;
    while (Seconds(start, Clock::now()) < seconds) {
      if (sql.Empty()) {
        // Generating the next block of texts is not query work.
        const double c0 = ProcessCpuSeconds();
        sql.Refill();
        refill_cpu_s += ProcessCpuSeconds() - c0;
      }
      const workload::GeneratedQuery& q = sql.Next();
      core::Prediction pred;
      linalg::Vector features;
      bool ok = true;
      const auto t0 = Clock::now();
      if (!traced) {
        Result<optimizer::PhysicalPlan> plan = optimizer.Plan(q.sql);
        if (plan.ok()) {
          features = ml::PlanFeatureVector(plan.value());
          pred = predictor.Predict(features);
        } else {
          ok = false;
        }
      } else {
        auto stmt = layers.Time("sql.parse", [&] { return sql::Parse(q.sql); });
        if (stmt.ok()) {
          auto plan = layers.Time("optimizer.plan", [&] {
            return optimizer.Plan(*stmt.value(), q.sql);
          });
          if (plan.ok()) {
            features = layers.Time("ml.plan_features", [&] {
              return ml::PlanFeatureVector(plan.value());
            });
            one[0] = features;
            layers.Time("core.predict", [&] {
              predictor.PredictBatchInto(one, &scratch, &out, nullptr,
                                         &stages);
            });
            pred = out[0];
          } else {
            ok = false;
          }
        } else {
          ok = false;
        }
      }
      const double lat = Seconds(t0, Clock::now());
      r.busy_s += lat;
      if (!ok) {
        ++r.failed;
        continue;
      }
      r.latency_s.push_back(lat);
      if (q.family == "problem") r.heavy_latency_s.push_back(lat);
      if (n++ % kCheckEvery == 0) r.checked.push_back({features, pred});
    }
    r.cpu_s = ProcessCpuSeconds() - cpu0 - refill_cpu_s;
    return r;
  };

  const auto check = [&](const LoopResult& r, const char* phase) {
    PhaseCounts c;
    c.attempted = r.latency_s.size() + r.failed;
    c.model = r.latency_s.size();
    c.failed = r.failed;
    PrintPhase("compile_predict", phase, c);
    report->AddOps(c.attempted, c.failed);
    for (const Checked& ch : r.checked) {
      const std::string why = CheckPrediction(predictor, ch.features,
                                              ch.prediction);
      if (!why.empty()) report->Fail(std::string("compile_predict: ") + why);
      if (!SameBits(ch.prediction, predictor.Predict(ch.features))) {
        report->Fail("compile_predict: answer differs from Predict");
      }
    }
  };

  if (!opt.trace) {
    // kRounds stretches; latency and throughput are medians over them, so
    // a burst of load from other tenants of the host spoils one stretch,
    // not the figure.
    std::vector<double> p50, rate, all, heavy;
    double cpu_s = 0.0;
    for (int round = 0; round < kRounds; ++round) {
      const LoopResult r = run_loop(opt.seconds / kRounds, false);
      char phase[32];
      std::snprintf(phase, sizeof(phase), "closed-loop-%d", round);
      check(r, phase);
      p50.push_back(Summarize(r.latency_s).p50);
      rate.push_back(static_cast<double>(r.latency_s.size()) / r.busy_s);
      cpu_s += r.cpu_s;
      all.insert(all.end(), r.latency_s.begin(), r.latency_s.end());
      heavy.insert(heavy.end(), r.heavy_latency_s.begin(),
                   r.heavy_latency_s.end());
    }
    report->Set("cpu_us_per_op", 1e6 * cpu_s / static_cast<double>(all.size()));
    std::printf("compile_predict: %zu queries, p50 %.1f us, p99 %.1f us, "
                "problem-template p99 %.1f us (n=%zu), %.0f queries/s\n",
                all.size(), Median(p50) * 1e6, WindowedTail(all) * 1e6,
                WindowedTail(heavy) * 1e6, heavy.size(), Median(rate));
  } else {
    // Half the run untraced (the baseline for the tracing overhead), half
    // traced.
    const LoopResult plain = run_loop(opt.seconds / 2, false);
    check(plain, "closed-loop-untraced");
    const LoopResult traced = run_loop(opt.seconds / 2, true);
    check(traced, "closed-loop-traced");
    const double n = static_cast<double>(traced.latency_s.size());
    const double per = 1e6 / n;
    const auto wall = [&](const char* name) {
      return layers.Get(name).wall_s * per;
    };
    const auto cpu = [&](const char* name) {
      return layers.Get(name).cpu_s * per;
    };
    const double e2e = traced.busy_s * per;
    report->Set("sql.parse_us", wall("sql.parse"));
    report->Set("sql.parse_cpu_us", cpu("sql.parse"));
    report->Set("optimizer.plan_us", wall("optimizer.plan"));
    report->Set("optimizer.plan_cpu_us", cpu("optimizer.plan"));
    report->Set("ml.plan_features_us", wall("ml.plan_features"));
    report->Set("ml.plan_features_cpu_us", cpu("ml.plan_features"));
    report->Set("core.predict_us", wall("core.predict"));
    report->Set("core.predict_cpu_us", cpu("core.predict"));
    const double stage_sum = stages.preprocess_s + stages.kernel_s +
                             stages.solve_s + stages.project_s +
                             stages.knn_s + stages.assemble_s;
    report->Set("ml.preprocess_us", stages.preprocess_s * per);
    report->Set("ml.kernel_us", stages.kernel_s * per);
    report->Set("linalg.solve_us", stages.solve_s * per);
    report->Set("ml.project_us", stages.project_s * per);
    report->Set("ml.knn_us", stages.knn_s * per);
    report->Set("core.assemble_us", stages.assemble_s * per);
    report->Set("core.predict_self_us", wall("core.predict") - stage_sum * per);
    report->Set("process.cpu_us_per_req",
                1e6 * plain.cpu_s / static_cast<double>(plain.latency_s.size()));
    const double attributed = wall("sql.parse") + wall("optimizer.plan") +
                              wall("ml.plan_features") + wall("core.predict");
    const double plain_rate =
        static_cast<double>(plain.latency_s.size()) / plain.busy_s;
    report->Set("e2e.throughput_qps", plain_rate);
    report->Set("e2e.capacity_qps", plain_rate);
    report->Set("e2e.latency_p50_us", Summarize(plain.latency_s).p50 * 1e6);
    report->Set("e2e.latency_p99_us", WindowedTail(plain.latency_s) * 1e6);
    report->Set("e2e.heavy_p99_us", WindowedTail(plain.heavy_latency_s) * 1e6);
    const double plain_mean =
        plain.busy_s / static_cast<double>(plain.latency_s.size()) * 1e6;
    report->Set("trace.e2e_us", e2e);
    report->Set("trace.unattributed_us", e2e - attributed);
    report->Set("trace.unattributed_pct", 100.0 * (e2e - attributed) / e2e);
    report->Set("trace.overhead_pct", 100.0 * (e2e - plain_mean) / plain_mean);
    std::printf("compile_predict traced: e2e %.2f us/query = parse %.2f + "
                "plan %.2f + features %.2f + predict %.2f (self %.2f, "
                "stages %.2f) + unattributed %.2f; untraced %.2f us/query\n",
                e2e, wall("sql.parse"), wall("optimizer.plan"),
                wall("ml.plan_features"), wall("core.predict"),
                wall("core.predict") - stage_sum * per, stage_sum * per,
                e2e - attributed, plain_mean);
  }

  // Held-out quality through the same compile path, from SQL text.
  std::vector<engine::QueryMetrics> predicted, actual;
  for (const size_t idx : state->exp.held_out) {
    const workload::PooledQuery& q = state->exp.pools.queries[idx];
    auto plan = optimizer.Plan(q.query.sql);
    if (!plan.ok()) {
      report->Fail("held-out query failed to plan");
      continue;
    }
    const linalg::Vector features = ml::PlanFeatureVector(plan.value());
    if (features != ml::PlanFeatureVector(q.plan)) {
      report->Fail("held-out plan features differ from the pooled plan's");
    }
    const core::Prediction p = predictor.Predict(features);
    const std::string why = CheckPrediction(predictor, features, p);
    if (!why.empty()) report->Fail("held-out: " + why);
    predicted.push_back(p.metrics);
    actual.push_back(q.metrics);
  }
  ReportRisk(predicted, actual, report);

  // retrain_s: more examples-to-first-answer cycles, after the measured
  // phases.
  if (!opt.trace) {
    const linalg::Vector& q = state->exp.test.front().query_features;
    const core::Prediction expected = predictor.Predict(q);
    for (int i = 0; i < kExtraRetrains; ++i) {
      const auto t0 = Clock::now();
      core::Predictor fresh;
      fresh.Train(state->exp.train);
      const core::Prediction p = fresh.Predict(q);
      train_to_answer.push_back(Seconds(t0, Clock::now()));
      report->AddOps(1, 0);
      if (!SameBits(p, expected)) {
        report->AddOps(0, 1);
        report->Fail("compile_predict: retraining on the same examples "
                     "changed an answer");
      }
    }
    report->Set("retrain_s", Median(train_to_answer));
  }
}

}  // namespace perfbench
