// retrain: repeatedly takes the Experiment-1 training set to a new model
// generation answering in a fabric — TwoStepPredictor::Train,
// SaveModelFile / LoadModelFile of the base model, PublishTwoStep, one
// answered request — then lets the fresh generation answer the 61 held-out
// queries. The write path beside the three read paths.
#include <algorithm>
#include <cstdio>
#include <random>

#include "bench.h"
#include "core/model_io.h"
#include "core/two_step.h"
#include "fabric/fabric.h"
#include "ml/kcca.h"
#include "ml/kdtree.h"
#include "ml/preprocess.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace perfbench {

using namespace qpp;

namespace {

struct RetrainState {
  Experiment exp;
  std::unique_ptr<fabric::Fabric> fabric;
  std::unique_ptr<core::TwoStepPredictor> current;
};

struct Cycle {
  double total_s = 0.0;  ///< examples to the new generation's first answer
  double cpu_s = 0.0;    ///< process CPU over the same interval
  std::vector<double> held_out_s;
  std::vector<double> heavy_s;
  uint64_t failed = 0;
};

const core::Predictor& ModelFor(const core::TwoStepPredictor& ts,
                                const std::string& shard) {
  for (const workload::QueryType t :
       {workload::QueryType::kFeather, workload::QueryType::kGolfBall,
        workload::QueryType::kBowlingBall}) {
    if (shard == fabric::ReplicaLabel(workload::QueryTypeName(t), 0) &&
        ts.CategoryModel(t) != nullptr) {
      return *ts.CategoryModel(t);
    }
  }
  return ts.base();
}

/// Bit identity with the labeled offline model plus the brute-force
/// reference; empty when the answer is right (or a labeled fallback).
std::string CheckServed(const core::TwoStepPredictor& ts,
                        const linalg::Vector& features,
                        const serve::ServeResponse& resp) {
  if (resp.degraded()) return "";
  const core::Predictor& model = ModelFor(ts, resp.shard);
  if (!SameBits(resp.prediction, model.Predict(features))) {
    return "served answer differs from the offline model of " + resp.shard;
  }
  return CheckPrediction(model, features, resp.prediction);
}

}  // namespace

void RunRetrain(const Options& opt, Report* report) {
  Layers layers(opt.trace);
  const std::string path = opt.scratch_dir + "/perfbench_retrain_model.qpp";
  const std::unique_ptr<RetrainState> state = SetUp<RetrainState>(
      opt.trace ? 1 : kSetupRepeats, report, [&](bool) {
        auto s = std::make_unique<RetrainState>();
        s->exp = BuildExperiment(&layers);
        serve::ServiceConfig service;
        service.num_workers = 1;
        s->fabric = std::make_unique<fabric::Fabric>(
            fabric::MakePerPoolFabricConfig(1, service), s->exp.calibration);
        s->current = std::make_unique<core::TwoStepPredictor>();
        s->current->Train(s->exp.train);
        fabric::PublishTwoStep(*s->current, s->fabric.get());
        Ask(s->fabric.get(), s->exp.test.front().query_features, -1.0);
        return s;
      });
  RetrainState* s = state.get();
  const std::vector<ml::TrainingExample>& test = s->exp.test;
  uint64_t last_generation = 0;
  // The workload seed picks the query each new generation answers first
  // and the order in which it then answers the held-out queries.
  const linalg::Vector& first_query = test[opt.seed % test.size()].query_features;
  std::vector<size_t> order(test.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(opt.seed);
  std::shuffle(order.begin(), order.end(), rng);

  // One retrain cycle; traced cycles time each step and record the par
  // layer's regions.
  Layers off(false);
  const auto cycle = [&](Layers& timers, obs::TraceRecorder* recorder) {
    const bool traced = recorder != nullptr;
    Cycle c;
    const double cpu0 = ProcessCpuSeconds();
    const auto t0 = Clock::now();
    if (traced) par::SetObservability(nullptr, recorder);
    auto ts = std::make_unique<core::TwoStepPredictor>();
    timers.Time("core.train_two_step", [&] { ts->Train(s->exp.train); });
    if (traced) par::SetObservability(nullptr, nullptr);
    const Status saved = timers.Time("core.save", [&] {
      return core::SaveModelFile(ts->base(), path);
    });
    Result<core::Predictor> loaded =
        timers.Time("core.load", [&] { return core::LoadModelFile(path); });
    timers.Time("fabric.publish",
                [&] { return fabric::PublishTwoStep(*ts, s->fabric.get()); });
    const serve::ServeResponse first = timers.Time("serve.first_answer", [&] {
      return Ask(s->fabric.get(), first_query, -1.0);
    });
    c.total_s = Seconds(t0, Clock::now());
    c.cpu_s = ProcessCpuSeconds() - cpu0;

    std::string why;
    if (!saved.ok()) {
      why = "SaveModelFile: " + saved.message();
    } else if (!loaded.ok()) {
      why = "LoadModelFile: " + loaded.status().message();
    } else if (!SameBits(loaded.value().Predict(first_query),
                         ts->base().Predict(first_query))) {
      why = "the loaded base model answers differently from the saved one";
    } else if (first.model_generation <= last_generation) {
      why = "the first answer did not come from the new generation";
    } else {
      why = CheckServed(*ts, first_query, first);
    }
    last_generation = first.model_generation;
    if (!why.empty()) {
      ++c.failed;
      report->Fail("retrain: " + why);
    }
    s->current = std::move(ts);

    // The fresh generation answers the held-out queries, one at a time.
    for (const size_t i : order) {
      const workload::PooledQuery& q =
          s->exp.pools.queries[s->exp.split.test[i]];
      const auto a0 = Clock::now();
      const serve::ServeResponse resp = Ask(
          s->fabric.get(), test[i].query_features, q.plan.optimizer_cost);
      const double lat = Seconds(a0, Clock::now());
      c.held_out_s.push_back(lat);
      if (q.type != workload::QueryType::kFeather) c.heavy_s.push_back(lat);
      const std::string bad = CheckServed(*s->current, test[i].query_features,
                                          resp);
      if (!bad.empty()) {
        ++c.failed;
        report->Fail("retrain held-out: " + bad);
      }
    }
    return c;
  };

  // Whole cycles until the run's time is used (at least one).
  const auto run_cycles = [&](double seconds, Layers& timers,
                              obs::TraceRecorder* recorder, const char* phase) {
    std::vector<Cycle> cycles;
    const auto start = Clock::now();
    do {
      cycles.push_back(cycle(timers, recorder));
    } while (Seconds(start, Clock::now()) < seconds);
    PhaseCounts pc;
    for (const Cycle& c : cycles) {
      pc.attempted += 1 + c.held_out_s.size();
      pc.failed += c.failed;
    }
    pc.model = pc.attempted - pc.failed;
    PrintPhase("retrain", phase, pc);
    report->AddOps(pc.attempted, pc.failed);
    return cycles;
  };

  if (!opt.trace) {
    const std::vector<Cycle> cycles =
        run_cycles(opt.seconds, off, nullptr, "retrain-cycles");
    std::vector<double> totals, cpus, held, heavy, rates;
    for (const Cycle& c : cycles) {
      totals.push_back(c.total_s);
      cpus.push_back(c.cpu_s);
      held.insert(held.end(), c.held_out_s.begin(), c.held_out_s.end());
      heavy.insert(heavy.end(), c.heavy_s.begin(), c.heavy_s.end());
      double busy = 0.0;
      for (const double v : c.held_out_s) busy += v;
      rates.push_back(static_cast<double>(c.held_out_s.size()) / busy);
    }
    const Summary h = Summarize(held);
    report->Set("retrain_s", Median(totals));
    report->Set("cpu_us_per_op", 1e6 * Median(cpus));
    std::printf("retrain: %zu cycles, median %.3f s examples-to-answering "
                "(min %.3f, max %.3f); held-out answers p50 %.1f us, p%.0f "
                "%.1f us, golf/bowling p%.0f %.1f us, %.0f answers/s\n",
                cycles.size(), Median(totals),
                *std::min_element(totals.begin(), totals.end()),
                *std::max_element(totals.begin(), totals.end()), h.p50 * 1e6,
                h.tail_q * 100, h.tail * 1e6, Summarize(heavy).tail_q * 100,
                Summarize(heavy).tail * 1e6, Median(rates));
  } else {
    ReportSetupLayers(layers, report);
    const std::vector<Cycle> plain =
        run_cycles(opt.seconds / 2, off, nullptr, "retrain-untraced");
    layers = Layers(true);
    obs::TraceRecorder recorder;
    const std::vector<Cycle> traced =
        run_cycles(opt.seconds / 2, layers, &recorder, "retrain-traced");
    const double n = static_cast<double>(traced.size());
    double e2e = 0.0, cpu = 0.0, plain_e2e = 0.0;
    for (const Cycle& c : traced) {
      e2e += c.total_s;
      cpu += c.cpu_s;
    }
    std::vector<double> plain_held, plain_heavy, plain_rates;
    for (const Cycle& c : plain) {
      plain_e2e += c.total_s;
      double busy = 0.0;
      for (const double v : c.held_out_s) busy += v;
      plain_rates.push_back(static_cast<double>(c.held_out_s.size()) / busy);
      plain_held.insert(plain_held.end(), c.held_out_s.begin(), c.held_out_s.end());
      plain_heavy.insert(plain_heavy.end(), c.heavy_s.begin(), c.heavy_s.end());
    }
    // One client answering held-out queries closed-loop: its rate per
    // cycle, median over cycles (a closed loop's capacity is its rate).
    report->Set("e2e.throughput_qps", Median(plain_rates));
    report->Set("e2e.capacity_qps", Median(plain_rates));
    report->Set("e2e.latency_p50_us", Summarize(plain_held).p50 * 1e6);
    report->Set("e2e.latency_p99_us", Summarize(plain_held).tail * 1e6);
    report->Set("e2e.heavy_p99_us", Summarize(plain_heavy).tail * 1e6);
    plain_e2e /= static_cast<double>(plain.size());
    const auto wall = [&](const char* name) { return layers.Get(name).wall_s / n; };
    report->Set("core.train_two_step_s", wall("core.train_two_step"));
    report->Set("core.train_two_step_cpu_s", layers.Get("core.train_two_step").cpu_s / n);
    report->Set("core.save_ms", 1e3 * wall("core.save"));
    report->Set("core.load_ms", 1e3 * wall("core.load"));
    report->Set("fabric.publish_ms", 1e3 * wall("fabric.publish"));
    report->Set("serve.first_answer_us", 1e6 * wall("serve.first_answer"));
    report->Set("process.cpu_s_per_retrain", cpu / n);
    report->Set("process.cpu_wall_ratio_retrain", cpu / e2e);
    double par_s = 0.0;
    for (const obs::TraceEvent& ev : recorder.Events()) {
      if (ev.phase == 'X' && ev.category == "par") {
        par_s += 1e-6 * static_cast<double>(ev.dur_us);
      }
    }
    report->Set("par.region_ms", 1e3 * par_s / n);
    const double attributed = wall("core.train_two_step") + wall("core.save") +
                              wall("core.load") + wall("fabric.publish") +
                              wall("serve.first_answer");
    report->Set("trace.e2e_us", 1e6 * e2e / n);
    report->Set("trace.unattributed_us", 1e6 * (e2e / n - attributed));
    report->Set("trace.unattributed_pct", 100.0 * (e2e / n - attributed) / (e2e / n));
    report->Set("trace.overhead_pct", 100.0 * (e2e / n - plain_e2e) / plain_e2e);

    // The training layers on the same inputs: KCCA with the ICD solver at
    // N=1027 (the base model) and the exact solver at N=230 (the golf-ball
    // expert), and the k-d tree over the base model's projection.
    const auto kcca_inputs = [](const std::vector<ml::TrainingExample>& ex) {
      const ml::FeatureMatrices m = ml::StackExamples(ex);
      ml::Preprocessor px(true, true), py(true, true);
      px.Fit(m.x);
      py.Fit(m.y);
      return std::make_pair(px.Transform(m.x), py.Transform(m.y));
    };
    std::vector<ml::TrainingExample> golf;
    for (const ml::TrainingExample& ex : s->exp.train) {
      if (workload::ClassifyElapsed(ex.metrics.elapsed_seconds) ==
          workload::QueryType::kGolfBall) {
        golf.push_back(ex);
      }
    }
    const auto [bx, by] = kcca_inputs(s->exp.train);
    const auto [gx, gy] = kcca_inputs(golf);
    ml::KccaOptions icd;
    ml::KccaOptions exact;
    exact.solver = ml::KccaSolver::kExact;
    const ml::KccaModel base_kcca = layers.Time(
        "ml.kcca_train_icd", [&] { return ml::KccaModel::Train(bx, by, icd); });
    layers.Time("ml.kcca_train_exact",
                [&] { return ml::KccaModel::Train(gx, gy, exact); });
    ml::KdTree tree;
    layers.Time("ml.kdtree_build", [&] { tree.Build(base_kcca.x_projection()); });
    if (base_kcca.solver_used() != ml::KccaSolver::kIcd) {
      report->Fail("the N=1027 KCCA did not run the ICD solver");
    }
    report->Set("ml.kcca_train_icd_ms", 1e3 * layers.Get("ml.kcca_train_icd").wall_s);
    report->Set("ml.kcca_train_icd_cpu_ms", 1e3 * layers.Get("ml.kcca_train_icd").cpu_s);
    report->Set("ml.kcca_train_exact_ms", 1e3 * layers.Get("ml.kcca_train_exact").wall_s);
    report->Set("ml.kcca_train_exact_cpu_ms", 1e3 * layers.Get("ml.kcca_train_exact").cpu_s);
    report->Set("ml.kdtree_build_ms", 1e3 * layers.Get("ml.kdtree_build").wall_s);
    std::printf("retrain traced: %.3f s/cycle = train %.3f + save %.4f + load "
                "%.4f + publish %.4f + first answer %.6f + unattributed %.6f; "
                "untraced %.3f s/cycle; CPU/wall %.2f\n",
                e2e / n, wall("core.train_two_step"), wall("core.save"),
                wall("core.load"), wall("fabric.publish"),
                wall("serve.first_answer"), e2e / n - attributed, plain_e2e,
                cpu / e2e);
  }

  // Held-out quality of the newest generation: its two-step model's
  // answers (which the fabric serves bit-identically, as checked in every
  // cycle), with the as-served figure printed beside it.
  std::vector<engine::QueryMetrics> model, served, actual;
  for (const size_t idx : s->exp.held_out) {
    const workload::PooledQuery& q = s->exp.pools.queries[idx];
    const linalg::Vector features = ml::PlanFeatureVector(q.plan);
    model.push_back(s->current->Predict(features).metrics);
    served.push_back(
        Ask(s->fabric.get(), features, q.plan.optimizer_cost).prediction.metrics);
    actual.push_back(q.metrics);
  }
  PrintServedRisk("retrain", served, actual);
  ReportRisk(model, actual, report);
  s->fabric->Shutdown();
  std::remove(path.c_str());
}

}  // namespace perfbench
