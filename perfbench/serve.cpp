// serve_unique / serve_repeat: one generator thread sends requests on an
// open-loop schedule into a per-pool fabric (fabric::MakePerPoolFabricConfig,
// loaded with PublishTwoStep). Each workload offers a light and a heavy
// fixed rate, then searches for the highest rate whose p99 holds the limit
// with no growing backlog. serve_unique never repeats a feature vector, so
// neither the route cache nor the result cache can answer; serve_repeat
// cycles a few hundred distinct plans, so both caches answer almost
// everything.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <random>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "core/two_step.h"
#include "fabric/fabric.h"
#include "obs/trace.h"
#include "par/thread_pool.h"

namespace perfbench {

using namespace qpp;

namespace {

/// Offered rates and the latency limit (README "Rates and the p99 limit").
constexpr double kLightRate = 2000.0;    // requests/s
constexpr double kHeavyRate = 6000.0;    // requests/s
constexpr double kP99Limit = 0.025;      // s, from each scheduled send
constexpr int kSearchSteps = 8;
/// Rounds of alternating light and saturated phases.
constexpr int kRounds = 4;
/// Saturation phase: as fast as answers return, this many in flight.
constexpr size_t kSaturateWindow = 64;
constexpr double kSaturateCap = 300000.0;  // requests/s, sizes the buffers
/// serve_repeat's working set of distinct plans.
constexpr size_t kRepeatPlans = 256;
/// serve_unique keeps every kCheckEvery-th answer for the full check.
constexpr size_t kCheckEvery = 16;

enum Label : uint8_t { kFeather, kGolf, kBowling, kCatchAll, kNoLabel };

struct ServeState {
  Experiment exp;
  core::TwoStepPredictor two_step;
  std::vector<DistinctPlan> plans;
  std::vector<size_t> cardsum_dims;
  // Declared before the fabric, which records into it.
  std::unique_ptr<obs::TraceRecorder> recorder;
  std::unique_ptr<fabric::Fabric> fabric;
  std::string labels[4];
  const core::Predictor* models[4] = {nullptr, nullptr, nullptr, nullptr};
  /// serve_repeat: the working set, and for each entry the label the
  /// classifier routes it to, that model's offline answer and the base
  /// model's (the catch-all's) offline answer.
  std::vector<size_t> working_set;
  std::vector<Label> expected_label;
  std::vector<core::Prediction> expected;
  std::vector<core::Prediction> expected_base;
};

/// The request stream. serve_unique: request i is distinct plan
/// perm[i % B], with every estimated-cardinality sum scaled by a seeded
/// factor in [0.98, 1.02] from the second pass over the B plans on, as a
/// re-instantiated template with other constants would be; the stream is
/// checked to never repeat a vector. serve_repeat: request i is working-set
/// entry i % W.
class RequestStream {
 public:
  RequestStream(const ServeState* s, bool repeat, uint64_t seed)
      : s_(s), repeat_(repeat), seed_(seed) {
    perm_.resize(s->plans.size());
    for (size_t i = 0; i < perm_.size(); ++i) perm_[i] = i;
    std::mt19937_64 rng(seed ^ 0x5E5Eull);
    std::shuffle(perm_.begin(), perm_.end(), rng);
  }

  /// Plan index (into plans, or working set slot) and features of the
  /// next request.
  void Next(size_t* slot, linalg::Vector* features) {
    const uint64_t i = next_++;
    if (repeat_) {
      *slot = i % s_->working_set.size();
      *features = s_->plans[s_->working_set[*slot]].features;
      return;
    }
    const size_t b = perm_.size();
    *slot = perm_[i % b];
    *features = s_->plans[*slot].features;
    const uint64_t pass = i / b;
    if (pass == 0) return;
    std::mt19937_64 rng(seed_ ^ (i * 0x9E3779B97F4A7C15ull));
    std::uniform_real_distribution<double> jitter(0.98, 1.02);
    for (const size_t d : s_->cardsum_dims) (*features)[d] *= jitter(rng);
  }
  uint64_t issued() const { return next_; }
  void Skip(uint64_t n) { next_ += n; }

 private:
  const ServeState* s_;
  bool repeat_;
  uint64_t seed_;
  std::vector<size_t> perm_;
  uint64_t next_ = 0;
};

bool LoadRelated(const std::string& reason) {
  return reason == "overload" || reason == "fabric-exhausted" ||
         reason == "admission-shed" || reason == "deadline" ||
         reason == "circuit-open" || reason == "shutdown";
}

struct Kept {
  linalg::Vector features;
  serve::ServeResponse response;
};

struct PhaseResult {
  std::vector<double> latency_s;  ///< answered requests, from scheduled send
  std::vector<double> submit_s;   ///< time inside Fabric::Submit
  std::vector<double> late_s;     ///< generator lateness per send
  PhaseCounts counts;
  uint64_t load_fallbacks = 0;
  uint64_t mismatches = 0;
  bool backlog_grew = false;
  double cpu_s = 0.0;
  double wall_s = 0.0;
  std::vector<Kept> kept;
  Summary lat;
  bool Holds() const {
    return counts.failed == 0 && load_fallbacks == 0 && !backlog_grew &&
           lat.tail <= kP99Limit;
  }
};

Label LabelOf(const ServeState& s, const std::string& shard) {
  for (int l = 0; l < 4; ++l) {
    if (shard == s.labels[l]) return static_cast<Label>(l);
  }
  return kNoLabel;
}

/// Sends requests from this thread for `seconds`: on an open-loop schedule
/// of `rate` requests/s, or, when `window` > 0, as fast as answers return
/// with at most `window` in flight (the saturation phase; `rate` then only
/// sizes the buffers). A collector thread takes the answers in send order.
PhaseResult RunPhase(ServeState* s, RequestStream* stream, bool repeat,
                     double rate, double seconds, size_t window, bool keep) {
  PhaseResult r;
  const size_t cap = std::max<size_t>(1, static_cast<size_t>(rate * seconds));
  std::vector<std::future<serve::ServeResponse>> futures(cap);
  std::vector<Clock::time_point> due(cap);
  std::vector<Clock::time_point> sent(cap);
  std::vector<linalg::Vector> kept_features(keep ? cap : 0);
  std::vector<uint32_t> slots(cap);
  // (requests sent << 1) | all-sent flag; and answers collected.
  std::atomic<uint64_t> published{0};
  std::atomic<uint64_t> collected{0};
  r.latency_s.reserve(cap);
  r.submit_s.reserve(cap);
  r.late_s.reserve(cap);

  std::thread collector([&] {
    for (size_t j = 0;; ++j) {
      uint64_t seen = published.load(std::memory_order_acquire);
      while ((seen >> 1) <= j && (seen & 1) == 0) {
        published.wait(seen, std::memory_order_acquire);
        seen = published.load(std::memory_order_acquire);
      }
      if ((seen >> 1) <= j) break;  // all sent, all collected
      serve::ServeResponse resp;
      bool ok = true;
      try {
        resp = futures[j].get();
      } catch (...) {
        ok = false;
      }
      futures[j] = {};
      collected.store(j + 1, std::memory_order_release);
      collected.notify_one();
      if (!ok) {
        ++r.counts.failed;
        continue;
      }
      // Answered at: the send returned (the request was enqueued inside
      // Submit) plus the service's own enqueue-to-answer time. Inline
      // answers carry no service time. The collector's wake-up is not
      // part of it.
      r.latency_s.push_back(Seconds(due[j], sent[j]) + resp.latency_seconds);
      switch (resp.source) {
        case serve::ResponseSource::kModel: ++r.counts.model; break;
        case serve::ResponseSource::kCache: ++r.counts.cache; break;
        case serve::ResponseSource::kOptimizerFallback:
          ++r.counts.fallback;
          if (LoadRelated(resp.degraded_reason)) ++r.load_fallbacks;
          break;
      }
      if (repeat && !resp.degraded()) {
        // serve_repeat: every answer is compared with the offline answer
        // of the model its label names, for its working-set entry.
        const Label label = LabelOf(*s, resp.shard);
        const size_t slot = slots[j];
        if (label == kNoLabel ||
            !SameBits(resp.prediction,
                      label == kCatchAll ? s->expected_base[slot]
                                         : s->expected[slot]) ||
            (label != kCatchAll && label != s->expected_label[slot])) {
          ++r.mismatches;
        }
      }
      if (keep && !kept_features[j].empty()) {
        r.kept.push_back({std::move(kept_features[j]), std::move(resp)});
      }
    }
  });

  const double cpu0 = ProcessCpuSeconds();
  const auto start = Clock::now() + std::chrono::microseconds(500);
  const auto stop = start + std::chrono::nanoseconds(static_cast<int64_t>(1e9 * seconds));
  size_t n = 0;
  for (size_t i = 0; i < cap; ++i) {
    auto now = Clock::now();
    if (window > 0) {
      if (now >= stop) break;
      uint64_t done = collected.load(std::memory_order_acquire);
      while (i - done >= window) {
        collected.wait(done, std::memory_order_acquire);
        done = collected.load(std::memory_order_acquire);
      }
      now = Clock::now();
      due[i] = now;
    } else {
      due[i] = start + std::chrono::nanoseconds(static_cast<int64_t>(
                           1e9 * static_cast<double>(i) / rate));
    }
    serve::ServeRequest req;
    size_t slot = 0;
    stream->Next(&slot, &req.features);
    req.optimizer_cost = repeat ? s->plans[s->working_set[slot]].optimizer_cost
                                : s->plans[slot].optimizer_cost;
    slots[i] = static_cast<uint32_t>(slot);
    if (keep && !repeat && i % kCheckEvery == 0) kept_features[i] = req.features;
    // Spin to the send time: a sleeping generator wakes late on a virtual
    // machine whose idle vCPUs are descheduled.
    while ((now = Clock::now()) < due[i]) {
    }
    futures[i] = s->fabric->Submit(std::move(req));
    sent[i] = Clock::now();
    r.late_s.push_back(Seconds(due[i], now));
    r.submit_s.push_back(Seconds(now, sent[i]));
    n = i + 1;
    published.store(n << 1, std::memory_order_release);
    published.notify_one();
  }
  published.store((n << 1) | 1, std::memory_order_release);
  published.notify_one();
  collector.join();
  r.wall_s = Seconds(start, Clock::now());
  r.cpu_s = ProcessCpuSeconds() - cpu0;
  r.counts.attempted = n;
  // A growing backlog shows as latency rising through the phase: the last
  // quarter's median well above the first quarter's.
  const size_t q = r.latency_s.size() / 4;
  if (q > 0) {
    const double first = Median({r.latency_s.begin(), r.latency_s.begin() + q});
    const double last = Median({r.latency_s.end() - q, r.latency_s.end()});
    r.backlog_grew = last > 2.0 * first + 0.001;
  }
  r.lat = Summarize(r.latency_s);
  r.lat.tail = WindowedTail(r.latency_s);
  return r;
}

/// Fabric counters summed over every replica.
struct FabricCounts {
  uint64_t classified = 0;
  uint64_t route_cache_hits = 0;
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t batches = 0;
  uint64_t batched_requests = 0;
};

FabricCounts Counts(const fabric::Fabric& fab) {
  const fabric::FabricStatsSnapshot snap = fab.stats();
  FabricCounts c;
  c.classified = snap.classified;
  c.route_cache_hits = snap.route_cache_hits;
  for (const auto& g : snap.groups) {
    for (const auto& r : g.replicas) {
      c.requests += r.service.requests;
      c.cache_hits += r.service.cache_hits;
      c.batches += r.service.batches;
      c.batched_requests += r.service.batched_requests;
    }
  }
  return c;
}

FabricCounts Minus(const FabricCounts& a, const FabricCounts& b) {
  return {a.classified - b.classified, a.route_cache_hits - b.route_cache_hits,
          a.requests - b.requests,     a.cache_hits - b.cache_hits,
          a.batches - b.batches,       a.batched_requests - b.batched_requests};
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

/// A fresh per-pool fabric (one replica per group, one worker each) loaded
/// with the trained two-step model, recording into `recorder` when set.
void StartFabric(ServeState* s, obs::TraceRecorder* recorder, Layers* layers) {
  if (s->fabric) s->fabric->Shutdown();
  s->fabric.reset();
  serve::ServiceConfig service;
  service.num_workers = 1;
  fabric::FabricConfig config = fabric::MakePerPoolFabricConfig(1, service);
  config.trace = recorder;
  s->fabric = std::make_unique<fabric::Fabric>(std::move(config),
                                               s->exp.calibration);
  layers->Time("fabric.publish",
               [&] { return fabric::PublishTwoStep(s->two_step, s->fabric.get()); });
}

/// Warm-up before timing: serve_repeat sends every working-set entry once
/// (filling both caches); serve_unique sends 512 vectors from a stream with
/// another seed, which the run's stream never repeats.
void WarmUp(ServeState* s, bool repeat, uint64_t seed) {
  if (repeat) {
    for (size_t w = 0; w < s->working_set.size(); ++w) {
      Ask(s->fabric.get(), s->plans[s->working_set[w]].features,
          s->plans[s->working_set[w]].optimizer_cost);
    }
    return;
  }
  RequestStream warm(s, false, seed ^ 0xAAA5EEDull);
  warm.Skip(s->plans.size());
  for (int i = 0; i < 512; ++i) {
    size_t slot = 0;
    linalg::Vector f;
    warm.Next(&slot, &f);
    Ask(s->fabric.get(), f, s->plans[slot].optimizer_cost);
  }
}

/// Output checks on one phase: the full check (bit identity with the
/// labeled offline expert, routing, brute-force reference) on the kept
/// serve_unique answers, the collector's per-answer comparison on
/// serve_repeat. Each mismatch is a failed operation.
void CheckPhase(const ServeState& s, const char* workload, const char* phase,
                PhaseResult* r, Report* report) {
  const core::Predictor& base = s.two_step.base();
  if (r->mismatches > 0) {
    report->Fail(std::string(workload) + " " + phase + ": " +
                 std::to_string(r->mismatches) +
                 " answers differ from the offline model their label names");
  }
  for (const Kept& k : r->kept) {
    if (k.response.degraded()) continue;
    const Label label = LabelOf(s, k.response.shard);
    std::string why;
    if (label == kNoLabel) {
      why = "answer with unknown label '" + k.response.shard + "'";
    } else {
      const core::Predictor& model = *s.models[label];
      if (!SameBits(k.response.prediction, model.Predict(k.features))) {
        why = "served answer differs from the offline " + s.labels[label] +
              " model";
      } else {
        why = CheckPrediction(model, k.features, k.response.prediction);
      }
      if (why.empty() && label != kCatchAll) {
        const workload::QueryType routed = base.Predict(k.features).predicted_type;
        if (s.labels[label] != s.labels[static_cast<int>(routed)]) {
          why = "answered by " + s.labels[label] + " but classified " +
                workload::QueryTypeName(routed);
        }
      }
    }
    if (!why.empty()) {
      ++r->mismatches;
      report->Fail(std::string(workload) + " " + phase + ": " + why);
    }
  }
  r->counts.failed += r->mismatches;
  PrintPhase(workload, phase, r->counts);
  report->AddOps(r->counts.attempted, r->counts.failed);
}

struct TraceTotals {
  double classify_s = 0.0;
  uint64_t classify_n = 0;
  std::vector<double> queue_wait_s;
  double batch_s = 0.0;
  double batch_weighted_s = 0.0;  ///< sum of duration x batch size
  uint64_t batch_requests = 0;
  double cache_lookup_s = 0.0;
  double predict_s = 0.0;
  uint64_t predicted = 0;
  double respond_s = 0.0;
  std::map<std::string, double> stage_s;
};

uint64_t ArgU64(const obs::TraceEvent& e, const char* key) {
  for (const auto& [k, v] : e.args) {
    if (k == key) return std::strtoull(v.c_str(), nullptr, 10);
  }
  return 0;
}

/// Sums the program's own spans (events [from, to) of the recorder).
TraceTotals SumSpans(const std::vector<obs::TraceEvent>& events, size_t from,
                     size_t to) {
  TraceTotals t;
  std::map<uint64_t, uint64_t> wait_begin;
  for (size_t i = from; i < to && i < events.size(); ++i) {
    const obs::TraceEvent& e = events[i];
    const double dur = 1e-6 * static_cast<double>(e.dur_us);
    if (e.phase == 'b' && e.name == "queue_wait") {
      wait_begin[e.id] = e.ts_us;
    } else if (e.phase == 'e' && e.name == "queue_wait") {
      const auto it = wait_begin.find(e.id);
      if (it != wait_begin.end()) {
        t.queue_wait_s.push_back(1e-6 * static_cast<double>(e.ts_us - it->second));
        wait_begin.erase(it);
      }
    } else if (e.phase != 'X') {
      continue;
    } else if (e.name == "classify") {
      t.classify_s += dur;
      ++t.classify_n;
    } else if (e.name == "batch") {
      const uint64_t size = std::max<uint64_t>(1, ArgU64(e, "size"));
      t.batch_s += dur;
      t.batch_weighted_s += dur * static_cast<double>(size);
      t.batch_requests += size;
    } else if (e.name == "cache_lookup") {
      t.cache_lookup_s += dur;
    } else if (e.name == "predict" && e.category == "serve") {
      t.predict_s += dur;
      t.predicted += ArgU64(e, "misses");
    } else if (e.name == "respond") {
      t.respond_s += dur;
    } else if (e.category == "predict") {
      t.stage_s[e.name] += dur;
    }
  }
  return t;
}

}  // namespace

void RunServe(const Options& opt, bool repeat, Report* report) {
  const char* name = repeat ? "serve_repeat" : "serve_unique";
  Layers layers(opt.trace);
  const std::unique_ptr<ServeState> state = SetUp<ServeState>(
      opt.trace ? 1 : kSetupRepeats, report, [&](bool) {
        auto s = std::make_unique<ServeState>();
        s->exp = BuildExperiment(&layers);
        s->plans = DistinctPlans(s->exp);
        const std::vector<std::string> names = ml::PlanFeatureNames();
        for (size_t d = 0; d < names.size(); ++d) {
          if (names[d].ends_with("_cardsum")) s->cardsum_dims.push_back(d);
        }
        layers.Time("core.train_two_step",
                    [&] { s->two_step.Train(s->exp.train); });
        StartFabric(s.get(), nullptr, &layers);

        const core::Predictor& base = s->two_step.base();
        const workload::QueryType types[3] = {workload::QueryType::kFeather,
                                              workload::QueryType::kGolfBall,
                                              workload::QueryType::kBowlingBall};
        for (int l = 0; l < 3; ++l) {
          s->labels[l] = fabric::ReplicaLabel(workload::QueryTypeName(types[l]), 0);
          const core::Predictor* m = s->two_step.CategoryModel(types[l]);
          s->models[l] = m != nullptr ? m : &base;
        }
        s->labels[kCatchAll] = fabric::ReplicaLabel(s->fabric->catch_all_name(), 0);
        s->models[kCatchAll] = &base;
        if (repeat) {
          std::vector<size_t> idx(s->plans.size());
          for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
          std::mt19937_64 rng(opt.seed ^ 0x4E9EA7ull);
          std::shuffle(idx.begin(), idx.end(), rng);
          idx.resize(std::min(kRepeatPlans, idx.size()));
          s->working_set = idx;
          for (const size_t p : idx) {
            const linalg::Vector& f = s->plans[p].features;
            const workload::QueryType routed = base.Predict(f).predicted_type;
            const int l = static_cast<int>(routed);
            const bool expert = l < 3 && s->two_step.CategoryModel(routed) != nullptr;
            s->expected_label.push_back(expert ? static_cast<Label>(l) : kCatchAll);
            s->expected.push_back((expert ? *s->models[l] : base).Predict(f));
            s->expected_base.push_back(base.Predict(f));
          }
        }
        WarmUp(s.get(), repeat, opt.seed);
        return s;
      });
  ServeState* s = state.get();
  ReportSetupLayers(layers, report);
  RequestStream stream(s, repeat, opt.seed);

  const auto run_phase = [&](const char* phase, double rate, double seconds,
                             size_t window = 0) {
    const FabricCounts before = Counts(*s->fabric);
    PhaseResult r = RunPhase(s, &stream, repeat, rate, seconds, window, true);
    const FabricCounts d = Minus(Counts(*s->fabric), before);
    CheckPhase(*s, name, phase, &r, report);
    if (!repeat && (d.route_cache_hits > 0 || d.cache_hits > 0)) {
      report->Fail(std::string(name) + " " + phase +
                   ": a cache answered a never-repeated feature vector");
    }
    std::printf("%s %-10s rate %9.0f/s  p50 %8.1f us  p%.0f %9.1f us  "
                "late-p99 %7.1f us  batch %.2f  result-cache %.3f  "
                "route-cache %.3f  backlog %s\n",
                name, phase, rate, r.lat.p50 * 1e6, r.lat.tail_q * 100,
                r.lat.tail * 1e6, Summarize(r.late_s).tail * 1e6,
                Ratio(d.batched_requests, d.batches),
                Ratio(d.cache_hits, d.requests),
                Ratio(d.route_cache_hits, d.route_cache_hits + d.classified),
                r.backlog_grew ? "grew" : "steady");
    return std::make_pair(std::move(r), d);
  };

  // The open-loop block: kRounds rounds of a light and a saturated phase
  // (each figure is the median over rounds, so a burst of load from other
  // tenants of the host spoils one round, not the figure), a heavy phase,
  // and — in the traced run's untraced half — the capacity search.
  struct Block {
    std::vector<double> light_p50;
    std::vector<double> light_all;
    std::vector<double> saturated_rates;
    double saturated_cpu_s = 0.0;
    uint64_t saturated_answers = 0;
    PhaseResult heavy;
    double capacity = 0.0;
  };
  const auto open_loop = [&](double seconds, bool search) {
    Block b;
    const double light_share = search ? 0.2 : 0.4;
    const double sat_share = light_share;
    const double heavy_share = search ? 0.1 : 0.2;
    FabricCounts light_counts;
    for (int round = 0; round < kRounds; ++round) {
      char phase[32];
      std::snprintf(phase, sizeof(phase), "light-%d", round);
      auto [light, lc] =
          run_phase(phase, kLightRate, seconds * light_share / kRounds);
      b.light_p50.push_back(light.lat.p50);
      b.light_all.insert(b.light_all.end(), light.latency_s.begin(),
                         light.latency_s.end());
      light_counts.requests += lc.requests;
      light_counts.cache_hits += lc.cache_hits;
      std::snprintf(phase, sizeof(phase), "saturate-%d", round);
      auto [sat, sc] = run_phase(phase, kSaturateCap,
                                 seconds * sat_share / kRounds,
                                 kSaturateWindow);
      (void)sc;
      b.saturated_rates.push_back(static_cast<double>(sat.counts.attempted) /
                                  sat.wall_s);
      b.saturated_cpu_s += sat.cpu_s;
      b.saturated_answers += sat.counts.attempted;
    }
    if (repeat && Ratio(light_counts.cache_hits, light_counts.requests) < 0.9) {
      report->Fail("serve_repeat: result cache answered under 90% at the light rate");
    }
    b.heavy = run_phase("heavy", kHeavyRate, seconds * heavy_share).first;
    if (!search) return b;
    // Capacity search from 80% of the saturated rate: grow the rate by
    // 1.25x while the limit holds, then bisect (geometrically) between the
    // best hold and the lowest miss.
    const double step_s = seconds *
                          (1.0 - light_share - sat_share - heavy_share) /
                          kSearchSteps;
    double hold = 0.0;
    double miss = 0.0;
    double rate = 0.8 * Median(b.saturated_rates);
    for (int step = 0; step < kSearchSteps; ++step) {
      char phase[32];
      std::snprintf(phase, sizeof(phase), "search-%d", step);
      if (run_phase(phase, rate, step_s).first.Holds()) {
        hold = std::max(hold, rate);
      } else {
        miss = miss == 0.0 ? rate : std::min(miss, rate);
      }
      if (miss == 0.0) {
        rate = std::min(kSaturateCap, rate * 1.25);
      } else if (hold == 0.0) {
        rate = rate / 1.25;
      } else {
        rate = std::sqrt(hold * miss);
      }
    }
    if (hold == 0.0) report->Fail(std::string(name) + ": no rate held the p99 limit");
    b.capacity = hold;
    return b;
  };
  const auto print_block = [&](const Block& b) {
    std::printf("%s light p50 %.1f us (p99 %.1f us); saturated %.0f answers/s "
                "with %zu in flight, %.2f us process CPU per answer; heavy "
                "p50 %.1f us, p99 %.1f us\n",
                name, Median(b.light_p50) * 1e6,
                WindowedTail(b.light_all) * 1e6, Median(b.saturated_rates),
                kSaturateWindow,
                1e6 * b.saturated_cpu_s / static_cast<double>(b.saturated_answers),
                b.heavy.lat.p50 * 1e6, b.heavy.lat.tail * 1e6);
    if (b.capacity > 0.0) {
      std::printf("%s capacity %.0f requests/s (p99 <= %.0f ms, no growing "
                  "backlog)\n", name, b.capacity, kP99Limit * 1e3);
    }
  };

  if (!opt.trace) {
    const Block b = open_loop(opt.seconds, /*search=*/false);
    print_block(b);
    report->Set("cpu_us_per_op", 1e6 * b.saturated_cpu_s /
                                     static_cast<double>(b.saturated_answers));
  } else {
    // Untraced half (the tracing-overhead baseline and the unbounded
    // end-to-end figures), then light and heavy phases against a fabric
    // recording into a TraceRecorder (FabricConfig::trace and
    // par::SetObservability).
    const Block b = open_loop(opt.seconds / 2, /*search=*/true);
    print_block(b);
    report->Set("e2e.latency_p50_us", Median(b.light_p50) * 1e6);
    report->Set("e2e.latency_p99_us", WindowedTail(b.light_all) * 1e6);
    report->Set("e2e.heavy_p99_us", b.heavy.lat.tail * 1e6);
    report->Set("e2e.throughput_qps", Median(b.saturated_rates));
    report->Set("e2e.capacity_qps", b.capacity);
    report->Set("process.cpu_us_per_req",
                1e6 * b.saturated_cpu_s / static_cast<double>(b.saturated_answers));
    double plain_e2e = 0.0;
    for (const double v : b.light_all) plain_e2e += v;
    plain_e2e /= static_cast<double>(b.light_all.size());
    obs::TraceRecorderOptions ro;
    ro.max_events = 8u << 20;
    s->recorder = std::make_unique<obs::TraceRecorder>(ro);
    StartFabric(s, s->recorder.get(), &layers);
    WarmUp(s, repeat, opt.seed ^ 0x7ull);
    par::SetObservability(nullptr, s->recorder.get());
    const size_t ev0 = s->recorder->event_count();
    const double light_s = opt.seconds / 2 * 0.5;
    const double heavy_s = opt.seconds / 2 * 0.5;
    auto [light, light_counts] = run_phase("light-traced", kLightRate, light_s);
    const size_t ev1 = s->recorder->event_count();
    auto [heavy, heavy_counts] = run_phase("heavy-traced", kHeavyRate, heavy_s);
    par::SetObservability(nullptr, nullptr);
    const std::vector<obs::TraceEvent> events = s->recorder->Events();
    const size_t ev2 = events.size();
    if (s->recorder->dropped_count() > 0) report->Fail("trace events dropped");

    // Per-layer figures over both traced phases.
    const TraceTotals all = SumSpans(events, ev0, ev2);
    const FabricCounts d = [&] {
      FabricCounts c = light_counts;
      c.classified += heavy_counts.classified;
      c.route_cache_hits += heavy_counts.route_cache_hits;
      c.requests += heavy_counts.requests;
      c.cache_hits += heavy_counts.cache_hits;
      c.batches += heavy_counts.batches;
      c.batched_requests += heavy_counts.batched_requests;
      return c;
    }();
    std::vector<double> submit = light.submit_s;
    submit.insert(submit.end(), heavy.submit_s.begin(), heavy.submit_s.end());
    std::vector<double> late = light.late_s;
    late.insert(late.end(), heavy.late_s.begin(), heavy.late_s.end());
    const Summary sub = Summarize(submit);
    const Summary wait = Summarize(all.queue_wait_s);
    const double requests = static_cast<double>(all.batch_requests);
    const double predicted = static_cast<double>(std::max<uint64_t>(1, all.predicted));
    report->Set("fabric.submit_p50_us", sub.p50 * 1e6);
    report->Set("fabric.submit_p99_us", sub.tail * 1e6);
    report->Set("fabric.classify_us",
                all.classify_n ? 1e6 * all.classify_s / all.classify_n : 0.0);
    report->Set("fabric.route_cache_hit_ratio",
                Ratio(d.route_cache_hits, d.route_cache_hits + d.classified));
    report->Set("serve.queue_wait_p50_us", wait.p50 * 1e6);
    report->Set("serve.queue_wait_p99_us", wait.tail * 1e6);
    report->Set("serve.batch_size_mean", Ratio(d.batched_requests, d.batches));
    report->Set("serve.cache_hit_ratio", Ratio(d.cache_hits, d.requests));
    report->Set("serve.cache_lookup_us", 1e6 * all.cache_lookup_s / requests);
    report->Set("serve.predict_us_per_req", 1e6 * all.predict_s / predicted);
    report->Set("serve.respond_us", 1e6 * all.respond_s / predicted);
    report->Set("serve.batch_self_us",
                1e6 * (all.batch_s - all.cache_lookup_s - all.predict_s -
                       all.respond_s) / requests);
    const auto stage = [&](const char* n) {
      const auto it = all.stage_s.find(n);
      return it == all.stage_s.end() ? 0.0 : 1e6 * it->second / predicted;
    };
    report->Set("ml.preprocess_us", stage("preprocess"));
    report->Set("ml.kcca_project_us", stage("kcca_project"));
    report->Set("ml.knn_us",
                stage("knn_projection_space") + stage("knn_feature_space"));
    report->Set("core.assemble_us", stage("assemble"));
    report->Set("serve.model_answers",
                static_cast<double>(light.counts.model + heavy.counts.model));
    report->Set("serve.cache_answers",
                static_cast<double>(light.counts.cache + heavy.counts.cache));
    report->Set("serve.fallback_answers",
                static_cast<double>(light.counts.fallback + heavy.counts.fallback));
    report->Set("loadgen.late_p99_us", Summarize(late).tail * 1e6);

    // Reconciliation at the light rate: each request's time from its
    // scheduled send is generator lateness + Submit (classify inside) +
    // queue wait + its batch; what is left is the future's hand-off to the
    // waiting client and anything unattributed.
    const TraceTotals lt = SumSpans(events, ev0, ev1);
    double e2e = 0.0;
    for (const double v : light.latency_s) e2e += v;
    double attributed = lt.batch_weighted_s;
    for (const double v : light.late_s) attributed += v;
    for (const double v : light.submit_s) attributed += v;
    for (const double v : lt.queue_wait_s) attributed += v;
    const double n_light = static_cast<double>(light.latency_s.size());
    report->Set("trace.e2e_us", 1e6 * e2e / n_light);
    report->Set("trace.unattributed_us", 1e6 * (e2e - attributed) / n_light);
    report->Set("trace.unattributed_pct", 100.0 * (e2e - attributed) / e2e);
    report->Set("trace.overhead_pct",
                100.0 * (e2e / n_light - plain_e2e) / plain_e2e);
    std::printf("%s traced light rate: e2e %.1f us/request = late %.1f + "
                "submit %.1f (classify %.1f) + queue wait %.1f + batch %.1f "
                "(cache %.1f, predict %.1f, respond %.1f) + unattributed "
                "%.1f; untraced %.1f us/request\n",
                name, 1e6 * e2e / n_light,
                1e6 * [&] { double a = 0; for (double v : light.late_s) a += v; return a; }() / n_light,
                1e6 * [&] { double a = 0; for (double v : light.submit_s) a += v; return a; }() / n_light,
                1e6 * lt.classify_s / n_light,
                1e6 * [&] { double a = 0; for (double v : lt.queue_wait_s) a += v; return a; }() / n_light,
                1e6 * lt.batch_weighted_s / n_light,
                1e6 * lt.cache_lookup_s / n_light, 1e6 * lt.predict_s / n_light,
                1e6 * lt.respond_s / n_light, 1e6 * (e2e - attributed) / n_light,
                1e6 * plain_e2e);
  }

  // The stream never repeats a vector on serve_unique: regenerate every
  // request sent and count repeats.
  {
    RequestStream replay(s, repeat, opt.seed);
    std::unordered_set<uint64_t> seen;
    uint64_t repeats = 0;
    for (uint64_t i = 0; i < stream.issued(); ++i) {
      size_t slot = 0;
      linalg::Vector f;
      replay.Next(&slot, &f);
      repeats += seen.insert(HashBits(f)).second ? 0 : 1;
    }
    const double share = Ratio(repeats, stream.issued());
    size_t pools[4] = {0, 0, 0, 0};
    const size_t distinct = repeat ? s->working_set.size() : s->plans.size();
    for (size_t i = 0; i < distinct; ++i) {
      ++pools[static_cast<int>(s->plans[repeat ? s->working_set[i] : i].pool)];
    }
    std::printf("%s inputs: %zu distinct plans (feather %zu, golf ball %zu, "
                "bowling ball %zu, wrecking ball %zu), %llu requests, %.4f of "
                "them repeat an earlier feature vector\n",
                name, distinct, pools[0], pools[1], pools[2], pools[3],
                static_cast<unsigned long long>(stream.issued()), share);
    if (!repeat && repeats > 0) report->Fail("serve_unique repeated a feature vector");
  }

  // Held-out quality through the two-step model the fabric serves (its
  // model answers are bit-identical to these, as checked above); the
  // as-served figure, which includes labeled fallbacks for anomalous
  // queries, is printed beside it.
  std::vector<engine::QueryMetrics> model, served, actual;
  for (const size_t idx : s->exp.held_out) {
    const workload::PooledQuery& q = s->exp.pools.queries[idx];
    const linalg::Vector features = ml::PlanFeatureVector(q.plan);
    model.push_back(s->two_step.Predict(features).metrics);
    served.push_back(Ask(s->fabric.get(), features, q.plan.optimizer_cost).prediction.metrics);
    actual.push_back(q.metrics);
  }
  PrintServedRisk(name, served, actual);
  ReportRisk(model, actual, report);

  // retrain_s: a fresh two-step model published into the live fabric
  // answers a vector the run never sent.
  if (!opt.trace) {
    std::vector<double> train_to_answer;
    RequestStream fresh(s, false, opt.seed ^ 0xF2E5ull);
    fresh.Skip(2 * s->plans.size());
    for (int i = 0; i < kExtraRetrains; ++i) {
      size_t slot = 0;
      linalg::Vector f;
      fresh.Next(&slot, &f);
      const auto t0 = Clock::now();
      core::TwoStepPredictor ts;
      ts.Train(s->exp.train);
      fabric::PublishTwoStep(ts, s->fabric.get());
      const serve::ServeResponse first =
          Ask(s->fabric.get(), f, s->plans[slot].optimizer_cost);
      train_to_answer.push_back(Seconds(t0, Clock::now()));
      const core::Predictor* m = first.shard == s->labels[kCatchAll]
                                     ? &ts.base()
                                     : ts.CategoryModel(ts.base().Predict(f).predicted_type);
      report->AddOps(1, 0);
      if (!first.degraded() &&
          (m == nullptr || !SameBits(first.prediction, m->Predict(f)))) {
        report->AddOps(0, 1);
        report->Fail(std::string(name) + ": a republished model answered "
                     "differently from its offline expert");
      }
    }
    report->Set("retrain_s", Median(train_to_answer));
  }
  s->fabric->Shutdown();
}

}  // namespace perfbench
