// Output checks computed apart from the program: a brute-force k-nearest
// scan in the answering model's projection space, the equal-weighted mean
// of the neighbors' measured metrics, and the textbook predictive risk.
// Only the model's public accessors are used (its training projection and
// metrics, and ProjectX of the preprocessed query); the neighbor search,
// the averaging and the risk are recomputed here.
#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>
#include <sstream>

#include "bench.h"

namespace perfbench {

using namespace qpp;

namespace {
/// Distances within this relative gap are treated as ties: the program's
/// vectorized distance chain may round differently from this plain loop.
constexpr double kTieTolerance = 1e-9;
constexpr double kMeanTolerance = 1e-12;

double Distance(const linalg::Matrix& points, size_t row,
                const linalg::Vector& q) {
  double sum = 0.0;
  for (size_t c = 0; c < q.size(); ++c) {
    const double d = points(row, c) - q[c];
    sum += d * d;
  }
  return std::sqrt(sum);
}
}  // namespace

ReferenceNeighbors BruteForceNearest(const linalg::Matrix& points,
                                     const linalg::Vector& q, size_t k) {
  std::vector<std::pair<double, size_t>> all(points.rows());
  for (size_t r = 0; r < points.rows(); ++r) all[r] = {Distance(points, r, q), r};
  std::sort(all.begin(), all.end());
  ReferenceNeighbors out;
  for (size_t i = 0; i < std::min(k, all.size()); ++i) {
    out.distances.push_back(all[i].first);
    out.indices.push_back(all[i].second);
  }
  return out;
}

std::string CheckAgainstReference(const linalg::Matrix& points,
                                  const linalg::Matrix& metrics,
                                  const linalg::Vector& q,
                                  const std::vector<size_t>& got_neighbors,
                                  const linalg::Vector& got_metrics) {
  const size_t k = got_neighbors.size();
  if (k == 0) return "no neighbors returned";
  const ReferenceNeighbors ref = BruteForceNearest(points, q, k);
  if (ref.indices.size() != k) return "fewer training points than neighbors";
  const double kth = ref.distances.back();
  const double slack = kTieTolerance * std::max(1.0, kth);
  // Every returned neighbor must be within the k-th reference distance
  // (ties allowed), and must be distinct.
  std::vector<size_t> sorted_got = got_neighbors;
  std::sort(sorted_got.begin(), sorted_got.end());
  if (std::adjacent_find(sorted_got.begin(), sorted_got.end()) !=
      sorted_got.end()) {
    return "duplicate neighbor index";
  }
  for (const size_t idx : got_neighbors) {
    if (idx >= points.rows()) return "neighbor index out of range";
    if (Distance(points, idx, q) > kth + slack) {
      std::ostringstream os;
      os << "neighbor " << idx << " at " << Distance(points, idx, q)
         << " is beyond the reference k-th distance " << kth;
      return os.str();
    }
  }
  // Every reference neighbor strictly closer than the k-th distance (not
  // tied with it) must have been returned.
  for (size_t i = 0; i < k; ++i) {
    if (ref.distances[i] < kth - slack &&
        !std::binary_search(sorted_got.begin(), sorted_got.end(),
                            ref.indices[i])) {
      std::ostringstream os;
      os << "reference neighbor " << ref.indices[i] << " missing";
      return os.str();
    }
  }
  // Six metrics = equal-weighted mean of the returned neighbors' rows.
  if (got_metrics.size() != metrics.cols()) return "metric count differs";
  for (size_t m = 0; m < metrics.cols(); ++m) {
    double sum = 0.0;
    for (const size_t idx : got_neighbors) sum += metrics(idx, m);
    const double mean = sum / static_cast<double>(k);
    if (std::abs(mean - got_metrics[m]) >
        kMeanTolerance * std::max(1.0, std::abs(mean))) {
      std::ostringstream os;
      os.precision(17);
      os << "metric " << m << ": program " << got_metrics[m]
         << " vs neighbor mean " << mean;
      return os.str();
    }
  }
  return "";
}

std::string CheckPrediction(const core::Predictor& model,
                            const linalg::Vector& features,
                            const core::Prediction& got) {
  const linalg::Vector q =
      model.kcca().ProjectX(model.PreprocessFeatures(features));
  return CheckAgainstReference(model.kcca().x_projection(),
                               model.training_metrics(), q,
                               got.neighbor_indices, got.metrics.ToVector());
}

double PredictiveRisk(const std::vector<double>& predicted,
                      const std::vector<double>& actual) {
  const size_t n = actual.size();
  if (n == 0 || predicted.size() != n) return std::nan("");
  double mean = 0.0;
  for (double a : actual) mean += a;
  mean /= static_cast<double>(n);
  double residual = 0.0;
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    residual += (predicted[i] - actual[i]) * (predicted[i] - actual[i]);
    total += (actual[i] - mean) * (actual[i] - mean);
  }
  return 1.0 - residual / total;
}

bool SameBits(const core::Prediction& a, const core::Prediction& b) {
  const linalg::Vector va = a.metrics.ToVector();
  const linalg::Vector vb = b.metrics.ToVector();
  for (size_t i = 0; i < va.size(); ++i) {
    if (std::bit_cast<uint64_t>(va[i]) != std::bit_cast<uint64_t>(vb[i])) {
      return false;
    }
  }
  return std::bit_cast<uint64_t>(a.mean_neighbor_distance) ==
             std::bit_cast<uint64_t>(b.mean_neighbor_distance) &&
         std::bit_cast<uint64_t>(a.confidence) ==
             std::bit_cast<uint64_t>(b.confidence) &&
         a.anomalous == b.anomalous && a.neighbor_indices == b.neighbor_indices &&
         a.predicted_type == b.predicted_type;
}

std::string ReferenceSelfTest() {
  // Ten training points on a line, x_i = (i, 0), with metric rows
  // (i, 10 i, ..., 1e5 i). A query at (2.2, 0) has neighbors 2, 3, 1 and
  // metric means (2, 20, ..., 2e5). At (4.5, 0), 4 and 5 tie for nearest
  // and 3 and 6 tie for the third place, so either is accepted.
  linalg::Matrix points(10, 2, 0.0);
  linalg::Matrix metrics(10, 6, 0.0);
  for (size_t i = 0; i < 10; ++i) {
    points(i, 0) = static_cast<double>(i);
    double scale = 1.0;
    for (size_t m = 0; m < 6; ++m, scale *= 10.0) {
      metrics(i, m) = scale * static_cast<double>(i);
    }
  }
  const ReferenceNeighbors ref = BruteForceNearest(points, {2.2, 0.0}, 3);
  if (ref.indices != std::vector<size_t>{2, 3, 1}) {
    return "reference neighbors of 2.2 are not {2, 3, 1}";
  }
  const linalg::Vector means = {2.0, 20.0, 200.0, 2e3, 2e4, 2e5};
  if (!CheckAgainstReference(points, metrics, {2.2, 0.0}, {2, 3, 1}, means)
           .empty()) {
    return "correct answer for 2.2 rejected";
  }
  if (CheckAgainstReference(points, metrics, {2.2, 0.0}, {2, 3, 4},
                            {3.0, 30.0, 300.0, 3e3, 3e4, 3e5})
          .empty()) {
    return "wrong neighbor set for 2.2 accepted";
  }
  linalg::Vector off = means;
  off[5] *= 1.0 + 1e-9;
  if (CheckAgainstReference(points, metrics, {2.2, 0.0}, {2, 3, 1}, off)
          .empty()) {
    return "wrong mean for 2.2 accepted";
  }
  if (!CheckAgainstReference(points, metrics, {4.5, 0.0}, {4, 5, 3},
                             {4.0, 40.0, 400.0, 4e3, 4e4, 4e5})
           .empty() ||
      !CheckAgainstReference(points, metrics, {4.5, 0.0}, {5, 4, 6},
                             {5.0, 50.0, 500.0, 5e3, 5e4, 5e5})
           .empty()) {
    return "tied third neighbor rejected";
  }
  if (CheckAgainstReference(points, metrics, {4.5, 0.0}, {3, 6, 4},
                            {13.0 / 3.0, 130.0 / 3.0, 1300.0 / 3.0,
                             13000.0 / 3.0, 130000.0 / 3.0, 1300000.0 / 3.0})
          .empty()) {
    return "set missing a strictly nearer neighbor accepted";
  }
  // Risk: a perfect prediction scores 1, predicting the mean scores 0.
  const std::vector<double> actual = {1.0, 2.0, 3.0, 6.0};
  if (PredictiveRisk(actual, actual) != 1.0 ||
      PredictiveRisk({3.0, 3.0, 3.0, 3.0}, actual) != 0.0) {
    return "predictive risk of the exact / mean predictor wrong";
  }
  return "";
}

}  // namespace perfbench
