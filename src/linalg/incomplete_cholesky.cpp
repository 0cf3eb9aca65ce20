#include "linalg/incomplete_cholesky.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::linalg {

namespace {

/// col[i] -= sum over j in [0, c) of g[j * n + i] * gp[j], as c running
/// subtractions in ascending j for every row i — the scalar elimination
/// chain of each row. Lanes run across rows, which are contiguous in the
/// column-major G; kRows rows per block keep 8 accumulators in flight, so
/// the loop is bound by loads, not by one row's dependent chain.
void EliminateRows(double* col, const double* g, size_t n, const double* gp,
                   size_t c, bool use_simd) {
  size_t i = 0;
  if (use_simd) {
    constexpr size_t kAcc = 8;
    constexpr size_t kRows = kAcc * simd::kLanes;
    for (; i + kRows <= n; i += kRows) {
      simd::VecD acc[kAcc];
      for (size_t q = 0; q < kAcc; ++q) {
        acc[q] = simd::LoadU(col + i + q * simd::kLanes);
      }
      for (size_t j = 0; j < c; ++j) {
        const simd::VecD p = simd::Splat(gp[j]);
        const double* gj = g + j * n + i;
        for (size_t q = 0; q < kAcc; ++q) {
          acc[q] = simd::Sub(
              acc[q], simd::Mul(simd::LoadU(gj + q * simd::kLanes), p));
        }
      }
      for (size_t q = 0; q < kAcc; ++q) {
        simd::StoreU(col + i + q * simd::kLanes, acc[q]);
      }
    }
    for (; i + simd::kLanes <= n; i += simd::kLanes) {
      simd::VecD acc = simd::LoadU(col + i);
      for (size_t j = 0; j < c; ++j) {
        acc = simd::Sub(acc, simd::Mul(simd::LoadU(g + j * n + i),
                                       simd::Splat(gp[j])));
      }
      simd::StoreU(col + i, acc);
    }
  }
  for (; i < n; ++i) {
    double s = col[i];
    for (size_t j = 0; j < c; ++j) s -= g[j * n + i] * gp[j];
    col[i] = s;
  }
}

}  // namespace

IncompleteCholeskyResult IncompleteCholesky(size_t n, const KernelFn& kernel,
                                            size_t max_rank, double tol) {
  QPP_CHECK(max_rank >= 1);
  IncompleteCholeskyResult out;
  if (n == 0) return out;

  const size_t m_cap = std::min(max_rank, n);
  const bool use_simd = simd::Enabled();
  // Column-major G while building: column j is g[j*n, (j+1)*n). Each step
  // appends one column; capacity is reserved up front, so the buffer never
  // moves and only the columns actually produced are touched.
  std::vector<double> g;
  g.reserve(n * m_cap);

  Vector d(n);  // residual diagonal
  for (size_t i = 0; i < n; ++i) d[i] = kernel(i, i);

  std::vector<size_t> pivots;
  pivots.reserve(m_cap);
  std::vector<char> pivoted(n, 0);
  Vector gp(m_cap);  // the pivot's row of G

  while (pivots.size() < m_cap) {
    // Select the pivot with the largest residual diagonal.
    size_t p = 0;
    double best = -1.0;
    for (size_t i = 0; i < n; ++i) {
      if (d[i] > best) {
        best = d[i];
        p = i;
      }
    }
    if (best <= tol) break;

    const double lpp = std::sqrt(best);
    const size_t c = pivots.size();
    g.resize((c + 1) * n);
    double* col = g.data() + c * n;
    // Row i's entry is (K(i,p) - sum_j G(i,j) G(p,j)) / lpp, subtracting in
    // ascending j. Pivot rows (residual exactly zero) skip the kernel and
    // are overwritten below, as is row p.
    for (size_t i = 0; i < n; ++i) {
      col[i] = (i == p || pivoted[i]) ? 0.0 : kernel(i, p);
    }
    for (size_t j = 0; j < c; ++j) gp[j] = g[j * n + p];
    EliminateRows(col, g.data(), n, gp.data(), c, use_simd);
    if (use_simd) {
      simd::DivRowBy(col, lpp, n);
    } else {
      for (size_t i = 0; i < n; ++i) col[i] = col[i] / lpp;
    }
    for (size_t prev : pivots) col[prev] = 0.0;
    col[p] = lpp;

    for (size_t i = 0; i < n; ++i) {
      d[i] -= col[i] * col[i];
      if (d[i] < 0.0) d[i] = 0.0;  // clamp round-off
    }
    d[p] = 0.0;
    pivots.push_back(p);
    pivoted[p] = 1;
  }

  // The column-major buffer is the m x n transpose of the result.
  Matrix gt(pivots.size(), n);
  gt.data() = std::move(g);
  out.g = gt.Transpose();
  out.pivots = std::move(pivots);
  out.residual = *std::max_element(d.begin(), d.end());
  return out;
}

Matrix PivotFactor(const IncompleteCholeskyResult& icd) {
  const size_t m = icd.pivots.size();
  Matrix l(m, m);
  for (size_t r = 0; r < m; ++r)
    for (size_t c = 0; c < m; ++c) l(r, c) = icd.g(icd.pivots[r], c);
  return l;
}

}  // namespace qpp::linalg
