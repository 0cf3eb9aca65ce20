// Unit + property tests for linalg/: matrix ops, Cholesky, symmetric
// eigendecomposition, pivoted incomplete Cholesky.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/incomplete_cholesky.h"
#include "linalg/matrix.h"
#include "linalg/serde.h"
#include "ml/cca.h"
#include "ml/feature_vector.h"
#include "ml/kcca.h"
#include "ml/kernel.h"
#include "ml/preprocess.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::linalg {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < rows; ++i)
    for (size_t j = 0; j < cols; ++j) m(i, j) = rng.Gaussian();
  return m;
}

Matrix RandomSpd(size_t n, uint64_t seed) {
  // A A^T + n I is comfortably SPD.
  const Matrix a = RandomMatrix(n, n, seed);
  Matrix s = a.MultiplyTranspose(a);
  s.AddToDiagonal(static_cast<double>(n));
  return s;
}

TEST(MatrixTest, BasicAccessors) {
  Matrix m(2, 3);
  m(0, 0) = 1.0;
  m(1, 2) = 5.0;
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_EQ(m.Row(1)[2], 5.0);
  EXPECT_EQ(m.Col(0)[0], 1.0);
}

TEST(MatrixTest, MultiplyMatchesManual) {
  const Matrix a = Matrix::FromRows({{1, 2}, {3, 4}});
  const Matrix b = Matrix::FromRows({{5, 6}, {7, 8}});
  const Matrix c = a.Multiply(b);
  EXPECT_EQ(c(0, 0), 19.0);
  EXPECT_EQ(c(0, 1), 22.0);
  EXPECT_EQ(c(1, 0), 43.0);
  EXPECT_EQ(c(1, 1), 50.0);
}

TEST(MatrixTest, TransposeMultiplyConsistent) {
  const Matrix a = RandomMatrix(7, 4, 1);
  const Matrix b = RandomMatrix(7, 5, 2);
  const Matrix direct = a.Transpose().Multiply(b);
  const Matrix fused = a.TransposeMultiply(b);
  EXPECT_LT(direct.Subtract(fused).MaxAbs(), 1e-12);
}

TEST(MatrixTest, MultiplyTransposeConsistent) {
  const Matrix a = RandomMatrix(4, 6, 3);
  const Matrix b = RandomMatrix(5, 6, 4);
  const Matrix direct = a.Multiply(b.Transpose());
  const Matrix fused = a.MultiplyTranspose(b);
  EXPECT_LT(direct.Subtract(fused).MaxAbs(), 1e-12);
}

TEST(MatrixTest, IdentityMultiplication) {
  const Matrix a = RandomMatrix(5, 5, 5);
  const Matrix i = Matrix::Identity(5);
  EXPECT_LT(a.Multiply(i).Subtract(a).MaxAbs(), 1e-15);
}

TEST(MatrixTest, MultiplyVec) {
  const Matrix a = Matrix::FromRows({{1, 0, 2}, {0, 3, 0}});
  const Vector v = {1, 2, 3};
  const Vector out = a.MultiplyVec(v);
  EXPECT_EQ(out[0], 7.0);
  EXPECT_EQ(out[1], 6.0);
}

TEST(VectorOpsTest, DistancesAndNorms) {
  const Vector a = {3, 4};
  const Vector b = {0, 0};
  EXPECT_EQ(Norm(a), 5.0);
  EXPECT_EQ(SquaredDistance(a, b), 25.0);
  EXPECT_NEAR(CosineDistance({1, 0}, {0, 1}), 1.0, 1e-12);
  EXPECT_NEAR(CosineDistance({2, 0}, {5, 0}), 0.0, 1e-12);
  EXPECT_EQ(CosineDistance({0, 0}, {1, 1}), 1.0);  // zero-vector guard
}

class CholeskyParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CholeskyParamTest, ReconstructsAndSolves) {
  const size_t n = GetParam();
  const Matrix a = RandomSpd(n, 100 + n);
  const Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  // L L^T == A.
  const Matrix rec = chol.L().MultiplyTranspose(chol.L());
  EXPECT_LT(rec.Subtract(a).MaxAbs() / a.MaxAbs(), 1e-10);
  // Solve check: A x = b.
  Rng rng(n);
  Vector b(n);
  for (double& v : b) v = rng.Gaussian();
  const Vector x = chol.Solve(b);
  const Vector ax = a.MultiplyVec(x);
  for (size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyParamTest,
                         ::testing::Values(1, 2, 3, 5, 10, 25, 60));

TEST(CholeskyTest, IndefiniteMatrixFails) {
  Matrix a = Matrix::Identity(3);
  a(2, 2) = -5.0;
  const Cholesky chol(a, /*max_jitter=*/1e-9);
  EXPECT_FALSE(chol.ok());
}

TEST(CholeskyTest, NearSingularGetsJitter) {
  // Rank-1 matrix: requires jitter to factor.
  Matrix a(3, 3);
  for (size_t i = 0; i < 3; ++i)
    for (size_t j = 0; j < 3; ++j) a(i, j) = 1.0;
  const Cholesky chol(a, /*max_jitter=*/1e-3);
  EXPECT_TRUE(chol.ok());
  EXPECT_GT(chol.jitter(), 0.0);
}

TEST(CholeskyTest, LogDetMatchesIdentityScaling) {
  Matrix a = Matrix::Identity(4);
  a.AddToDiagonal(1.0);  // 2I: logdet = 4 log 2
  const Cholesky chol(a);
  ASSERT_TRUE(chol.ok());
  EXPECT_NEAR(chol.LogDet(), 4.0 * std::log(2.0), 1e-12);
}

class EigenParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(EigenParamTest, ReconstructsRandomSymmetric) {
  const size_t n = GetParam();
  Matrix a = RandomMatrix(n, n, 200 + n);
  // Symmetrize.
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) a(i, j) = a(j, i) = 0.5 * (a(i, j) + a(j, i));
  const SymmetricEigen eig = EigenSymmetric(a);
  ASSERT_TRUE(eig.converged);
  ASSERT_EQ(eig.values.size(), n);
  // Ascending eigenvalues.
  for (size_t i = 1; i < n; ++i) EXPECT_LE(eig.values[i - 1], eig.values[i]);
  // V diag V^T == A.
  Matrix vd(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) vd(i, j) = eig.vectors(i, j) * eig.values[j];
  const Matrix rec = vd.MultiplyTranspose(eig.vectors);
  EXPECT_LT(rec.Subtract(a).MaxAbs(), 1e-8 * std::max(1.0, a.MaxAbs()));
  // Orthonormal columns.
  const Matrix vtv = eig.vectors.TransposeMultiply(eig.vectors);
  EXPECT_LT(vtv.Subtract(Matrix::Identity(n)).MaxAbs(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EigenParamTest,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 40, 80));

TEST(EigenTest, KnownEigenvalues) {
  // [[2,1],[1,2]] has eigenvalues 1 and 3.
  const Matrix a = Matrix::FromRows({{2, 1}, {1, 2}});
  const SymmetricEigen eig = EigenSymmetric(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-12);
}

TEST(EigenTest, TopKOrdering) {
  const Matrix a = RandomSpd(12, 7);
  const TopEigen top = TopKEigenSymmetric(a, 3);
  ASSERT_EQ(top.values.size(), 3u);
  EXPECT_GE(top.values[0], top.values[1]);
  EXPECT_GE(top.values[1], top.values[2]);
  EXPECT_EQ(top.vectors.rows(), 12u);
  EXPECT_EQ(top.vectors.cols(), 3u);
}

TEST(EigenTest, DegenerateRepeatedEigenvalues) {
  const Matrix a = Matrix::Identity(6).Scale(4.0);
  const SymmetricEigen eig = EigenSymmetric(a);
  ASSERT_TRUE(eig.converged);
  for (double v : eig.values) EXPECT_NEAR(v, 4.0, 1e-12);
}

class IcdParamTest : public ::testing::TestWithParam<size_t> {};

TEST_P(IcdParamTest, ApproximatesGaussianKernel) {
  const size_t n = GetParam();
  const Matrix x = RandomMatrix(n, 5, 300 + n);
  const auto kernel = [&](size_t i, size_t j) {
    return std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / 5.0);
  };
  const IncompleteCholeskyResult icd =
      IncompleteCholesky(n, kernel, /*max_rank=*/n, /*tol=*/1e-10);
  const Matrix approx = icd.g.MultiplyTranspose(icd.g);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(approx(i, j), kernel(i, j), 1e-4)
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, IcdParamTest,
                         ::testing::Values(3, 10, 30, 70));

TEST(IcdTest, TruncatedRankBoundsResidual) {
  const size_t n = 60;
  const Matrix x = RandomMatrix(n, 4, 9);
  const auto kernel = [&](size_t i, size_t j) {
    return std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / 2.0);
  };
  const IncompleteCholeskyResult icd =
      IncompleteCholesky(n, kernel, /*max_rank=*/10, /*tol=*/0.0);
  EXPECT_EQ(icd.pivots.size(), 10u);
  EXPECT_GE(icd.residual, 0.0);
  // Diagonal of the residual should match the reported bound.
  const Matrix approx = icd.g.MultiplyTranspose(icd.g);
  double max_diag_err = 0.0;
  for (size_t i = 0; i < n; ++i) {
    max_diag_err = std::max(max_diag_err, kernel(i, i) - approx(i, i));
  }
  EXPECT_NEAR(max_diag_err, icd.residual, 1e-9);
}

TEST(IcdTest, PivotFactorIsExactCholeskyOfPivotBlock) {
  const size_t n = 40;
  const Matrix x = RandomMatrix(n, 3, 11);
  const auto kernel = [&](size_t i, size_t j) {
    return std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / 3.0);
  };
  const IncompleteCholeskyResult icd =
      IncompleteCholesky(n, kernel, /*max_rank=*/12, /*tol=*/1e-12);
  const Matrix l = PivotFactor(icd);
  const Matrix kpp_rec = l.MultiplyTranspose(l);
  for (size_t r = 0; r < icd.pivots.size(); ++r) {
    for (size_t c = 0; c < icd.pivots.size(); ++c) {
      EXPECT_NEAR(kpp_rec(r, c), kernel(icd.pivots[r], icd.pivots[c]), 1e-9);
    }
  }
  // Lower triangular.
  for (size_t r = 0; r < l.rows(); ++r) {
    for (size_t c = r + 1; c < l.cols(); ++c) EXPECT_EQ(l(r, c), 0.0);
  }
}

TEST(MatrixSerdeTest, RoundTrip) {
  const Matrix m = RandomMatrix(6, 4, 77);
  std::stringstream ss;
  {
    BinaryWriter w(ss);
    WriteMatrix(&w, m);
  }
  BinaryReader r(ss);
  const Matrix back = ReadMatrix(&r);
  EXPECT_EQ(back.rows(), 6u);
  EXPECT_EQ(back.cols(), 4u);
  EXPECT_LT(back.Subtract(m).MaxAbs(), 0.0 + 1e-15);
}

// --- Multiply family: shape edge cases and blocked-vs-reference pinning ---

TEST(MatrixMultiplyTest, EmptyOperands) {
  const Matrix a(0, 5);
  const Matrix b(5, 3);
  const Matrix ab = a.Multiply(b);
  EXPECT_EQ(ab.rows(), 0u);
  EXPECT_EQ(ab.cols(), 3u);

  const Matrix c(4, 0);
  const Matrix d(0, 6);
  const Matrix cd = c.Multiply(d);  // inner dimension 0: all zeros
  EXPECT_EQ(cd.rows(), 4u);
  EXPECT_EQ(cd.cols(), 6u);
  for (const double v : cd.data()) EXPECT_EQ(v, 0.0);

  const Matrix e(3, 4);
  const Matrix f(4, 0);
  const Matrix ef = e.Multiply(f);
  EXPECT_EQ(ef.rows(), 3u);
  EXPECT_EQ(ef.cols(), 0u);

  EXPECT_EQ(a.TransposeMultiply(Matrix(0, 2)).rows(), 5u);
  EXPECT_EQ(c.MultiplyTranspose(Matrix(7, 0)).cols(), 7u);
}

TEST(MatrixMultiplyTest, OneByOne) {
  Matrix a(1, 1);
  Matrix b(1, 1);
  a(0, 0) = 3.5;
  b(0, 0) = -2.0;
  EXPECT_EQ(a.Multiply(b)(0, 0), -7.0);
  EXPECT_EQ(a.TransposeMultiply(b)(0, 0), -7.0);
  EXPECT_EQ(a.MultiplyTranspose(b)(0, 0), -7.0);
}

TEST(MatrixMultiplyTest, NonSquareChainHasExpectedShapeAndValues) {
  // (2x3)(3x4)(4x1): associativity of shapes, values checked by hand on a
  // small deterministic fill.
  Matrix a(2, 3), b(3, 4), c(4, 1);
  for (size_t i = 0; i < a.data().size(); ++i) a.data()[i] = double(i + 1);
  for (size_t i = 0; i < b.data().size(); ++i) b.data()[i] = double(i % 3);
  for (size_t i = 0; i < c.data().size(); ++i) c.data()[i] = 1.0;
  const Matrix abc = a.Multiply(b).Multiply(c);
  EXPECT_EQ(abc.rows(), 2u);
  EXPECT_EQ(abc.cols(), 1u);
  // Each row of b sums each row's columns times c=1: row sums of b are
  // 0+1+2+0=3, 1+2+0+1=4, 2+0+1+2=5, so abc = a * (3,4,5)^T.
  EXPECT_EQ(abc(0, 0), 1 * 3 + 2 * 4 + 3 * 5);
  EXPECT_EQ(abc(1, 0), 4 * 3 + 5 * 4 + 6 * 5);
}

TEST(MatrixMultiplyTest, BlockedMatchesReferenceBitwise) {
  // Sizes straddle the parallel/tiling thresholds: some dispatch inline,
  // some through the pool; all must be bit-identical to the plain
  // single-threaded reference kernels.
  const size_t shapes[][3] = {
      {1, 1, 1}, {2, 3, 2}, {17, 9, 23}, {70, 50, 60}, {130, 64, 33}};
  for (const auto& s : shapes) {
    const Matrix a = RandomMatrix(s[0], s[1], 1000 + s[0]);
    const Matrix b = RandomMatrix(s[1], s[2], 2000 + s[2]);
    EXPECT_EQ(a.Multiply(b).data(), reference::Multiply(a, b).data())
        << s[0] << "x" << s[1] << "x" << s[2];

    const Matrix at = RandomMatrix(s[1], s[0], 3000 + s[1]);
    EXPECT_EQ(at.TransposeMultiply(b).data(),
              reference::TransposeMultiply(at, b).data())
        << s[0] << "x" << s[1] << "x" << s[2];

    const Matrix bt = RandomMatrix(s[2], s[1], 4000 + s[1]);
    EXPECT_EQ(a.MultiplyTranspose(bt).data(),
              reference::MultiplyTranspose(a, bt).data())
        << s[0] << "x" << s[1] << "x" << s[2];
  }
}

TEST(MatrixMultiplyTest, SparseZeroSkipMatchesReference) {
  // The kernels skip exact-zero multiplicands; a mostly-zero operand must
  // still match the reference bit for bit.
  Matrix a = RandomMatrix(64, 48, 99);
  Rng rng(100);
  for (double& v : a.data()) {
    if (rng.Bernoulli(0.85)) v = 0.0;
  }
  const Matrix b = RandomMatrix(48, 40, 101);
  EXPECT_EQ(a.Multiply(b).data(), reference::Multiply(a, b).data());
}


// ---------------------------------------------------------------------------
// Differential tests for the row-contiguous training kernels. The oracles
// below are the textbook column-order Tred2/Tqli and the column-vector
// IncompleteCholesky, copied verbatim from the implementations they
// replaced; the production kernels must reproduce them bit for bit
// (memcmp), with SIMD on and forced off. See linalg/eigen_sym.h.
// ---------------------------------------------------------------------------
namespace oracle {

double Hypot(double a, double b) { return std::hypot(a, b); }

// Householder reduction of a real symmetric matrix to tridiagonal form.
// On exit `a` holds the orthogonal transform Q (accumulated), `d` the
// diagonal, `e` the off-diagonal (e[0] unused). Follows Numerical Recipes
// tred2 with eigenvector accumulation.
void Tred2(Matrix& a, Vector& d, Vector& e) {
  const size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;
  for (size_t i = n - 1; i >= 1; --i) {
    const size_t l = i - 1;
    double h = 0.0;
    double scale = 0.0;
    if (i > 1) {
      for (size_t k = 0; k <= l; ++k) scale += std::abs(a(i, k));
      if (scale == 0.0) {
        e[i] = a(i, l);
      } else {
        for (size_t k = 0; k <= l; ++k) {
          a(i, k) /= scale;
          h += a(i, k) * a(i, k);
        }
        double f = a(i, l);
        double g = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        e[i] = scale * g;
        h -= f * g;
        a(i, l) = f - g;
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          a(j, i) = a(i, j) / h;
          g = 0.0;
          for (size_t k = 0; k <= j; ++k) g += a(j, k) * a(i, k);
          for (size_t k = j + 1; k <= l; ++k) g += a(k, j) * a(i, k);
          e[j] = g / h;
          f += e[j] * a(i, j);
        }
        const double hh = f / (h + h);
        for (size_t j = 0; j <= l; ++j) {
          f = a(i, j);
          e[j] = g = e[j] - hh * f;
          for (size_t k = 0; k <= j; ++k)
            a(j, k) -= f * e[k] + g * a(i, k);
        }
      }
    } else {
      e[i] = a(i, l);
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      for (size_t j = 0; j < i; ++j) {
        double g = 0.0;
        for (size_t k = 0; k < i; ++k) g += a(i, k) * a(k, j);
        for (size_t k = 0; k < i; ++k) a(k, j) -= g * a(k, i);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// Implicit-shift QL on a tridiagonal matrix with eigenvector accumulation.
// Returns false if any eigenvalue needs more than 50 iterations.
bool Tqli(Vector& d, Vector& e, Matrix& z) {
  const size_t n = d.size();
  if (n == 0) return true;
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 || std::abs(e[m]) <= 2.3e-16 * dd) break;
      }
      if (m != l) {
        if (++iter == 50) return false;
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        for (size_t ii = m; ii > l; --ii) {
          const size_t i = ii - 1;
          double f = s * e[i];
          const double b = c * e[i];
          r = Hypot(f, g);
          e[i + 1] = r;
          if (r == 0.0) {
            d[i + 1] -= p;
            e[m] = 0.0;
            break;
          }
          s = f / r;
          c = g / r;
          g = d[i + 1] - p;
          r = (d[i] - g) * s + 2.0 * c * b;
          p = s * r;
          d[i + 1] = g + p;
          g = c * r - b;
          for (size_t k = 0; k < n; ++k) {
            f = z(k, i + 1);
            z(k, i + 1) = s * z(k, i) + c * f;
            z(k, i) = c * z(k, i) - s * f;
          }
        }
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}


IncompleteCholeskyResult IncompleteCholesky(size_t n, const KernelFn& kernel,
                                            size_t max_rank, double tol) {
  QPP_CHECK(max_rank >= 1);
  IncompleteCholeskyResult out;
  if (n == 0) return out;

  const size_t m_cap = std::min(max_rank, n);
  // Column-major storage of G while building (each step appends a column).
  std::vector<Vector> cols;
  cols.reserve(m_cap);

  Vector d(n);  // residual diagonal
  for (size_t i = 0; i < n; ++i) d[i] = kernel(i, i);

  std::vector<size_t> pivots;
  pivots.reserve(m_cap);

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
    std::vector<bool> pivoted(n, false);
    for (size_t prev : pivots) pivoted[prev] = true;
    Vector col(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      if (i == p) {
        col[i] = lpp;
        continue;
      }
      if (pivoted[i]) continue;  // residual is exactly zero there
      double s = kernel(i, p);
      for (const Vector& prev : cols) s -= prev[i] * prev[p];
      col[i] = s / lpp;
    }
    for (size_t i = 0; i < n; ++i) {
      d[i] -= col[i] * col[i];
      if (d[i] < 0.0) d[i] = 0.0;  // clamp round-off
    }
    d[p] = 0.0;
    cols.push_back(std::move(col));
    pivots.push_back(p);
  }

  const size_t m = cols.size();
  out.g = Matrix(n, m);
  for (size_t c = 0; c < m; ++c)
    for (size_t r = 0; r < n; ++r) out.g(r, c) = cols[c][r];
  out.pivots = std::move(pivots);
  out.residual = *std::max_element(d.begin(), d.end());
  return out;
}


/// The replaced EigenSymmetric: symmetrize, tred2, tqli, sort ascending.
SymmetricEigen EigenSymmetric(const Matrix& a) {
  const size_t n = a.rows();
  SymmetricEigen out;
  if (n == 0) {
    out.converged = true;
    return out;
  }
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));
  Vector d, e;
  Tred2(s, d, e);
  const bool ok = Tqli(d, e, s);
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(),
            [&](size_t x, size_t y) { return d[x] < d[y]; });
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) out.values[c] = d[idx[c]];
  for (size_t r = 0; r < n; ++r)
    for (size_t c = 0; c < n; ++c) out.vectors(r, c) = s(r, idx[c]);
  out.converged = ok;
  return out;
}

}  // namespace oracle

::testing::AssertionResult SameBits(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "slot " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

::testing::AssertionResult SameBits(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure() << "shape differs";
  }
  return SameBits(a.data(), b.data());
}

/// Runs `body` once with the SIMD kernels and once with them forced off.
template <typename F>
void ForBothDispatches(F body) {
  for (const bool force_scalar : {false, true}) {
    SCOPED_TRACE(force_scalar ? "scalar" : "simd");
    const bool prev = simd::SetForceScalar(force_scalar);
    body();
    simd::SetForceScalar(prev);
  }
}

void ExpectEigenMatchesOracle(const Matrix& a) {
  const SymmetricEigen want = oracle::EigenSymmetric(a);
  ForBothDispatches([&] {
    const SymmetricEigen got = EigenSymmetric(a);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_TRUE(SameBits(got.values, want.values));
    EXPECT_TRUE(SameBits(got.vectors, want.vectors));
    // Top-k: the trailing columns in descending order.
    const size_t n = a.rows();
    const size_t k = std::min<size_t>(n, 5);
    const TopEigen top = TopKEigenSymmetric(a, k);
    EXPECT_EQ(top.converged, want.converged);
    ASSERT_EQ(top.values.size(), k);
    for (size_t c = 0; c < k; ++c) {
      const size_t src = n - 1 - c;
      EXPECT_TRUE(SameBits(Vector{top.values[c]}, Vector{want.values[src]}));
      EXPECT_TRUE(SameBits(top.vectors.Col(c), want.vectors.Col(src)));
    }
  });
}

std::vector<size_t> KernelSizes() {
  return {1, 2, 3, simd::kLanes - 1, simd::kLanes + 1, 30, 64, 127, 128,
          230, 253, 256, 257, 512};
}

TEST(TrainingKernelDifferentialTest, EigenBitIdenticalToTextbookLoops) {
  for (const size_t n : KernelSizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // A Gram matrix like the CCA and exact-KCCA problems (PSD, wide
    // spread), made slightly asymmetric so the symmetrization matters.
    const Matrix b = RandomMatrix(n, n + 7, 900 + n);
    Matrix a = b.MultiplyTranspose(b);
    if (n > 1) a(n - 1, 0) += 1e-9;
    ExpectEigenMatchesOracle(a);
  }
}

TEST(TrainingKernelDifferentialTest, EigenSpecialStructures) {
  for (const size_t n : {size_t{5}, size_t{17}, size_t{64}}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // Indefinite random symmetric.
    ExpectEigenMatchesOracle(RandomMatrix(n, n, 40 + n));
    // Diagonal input: every Householder step takes the scale == 0 branch.
    Matrix diag(n, n);
    for (size_t i = 0; i < n; ++i) diag(i, i) = static_cast<double>(i % 3);
    ExpectEigenMatchesOracle(diag);
    // Repeated eigenvalues: Q diag(1,1,...,2,2,...) Q^T.
    const SymmetricEigen basis = oracle::EigenSymmetric(RandomSpd(n, 70 + n));
    Matrix vd(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j)
        vd(i, j) = basis.vectors(i, j) * (j < n / 2 ? 1.0 : 2.0);
    ExpectEigenMatchesOracle(vd.MultiplyTranspose(basis.vectors));
    // A zero row and column in the middle and at the end (scale == 0 at
    // those Householder steps only).
    Matrix holes = RandomSpd(n, 80 + n);
    for (const size_t z : {n / 2, n - 1}) {
      for (size_t j = 0; j < n; ++j) holes(z, j) = holes(j, z) = 0.0;
    }
    ExpectEigenMatchesOracle(holes);
  }
}

TEST(TrainingKernelDifferentialTest, NanInputReportsNonConvergence) {
  Matrix a = RandomSpd(20, 5);
  a(3, 7) = a(7, 3) = std::nan("");
  const TopEigen top = TopKEigenSymmetric(a, 4);
  EXPECT_FALSE(top.converged);
  EXPECT_FALSE(EigenSymmetric(a).converged);
  EXPECT_TRUE(TopKEigenSymmetric(RandomSpd(20, 5), 4).converged);
}

// The exact-KCCA problem S = Lx^-1 (Kx Ky) My^-1 (Ky Kx) Lx^-T of the
// integration suite's reduced Experiment-1 split (the steps of
// ml::KccaModel::Train). Its spectrum runs from ~1 down to rounding noise
// at ~1e-21, graded against the QL sweep direction.
Matrix ExactKccaProblem() {
  core::ExperimentOptions opt;
  opt.num_candidates = 5200;
  opt.seed = 21;
  const core::ExperimentData data = core::BuildTpcdsExperiment(opt);
  const workload::TrainTestSplit split =
      workload::SampleSplit(data.pools, 180, 40, 8, 24, 4, 4, /*seed=*/5);
  const ml::FeatureMatrices mats =
      ml::StackExamples(core::MakeExamples(data.pools, split.train));
  ml::Preprocessor px(true, true);
  px.Fit(mats.x);
  ml::Preprocessor py(true, true);
  py.Fit(mats.y);
  const Matrix x = px.Transform(mats.x);
  const Matrix y = py.Transform(mats.y);
  const ml::KccaOptions kopt;
  Matrix kx = ml::KernelMatrix(
      x, {ml::GaussianScaleFromNorms(x, kopt.tau_factor_x)});
  Matrix ky = ml::KernelMatrix(
      y, {ml::GaussianScaleFromNorms(y, kopt.tau_factor_y)});
  ml::CenterKernelMatrix(&kx);
  ml::CenterKernelMatrix(&ky);
  const double n = static_cast<double>(x.rows());
  const auto system = [&](const Matrix& k) {
    Matrix m = k.Multiply(k).Add(
        k.Scale(kopt.kappa * k.FrobeniusNorm() / std::sqrt(n)));
    m.AddToDiagonal(1e-8 * std::max(m.MaxAbs(), 1.0));
    return m;
  };
  const Cholesky lx(system(kx), 1e-2);
  const Cholesky ly(system(ky), 1e-2);
  const Matrix u1 = lx.SolveLowerMatrix(kx.Multiply(ky));
  const Matrix g = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  return g.MultiplyTranspose(g);
}

TEST(TrainingKernelDifferentialTest, NoiseFloorEigenvaluesConverge) {
  const Matrix s = ExactKccaProblem();
  const size_t n = s.rows();
  // The textbook loops give up on this matrix: its noise-level eigenvalues
  // never pass the relative split test.
  EXPECT_FALSE(oracle::EigenSymmetric(s).converged);
  ForBothDispatches([&] {
    const SymmetricEigen eig = EigenSymmetric(s);
    ASSERT_TRUE(eig.converged);
    for (size_t i = 1; i < n; ++i) EXPECT_LE(eig.values[i - 1], eig.values[i]);
    Matrix vd(n, n);
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < n; ++j) {
        vd(i, j) = eig.vectors(i, j) * eig.values[j];
      }
    EXPECT_LT(vd.MultiplyTranspose(eig.vectors).Subtract(s).MaxAbs(),
              1e-12 * s.MaxAbs());
    const Matrix vtv = eig.vectors.TransposeMultiply(eig.vectors);
    EXPECT_LT(vtv.Subtract(Matrix::Identity(n)).MaxAbs(), 1e-12);
  });
}

void ExpectIcdMatchesOracle(size_t n, size_t dims, size_t max_rank,
                            double tol, uint64_t seed) {
  const Matrix x = RandomMatrix(n, dims, seed);
  const double tau = 2.0 * static_cast<double>(dims);
  const KernelFn kernel = [&](size_t i, size_t j) {
    return i == j ? 1.0
                  : std::exp(-SquaredDistance(x.Row(i), x.Row(j)) / tau);
  };
  const IncompleteCholeskyResult want =
      oracle::IncompleteCholesky(n, kernel, max_rank, tol);
  ForBothDispatches([&] {
    const IncompleteCholeskyResult got =
        IncompleteCholesky(n, kernel, max_rank, tol);
    EXPECT_EQ(got.pivots, want.pivots);
    EXPECT_TRUE(SameBits(got.g, want.g));
    EXPECT_TRUE(SameBits(Vector{got.residual}, Vector{want.residual}));
  });
}

// --- Model level: KccaModel::Train against the same training steps built
// on the oracle kernels, compared as Save bytes. The steps below follow
// ml::KccaModel::Train and ml::FitCca line for line; only the eigensolver
// and the incomplete Cholesky are the oracle copies.

TopEigen OracleTopK(const Matrix& a, size_t k) {
  const SymmetricEigen full = oracle::EigenSymmetric(a);
  const size_t n = full.values.size();
  TopEigen out;
  out.values.resize(std::min(k, n));
  out.vectors = Matrix(n, out.values.size());
  for (size_t c = 0; c < out.values.size(); ++c) {
    out.values[c] = full.values[n - 1 - c];
    for (size_t r = 0; r < n; ++r) {
      out.vectors(r, c) = full.vectors(r, n - 1 - c);
    }
  }
  out.converged = full.converged;
  return out;
}

ml::CcaModel OracleFitCca(const Matrix& x, const Matrix& y, size_t d,
                          double reg) {
  ml::CcaModel model;
  const auto means = [](const Matrix& m) {
    Vector mean(m.cols(), 0.0);
    for (size_t j = 0; j < m.cols(); ++j) {
      double s = 0.0;
      for (size_t i = 0; i < m.rows(); ++i) s += m(i, j);
      mean[j] = s / static_cast<double>(m.rows());
    }
    return mean;
  };
  const auto center = [](const Matrix& m, const Vector& mean) {
    Matrix out(m.rows(), m.cols());
    for (size_t i = 0; i < m.rows(); ++i)
      for (size_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j) - mean[j];
    return out;
  };
  const auto ridge = [reg](Matrix* c) {
    double mean_diag = 0.0;
    for (size_t i = 0; i < c->rows(); ++i) mean_diag += (*c)(i, i);
    mean_diag /= std::max<double>(static_cast<double>(c->rows()), 1.0);
    if (mean_diag <= 0.0) mean_diag = 1.0;
    c->AddToDiagonal(reg * mean_diag + 1e-12);
  };
  model.mean_x = means(x);
  model.mean_y = means(y);
  const Matrix xc = center(x, model.mean_x);
  const Matrix yc = center(y, model.mean_y);
  const double inv_n = 1.0 / static_cast<double>(x.rows() - 1);
  Matrix cxx = xc.TransposeMultiply(xc).Scale(inv_n);
  Matrix cyy = yc.TransposeMultiply(yc).Scale(inv_n);
  const Matrix cxy = xc.TransposeMultiply(yc).Scale(inv_n);
  ridge(&cxx);
  ridge(&cyy);
  const Cholesky lx(cxx, 1e-3);
  const Cholesky ly(cyy, 1e-3);
  const Matrix u1 = lx.SolveLowerMatrix(cxy);
  const Matrix m = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  const TopEigen top = OracleTopK(m.MultiplyTranspose(m), d);
  const size_t p = x.cols();
  const size_t q = y.cols();
  model.wx = Matrix(p, d);
  model.wy = Matrix(q, d);
  model.correlations.assign(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    const double sigma = std::sqrt(std::max(top.values[c], 0.0));
    model.correlations[c] = std::min(sigma, 1.0);
    const Vector u = top.vectors.Col(c);
    const Vector wx_col = lx.SolveLowerTranspose(u);
    for (size_t j = 0; j < p; ++j) model.wx(j, c) = wx_col[j];
    Vector v(q, 0.0);
    for (size_t j = 0; j < q; ++j) {
      double sum = 0.0;
      for (size_t i = 0; i < p; ++i) sum += m(i, j) * u[i];
      v[j] = sigma > 1e-12 ? sum / sigma : sum;
    }
    const Vector wy_col = ly.SolveLowerTranspose(v);
    for (size_t j = 0; j < q; ++j) model.wy(j, c) = wy_col[j];
  }
  return model;
}

/// The KccaModel::Save layout.
struct OracleKccaFields {
  bool exact = true;
  double tau_x = 0.0;
  Matrix px, py;
  Vector correlations;
  Matrix train_x, a;
  Vector kx_row_means;
  double kx_grand_mean = 0.0;
  Matrix pivot_x, lpp;
  Vector gx_means;
  Matrix wx;
};

std::string SaveBytes(const OracleKccaFields& f, const ml::KccaOptions& o) {
  std::ostringstream os;
  BinaryWriter w(os);
  w.WriteU32(f.exact ? 0u : 1u);
  w.WriteU64(o.num_dims);
  w.WriteDouble(o.kappa);
  w.WriteDouble(o.tau_factor_x);
  w.WriteDouble(o.tau_factor_y);
  w.WriteDouble(f.tau_x);
  WriteMatrix(&w, f.px);
  WriteMatrix(&w, f.py);
  w.WriteDoubles(f.correlations);
  WriteMatrix(&w, f.train_x);
  WriteMatrix(&w, f.a);
  w.WriteDoubles(f.kx_row_means);
  w.WriteDouble(f.kx_grand_mean);
  WriteMatrix(&w, f.pivot_x);
  WriteMatrix(&w, f.lpp);
  w.WriteDoubles(f.gx_means);
  WriteMatrix(&w, f.wx);
  return os.str();
}

std::string SaveBytes(const ml::KccaModel& model) {
  std::ostringstream os;
  BinaryWriter w(os);
  model.Save(&w);
  return os.str();
}

std::string OracleExactKcca(const Matrix& x, const Matrix& y,
                            const ml::KccaOptions& o) {
  const size_t n = x.rows();
  OracleKccaFields f;
  f.tau_x = ml::GaussianScaleFromNorms(x, o.tau_factor_x);
  f.train_x = x;
  Matrix kx = ml::KernelMatrix(x, {f.tau_x});
  Matrix ky =
      ml::KernelMatrix(y, {ml::GaussianScaleFromNorms(y, o.tau_factor_y)});
  f.kx_row_means.assign(n, 0.0);
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < n; ++j) s += kx(i, j);
    f.kx_row_means[i] = s / static_cast<double>(n);
    total += s;
  }
  f.kx_grand_mean = total / static_cast<double>(n * n);
  ml::CenterKernelMatrix(&kx);
  ml::CenterKernelMatrix(&ky);
  const auto system = [&](const Matrix& k) {
    const double kappa =
        o.kappa * k.FrobeniusNorm() / std::sqrt(static_cast<double>(n));
    Matrix m = k.Multiply(k);
    m = m.Add(k.Scale(kappa));
    m.AddToDiagonal(1e-8 * std::max(m.MaxAbs(), 1.0));
    return m;
  };
  const Cholesky lx(system(kx), 1e-2);
  const Cholesky ly(system(ky), 1e-2);
  const Matrix c = kx.Multiply(ky);
  const Matrix u1 = lx.SolveLowerMatrix(c);
  const Matrix g = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  const size_t d = std::min(std::max<size_t>(o.num_dims, 1), n);
  const TopEigen top = OracleTopK(g.MultiplyTranspose(g), d);
  f.a = Matrix(n, d);
  Matrix b(n, d);
  f.correlations.assign(d, 0.0);
  for (size_t cidx = 0; cidx < d; ++cidx) {
    const double sigma = std::sqrt(std::max(top.values[cidx], 0.0));
    f.correlations[cidx] = std::min(sigma, 1.0);
    const Vector a_col = lx.SolveLowerTranspose(top.vectors.Col(cidx));
    for (size_t i = 0; i < n; ++i) f.a(i, cidx) = a_col[i];
    Vector cta(n, 0.0);
    for (size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (size_t i = 0; i < n; ++i) sum += c(i, j) * a_col[i];
      cta[j] = sum;
    }
    Vector b_col = ly.Solve(cta);
    if (sigma > 1e-12) {
      for (double& v : b_col) v /= sigma;
    }
    for (size_t i = 0; i < n; ++i) b(i, cidx) = b_col[i];
  }
  f.px = kx.Multiply(f.a);
  f.py = ky.Multiply(b);
  return SaveBytes(f, o);
}

std::string OracleIcdKcca(const Matrix& x, const Matrix& y,
                          const ml::KccaOptions& o) {
  const size_t n = x.rows();
  OracleKccaFields f;
  f.exact = false;
  f.tau_x = ml::GaussianScaleFromNorms(x, o.tau_factor_x);
  const double tau_y = ml::GaussianScaleFromNorms(y, o.tau_factor_y);
  // GaussianRaw's chain: ascending squared differences, then exp(-s/tau).
  const auto oracle_fn = [](const Matrix& m, double tau) {
    return [&m, tau](size_t i, size_t j) {
      if (i == j) return 1.0;
      double s = 0.0;
      for (size_t k = 0; k < m.cols(); ++k) {
        const double dk = m(i, k) - m(j, k);
        s += dk * dk;
      }
      return std::exp(-s / tau);
    };
  };
  const IncompleteCholeskyResult icx = oracle::IncompleteCholesky(
      n, oracle_fn(x, f.tau_x), o.icd_max_rank, o.icd_tolerance);
  const IncompleteCholeskyResult icy = oracle::IncompleteCholesky(
      n, oracle_fn(y, tau_y), o.icd_max_rank, o.icd_tolerance);
  const size_t d = std::min({std::max<size_t>(o.num_dims, 1),
                             icx.pivots.size(), icy.pivots.size()});
  const ml::CcaModel cca = OracleFitCca(icx.g, icy.g, d, o.kappa);
  f.px = cca.ProjectXAll(icx.g);
  f.py = cca.ProjectYAll(icy.g);
  f.correlations = cca.correlations;
  f.pivot_x = Matrix(icx.pivots.size(), x.cols());
  for (size_t r = 0; r < icx.pivots.size(); ++r) {
    f.pivot_x.SetRow(r, x.Row(icx.pivots[r]));
  }
  f.lpp = PivotFactor(icx);
  f.gx_means = cca.mean_x;
  f.wx = cca.wx;
  return SaveBytes(f, o);
}

TEST(TrainingKernelDifferentialTest, TrainedKccaSaveBytesMatchOracleBuilt) {
  // Correlated views, like plan features against measured metrics.
  const Matrix x = RandomMatrix(300, 10, 71);
  Matrix y = RandomMatrix(300, 4, 72);
  for (size_t i = 0; i < y.rows(); ++i) {
    for (size_t j = 0; j < y.cols(); ++j) y(i, j) += 2.0 * x(i, j);
  }
  ForBothDispatches([&] {
    ml::KccaOptions icd;
    icd.solver = ml::KccaSolver::kIcd;
    icd.icd_max_rank = 120;
    const ml::KccaModel icd_model = ml::KccaModel::Train(x, y, icd);
    EXPECT_EQ(SaveBytes(icd_model), OracleIcdKcca(x, y, icd));

    ml::KccaOptions exact;
    exact.solver = ml::KccaSolver::kExact;
    const Matrix xs = RandomMatrix(90, 10, 73);
    Matrix ys = RandomMatrix(90, 4, 74);
    for (size_t i = 0; i < ys.rows(); ++i) {
      for (size_t j = 0; j < ys.cols(); ++j) ys(i, j) += 2.0 * xs(i, j);
    }
    const ml::KccaModel exact_model = ml::KccaModel::Train(xs, ys, exact);
    EXPECT_EQ(SaveBytes(exact_model), OracleExactKcca(xs, ys, exact));
  });
}

TEST(TrainingKernelDifferentialTest, IcdBitIdenticalStoppingOnMaxRank) {
  for (const size_t n : KernelSizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // 30 dims: the kernel matrix keeps full numerical rank, so the rank
    // cap ends the factorization.
    ExpectIcdMatchesOracle(n, 30, std::min<size_t>(n, 200), 1e-12, 500 + n);
  }
}

TEST(TrainingKernelDifferentialTest, IcdBitIdenticalStoppingOnTolerance) {
  for (const size_t n : KernelSizes()) {
    SCOPED_TRACE("n=" + std::to_string(n));
    // 2 dims: the residual diagonal falls below tol long before rank n.
    ExpectIcdMatchesOracle(n, 2, n, 1e-4, 600 + n);
  }
}

}  // namespace
}  // namespace qpp::linalg
