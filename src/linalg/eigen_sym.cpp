#include "linalg/eigen_sym.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.h"
#include "par/simd.h"
#include "par/simd_lanes.h"

namespace qpp::linalg {

namespace {

double Hypot(double a, double b) { return std::hypot(a, b); }

// Every inner loop below walks one matrix row and carries one independent
// output per element (lanes across the row), so the simd and scalar forms
// are bit-identical and each output keeps the scalar chain of the Numerical
// Recipes tred2/tqli it was reordered from (see the header comment).

/// o[c] += a * b[c] for c in [0, n).
void Axpy(double* o, double a, const double* b, size_t n, bool use_simd) {
  if (use_simd) {
    simd::AxpyRow(o, a, b, n);
    return;
  }
  for (size_t c = 0; c < n; ++c) o[c] += a * b[c];
}

/// o[c] -= a * b[c] for c in [0, n).
void AxpyNeg(double* o, double a, const double* b, size_t n, bool use_simd) {
  if (use_simd) {
    simd::AxpyNegRow(o, a, b, n);
    return;
  }
  for (size_t c = 0; c < n; ++c) o[c] -= a * b[c];
}

/// The tred2 rank-2 update of one row: o[c] -= f * e[c] + g * u[c].
void Rank2Row(double* o, double f, const double* e, double g, const double* u,
              size_t n, bool use_simd) {
  size_t c = 0;
  if (use_simd) {
    const simd::VecD vf = simd::Splat(f);
    const simd::VecD vg = simd::Splat(g);
    for (; c + simd::kLanes <= n; c += simd::kLanes) {
      const simd::VecD t = simd::Add(simd::Mul(vf, simd::LoadU(e + c)),
                                     simd::Mul(vg, simd::LoadU(u + c)));
      simd::StoreU(o + c, simd::Sub(simd::LoadU(o + c), t));
    }
  }
  for (; c < n; ++c) o[c] -= f * e[c] + g * u[c];
}

/// One QL sweep's Givens rotations, in application order: rotation t mixes
/// eigenvector rows top - t - 1 (x) and top - t (y) as
/// y' = s*x + c*y, x' = c*x - s*y.
struct Sweep {
  size_t top = 0;
  std::vector<double> c, s;
};

/// Applies a recorded sweep to the kNC * kLanes columns of zt starting at
/// column k. Consecutive rotations share a row, so each column slice
/// carries its current row value in a register down the sweep: one load and
/// one store per rotation instead of two of each, and kNC independent
/// chains in flight.
template <size_t kNC>
void ApplySweepSlice(const Sweep& sw, double* base, size_t n, size_t k) {
  double* y = base + sw.top * n + k;
  simd::VecD f[kNC];
  for (size_t q = 0; q < kNC; ++q) f[q] = simd::LoadU(y + q * simd::kLanes);
  for (size_t t = 0; t < sw.c.size(); ++t) {
    double* x = y - n;
    const simd::VecD vc = simd::Splat(sw.c[t]);
    const simd::VecD vs = simd::Splat(sw.s[t]);
    for (size_t q = 0; q < kNC; ++q) {
      const simd::VecD xv = simd::LoadU(x + q * simd::kLanes);
      simd::StoreU(y + q * simd::kLanes,
                   simd::Add(simd::Mul(vs, xv), simd::Mul(vc, f[q])));
      f[q] = simd::Sub(simd::Mul(vc, xv), simd::Mul(vs, f[q]));
    }
    y = x;
  }
  for (size_t q = 0; q < kNC; ++q) simd::StoreU(y + q * simd::kLanes, f[q]);
}

/// Applies a recorded sweep to every column of zt. Each element still sees
/// the sweep's rotations in order with the textbook arithmetic.
void ApplySweep(const Sweep& sw, Matrix& zt, bool use_simd) {
  if (sw.c.empty()) return;
  const size_t n = zt.cols();
  double* base = zt.data().data();
  size_t k = 0;
  if (use_simd) {
    constexpr size_t kWide = 8;
    for (; k + kWide * simd::kLanes <= n; k += kWide * simd::kLanes) {
      ApplySweepSlice<kWide>(sw, base, n, k);
    }
    for (; k + simd::kLanes <= n; k += simd::kLanes) {
      ApplySweepSlice<1>(sw, base, n, k);
    }
  }
  for (; k < n; ++k) {
    double* y = base + sw.top * n + k;
    double f = *y;
    for (size_t t = 0; t < sw.c.size(); ++t) {
      double* x = y - n;
      *y = sw.s[t] * *x + sw.c[t] * f;
      f = sw.c[t] * *x - sw.s[t] * f;
      y = x;
    }
    *y = f;
  }
}

// Householder reduction of a real symmetric matrix to tridiagonal form.
// On entry `a` must be exactly symmetric (both triangles); on exit it holds
// the orthogonal transform Q (accumulated), `d` the diagonal, `e` the
// off-diagonal (e[0] unused). Numerical Recipes tred2 with eigenvector
// accumulation, reordered so every O(n^3) loop runs along rows:
//
//  * The product g = A u of step i keeps the leading block symmetric in
//    both triangles and accumulates row by row, k outermost. Each g[j]
//    still adds its terms in ascending k — the chain tred2 forms from row j
//    (k <= j) and then column j (k > j) of the lower triangle.
//  * The rank-2 update is applied to whole rows of the leading block, so
//    the upper triangle stays the mirror of the lower. Both triangles get
//    the same products, and IEEE * and + commute, so the mirror stays
//    exact. The upper entries of column i, which tred2 uses to stash u/h,
//    leave the leading block at step i and are never read as mirror again.
//  * The back-accumulation computes g_j = sum_k a(i,k) a(k,j) for all j at
//    once (AXPYs over rows k, ascending k) and then updates rows k; no g_j
//    reads a column another g_j's update writes.
void Tred2(Matrix& a, Vector& d, Vector& e, bool use_simd) {
  const size_t n = a.rows();
  d.assign(n, 0.0);
  e.assign(n, 0.0);
  if (n == 0) return;
  Vector g(n, 0.0);
  for (size_t i = n - 1; i >= 1; --i) {
    const size_t l = i - 1;
    double* ui = &a(i, 0);
    double h = 0.0;
    double scale = 0.0;
    if (i > 1) {
      for (size_t k = 0; k <= l; ++k) scale += std::abs(ui[k]);
      if (scale == 0.0) {
        e[i] = ui[l];
      } else {
        for (size_t k = 0; k <= l; ++k) {
          ui[k] /= scale;
          h += ui[k] * ui[k];
        }
        double f = ui[l];
        const double gl = (f >= 0.0 ? -std::sqrt(h) : std::sqrt(h));
        e[i] = scale * gl;
        h -= f * gl;
        ui[l] = f - gl;
        std::fill(g.begin(), g.begin() + i, 0.0);
        for (size_t k = 0; k <= l; ++k) {
          Axpy(g.data(), ui[k], &a(k, 0), i, use_simd);
        }
        f = 0.0;
        for (size_t j = 0; j <= l; ++j) {
          a(j, i) = ui[j] / h;
          e[j] = g[j] / h;
          f += e[j] * ui[j];
        }
        const double hh = f / (h + h);
        AxpyNeg(e.data(), hh, ui, i, use_simd);
        for (size_t r = 0; r <= l; ++r) {
          Rank2Row(&a(r, 0), ui[r], e.data(), e[r], ui, i, use_simd);
        }
      }
    } else {
      e[i] = ui[l];
    }
    d[i] = h;
  }
  d[0] = 0.0;
  e[0] = 0.0;
  for (size_t i = 0; i < n; ++i) {
    if (d[i] != 0.0) {
      std::fill(g.begin(), g.begin() + i, 0.0);
      for (size_t k = 0; k < i; ++k) {
        Axpy(g.data(), a(i, k), &a(k, 0), i, use_simd);
      }
      for (size_t k = 0; k < i; ++k) {
        AxpyNeg(&a(k, 0), a(k, i), g.data(), i, use_simd);
      }
    }
    d[i] = a(i, i);
    a(i, i) = 1.0;
    for (size_t j = 0; j < i; ++j) a(j, i) = a(i, j) = 0.0;
  }
}

// Implicit-shift QL on a tridiagonal matrix with eigenvector accumulation
// into the *transpose* zt (row k of zt is eigenvector column k), so each
// rotation updates two contiguous rows. A sweep's rotations depend only on
// d and e, so they are recorded and applied after the sweep (ApplySweep).
//
// An off-diagonal splits the matrix when it is negligible relative to its
// two diagonal neighbours. Eigenvalues far below eps * ||T|| (the noise
// floor of a rank-deficient kernel problem) can never meet that relative
// test, so after 50 iterations on one eigenvalue the split test also
// accepts |e| <= eps * ||T|| (EISPACK tql2's absolute test) for the rest of
// the solve; a matrix that converges without it is untouched. Returns false
// if an eigenvalue needs 50 more iterations under the absolute test too.
bool Tqli(Vector& d, Vector& e, Matrix& zt, bool use_simd) {
  const size_t n = d.size();
  if (n == 0) return true;
  Sweep sw;
  sw.c.reserve(n);
  sw.s.reserve(n);
  for (size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0.0;
  double norm = 0.0;
  for (size_t i = 0; i < n; ++i) {
    norm = std::max(norm, std::abs(d[i]) + std::abs(e[i]));
  }
  bool absolute = false;  // the absolute split test is in force
  const double abs_tol = 2.3e-16 * norm;
  for (size_t l = 0; l < n; ++l) {
    int iter = 0;
    size_t m;
    do {
      for (m = l; m + 1 < n; ++m) {
        const double dd = std::abs(d[m]) + std::abs(d[m + 1]);
        if (std::abs(e[m]) <= 1e-300 || std::abs(e[m]) <= 2.3e-16 * dd ||
            (absolute && std::abs(e[m]) <= abs_tol)) {
          break;
        }
      }
      if (m != l) {
        if (++iter == 50) {
          if (absolute || !(norm > 0.0)) return false;
          absolute = true;
          iter = 0;
          continue;
        }
        double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
        double r = Hypot(g, 1.0);
        g = d[m] - d[l] + e[l] / (g + (g >= 0.0 ? std::abs(r) : -std::abs(r)));
        double s = 1.0;
        double c = 1.0;
        double p = 0.0;
        sw.top = m;
        sw.c.clear();
        sw.s.clear();
        for (size_t ii = m; ii > l; --ii) {
          const size_t i = ii - 1;
          const double f = s * e[i];
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
          sw.c.push_back(c);
          sw.s.push_back(s);
        }
        ApplySweep(sw, zt, use_simd);
        if (r == 0.0 && m > l + 1) continue;
        d[l] -= p;
        e[l] = g;
        e[m] = 0.0;
      }
    } while (m != l);
  }
  return true;
}

/// Eigenvalues (unsorted), eigenvectors as the rows of `zt`, and the
/// ascending order of the eigenvalues.
struct RowEigen {
  Vector d;
  Matrix zt;
  std::vector<size_t> order;
  bool converged = false;
};

RowEigen EigenRows(const Matrix& a) {
  QPP_CHECK_MSG(a.rows() == a.cols(), "EigenSymmetric needs a square matrix");
  const size_t n = a.rows();
  const bool use_simd = simd::Enabled();
  RowEigen out;
  // Symmetrize to absorb round-off asymmetry from upstream products. Both
  // triangles get the same bits (+ commutes), which Tred2 relies on.
  Matrix s(n, n);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < n; ++j) s(i, j) = 0.5 * (a(i, j) + a(j, i));

  Vector e;
  Tred2(s, out.d, e, use_simd);
  out.zt = s.Transpose();
  out.converged = Tqli(out.d, e, out.zt, use_simd);

  out.order.resize(n);
  std::iota(out.order.begin(), out.order.end(), 0);
  std::sort(out.order.begin(), out.order.end(),
            [&](size_t x, size_t y) { return out.d[x] < out.d[y]; });
  return out;
}

}  // namespace

SymmetricEigen EigenSymmetric(const Matrix& a) {
  const RowEigen raw = EigenRows(a);
  const size_t n = raw.d.size();
  SymmetricEigen out;
  out.values.resize(n);
  out.vectors = Matrix(n, n);
  for (size_t c = 0; c < n; ++c) {
    const size_t src = raw.order[c];
    out.values[c] = raw.d[src];
    for (size_t r = 0; r < n; ++r) out.vectors(r, c) = raw.zt(src, r);
  }
  out.converged = raw.converged;
  return out;
}

TopEigen TopKEigenSymmetric(const Matrix& a, size_t k) {
  const RowEigen raw = EigenRows(a);
  const size_t n = raw.d.size();
  const size_t kk = std::min(k, n);
  TopEigen out;
  out.values.resize(kk);
  out.vectors = Matrix(n, kk);
  for (size_t c = 0; c < kk; ++c) {
    const size_t src = raw.order[n - 1 - c];  // ascending -> take from the top
    out.values[c] = raw.d[src];
    for (size_t r = 0; r < n; ++r) out.vectors(r, c) = raw.zt(src, r);
  }
  out.converged = raw.converged;
  return out;
}

}  // namespace qpp::linalg
