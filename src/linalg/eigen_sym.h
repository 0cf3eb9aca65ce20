// Dense symmetric eigendecomposition.
//
// Householder tridiagonalization followed by the implicit-shift QL iteration
// (the classic tred2/tqli pair). O(n^3), adequate for the sizes this library
// meets: covariance matrices (dims ~ 30), reduced KCCA problems (m ~ 256,
// the ICD rank cap) and exact-path kernel problems (N ~ 230–320).
//
// Every O(n^3) loop walks contiguous rows on simd::VecD lanes: the
// tridiagonalization keeps both triangles of the working block (the upper
// one mirrors the lower), so its matrix-vector product and rank-2 update
// run along rows; the QL rotations accumulate into the transpose of the
// eigenvector matrix, so each rotation updates two rows. The column walks
// of the textbook loops cost 4x more at n = 256, where the 2 KB row stride
// maps a whole column onto a few cache sets (docs/PERFORMANCE.md,
// "Training kernels").
//
// The results are bit-identical to the textbook column-order loops at any
// lane width, with SIMD forced off, and at any thread count (the solver is
// sequential): each output element keeps its scalar chain — the same terms
// in the same order, one IEEE rounding per operation, no FMA. Lanes only
// ever run across independent outputs. tests/linalg_test.cpp pins this
// with memcmp against verbatim copies of the textbook loops.
//
// One deliberate difference: when an eigenvalue has not split off after 50
// QL iterations under the textbook relative test (noise-level eigenvalues
// of a rank-deficient problem never do), the split test also accepts
// |e| <= eps * ||T|| from then on, instead of giving up. Matrices that
// converged under the relative test alone are unaffected.
#pragma once

#include "linalg/matrix.h"

namespace qpp::linalg {

/// Result of a symmetric eigendecomposition: A = V diag(values) V^T with
/// eigenvalues sorted ascending and eigenvectors in the matching columns
/// of `vectors`.
struct SymmetricEigen {
  Vector values;    ///< ascending eigenvalues
  Matrix vectors;   ///< column i is the eigenvector for values[i]
  /// False when the QL iteration gave up (more than 50 iterations on one
  /// eigenvalue, e.g. on NaN input); values and vectors are then garbage.
  bool converged = false;
};

/// Computes the full eigendecomposition of symmetric matrix `a`.
/// The strictly-lower triangle is trusted; the upper triangle is ignored
/// after symmetrization (a is averaged with its transpose first to absorb
/// round-off asymmetry).
SymmetricEigen EigenSymmetric(const Matrix& a);

/// Convenience: the top-k eigenpairs (largest eigenvalues first) as
/// (values, n-by-k matrix of column eigenvectors).
struct TopEigen {
  Vector values;
  Matrix vectors;
  /// Same meaning as SymmetricEigen::converged; callers must check it.
  bool converged = false;
};
TopEigen TopKEigenSymmetric(const Matrix& a, size_t k);

}  // namespace qpp::linalg
