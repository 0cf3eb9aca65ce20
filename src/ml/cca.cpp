#include "ml/cca.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "linalg/cholesky.h"
#include "linalg/eigen_sym.h"
#include "linalg/serde.h"

namespace qpp::ml {

namespace {

linalg::Vector ColumnMeans(const linalg::Matrix& m) {
  linalg::Vector mean(m.cols(), 0.0);
  for (size_t j = 0; j < m.cols(); ++j) {
    double s = 0.0;
    for (size_t i = 0; i < m.rows(); ++i) s += m(i, j);
    mean[j] = s / static_cast<double>(m.rows());
  }
  return mean;
}

linalg::Matrix CenterColumns(const linalg::Matrix& m,
                             const linalg::Vector& mean) {
  linalg::Matrix out(m.rows(), m.cols());
  for (size_t i = 0; i < m.rows(); ++i)
    for (size_t j = 0; j < m.cols(); ++j) out(i, j) = m(i, j) - mean[j];
  return out;
}

void AddRelativeRidge(linalg::Matrix* c, double reg) {
  double mean_diag = 0.0;
  for (size_t i = 0; i < c->rows(); ++i) mean_diag += (*c)(i, i);
  mean_diag /= std::max<double>(static_cast<double>(c->rows()), 1.0);
  if (mean_diag <= 0.0) mean_diag = 1.0;
  c->AddToDiagonal(reg * mean_diag + 1e-12);
}

}  // namespace

CcaModel FitCca(const linalg::Matrix& x, const linalg::Matrix& y,
                size_t num_dims, double reg) {
  QPP_CHECK(x.rows() == y.rows() && x.rows() >= 2);
  const size_t n = x.rows();
  const size_t p = x.cols();
  const size_t q = y.cols();
  const size_t d = std::min({num_dims, p, q});
  QPP_CHECK(d >= 1);

  CcaModel model;
  model.mean_x = ColumnMeans(x);
  model.mean_y = ColumnMeans(y);
  const linalg::Matrix xc = CenterColumns(x, model.mean_x);
  const linalg::Matrix yc = CenterColumns(y, model.mean_y);

  const double inv_n = 1.0 / static_cast<double>(n - 1);
  linalg::Matrix cxx = xc.TransposeMultiply(xc).Scale(inv_n);
  linalg::Matrix cyy = yc.TransposeMultiply(yc).Scale(inv_n);
  const linalg::Matrix cxy = xc.TransposeMultiply(yc).Scale(inv_n);
  AddRelativeRidge(&cxx, reg);
  AddRelativeRidge(&cyy, reg);

  const linalg::Cholesky lx(cxx, 1e-3);
  const linalg::Cholesky ly(cyy, 1e-3);
  QPP_CHECK_MSG(lx.ok() && ly.ok(), "CCA covariance not positive definite");

  // M = Lx^{-1} Cxy Ly^{-T}  (p x q);  S = M M^T  (p x p, symmetric PSD).
  const linalg::Matrix u1 = lx.SolveLowerMatrix(cxy);              // p x q
  const linalg::Matrix m = ly.SolveLowerMatrix(u1.Transpose()).Transpose();
  const linalg::Matrix s = m.MultiplyTranspose(m);

  const linalg::TopEigen top = linalg::TopKEigenSymmetric(s, d);
  QPP_CHECK_MSG(top.converged, "CCA eigensolve did not converge");

  model.wx = linalg::Matrix(p, d);
  model.wy = linalg::Matrix(q, d);
  model.correlations.assign(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    const double sigma = std::sqrt(std::max(top.values[c], 0.0));
    model.correlations[c] = std::min(sigma, 1.0);
    // wx = Lx^{-T} u.
    const linalg::Vector u = top.vectors.Col(c);
    const linalg::Vector wx_col = lx.SolveLowerTranspose(u);
    for (size_t j = 0; j < p; ++j) model.wx(j, c) = wx_col[j];
    // v = M^T u / sigma; wy = Ly^{-T} v.
    linalg::Vector v(q, 0.0);
    for (size_t j = 0; j < q; ++j) {
      double sum = 0.0;
      for (size_t i = 0; i < p; ++i) sum += m(i, j) * u[i];
      v[j] = sigma > 1e-12 ? sum / sigma : sum;
    }
    const linalg::Vector wy_col = ly.SolveLowerTranspose(v);
    for (size_t j = 0; j < q; ++j) model.wy(j, c) = wy_col[j];
  }
  return model;
}

linalg::Vector CcaModel::ProjectX(const linalg::Vector& x) const {
  QPP_CHECK(x.size() == mean_x.size());
  linalg::Vector out(wx.cols(), 0.0);
  for (size_t c = 0; c < wx.cols(); ++c) {
    double s = 0.0;
    for (size_t j = 0; j < x.size(); ++j) {
      s += (x[j] - mean_x[j]) * wx(j, c);
    }
    out[c] = s;
  }
  return out;
}

linalg::Vector CcaModel::ProjectY(const linalg::Vector& y) const {
  QPP_CHECK(y.size() == mean_y.size());
  linalg::Vector out(wy.cols(), 0.0);
  for (size_t c = 0; c < wy.cols(); ++c) {
    double s = 0.0;
    for (size_t j = 0; j < y.size(); ++j) {
      s += (y[j] - mean_y[j]) * wy(j, c);
    }
    out[c] = s;
  }
  return out;
}

linalg::Matrix CcaModel::ProjectXAll(const linalg::Matrix& x) const {
  linalg::Matrix out(x.rows(), wx.cols());
  for (size_t i = 0; i < x.rows(); ++i) out.SetRow(i, ProjectX(x.Row(i)));
  return out;
}

linalg::Matrix CcaModel::ProjectYAll(const linalg::Matrix& y) const {
  linalg::Matrix out(y.rows(), wy.cols());
  for (size_t i = 0; i < y.rows(); ++i) out.SetRow(i, ProjectY(y.Row(i)));
  return out;
}

void CcaModel::Save(BinaryWriter* w) const {
  w->WriteDoubles(mean_x);
  w->WriteDoubles(mean_y);
  linalg::WriteMatrix(w, wx);
  linalg::WriteMatrix(w, wy);
  w->WriteDoubles(correlations);
}

CcaModel CcaModel::Load(BinaryReader* r) {
  CcaModel m;
  m.mean_x = r->ReadDoubles();
  m.mean_y = r->ReadDoubles();
  m.wx = linalg::ReadMatrix(r);
  m.wy = linalg::ReadMatrix(r);
  m.correlations = r->ReadDoubles();
  return m;
}

}  // namespace qpp::ml
