#include "engines/scientific/matrix.h"

#include <algorithm>
#include <cmath>

namespace poly {

StatusOr<DenseMatrix> DenseMatrix::Multiply(const DenseMatrix& other) const {
  if (cols_ != other.rows_) {
    return Status::InvalidArgument("dimension mismatch in matrix multiply");
  }
  DenseMatrix out(rows_, other.cols_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t k = 0; k < cols_; ++k) {
      double a = At(i, k);
      if (a == 0) continue;
      for (size_t j = 0; j < other.cols_; ++j) {
        out.At(i, j) += a * other.At(k, j);
      }
    }
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (size_t i = 0; i < rows_; ++i) {
    for (size_t j = 0; j < cols_; ++j) out.At(j, i) = At(i, j);
  }
  return out;
}

StatusOr<std::vector<double>> DenseMatrix::MultiplyVector(
    const std::vector<double>& v) const {
  if (v.size() != cols_) return Status::InvalidArgument("vector length mismatch");
  std::vector<double> out(rows_, 0);
  for (size_t i = 0; i < rows_; ++i) {
    double sum = 0;
    for (size_t j = 0; j < cols_; ++j) sum += At(i, j) * v[j];
    out[i] = sum;
  }
  return out;
}

double DenseMatrix::FrobeniusNorm() const {
  double sum = 0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

CsrMatrix CsrMatrix::FromTriplets(size_t rows, size_t cols,
                                  std::vector<Triplet> triplets) {
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_offsets_.assign(rows + 1, 0);
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    if (sum != 0 && triplets[i].row < rows && triplets[i].col < cols) {
      m.col_indices_.push_back(triplets[i].col);
      m.values_.push_back(sum);
      ++m.row_offsets_[triplets[i].row + 1];
    }
    i = j;
  }
  for (size_t r = 0; r < rows; ++r) m.row_offsets_[r + 1] += m.row_offsets_[r];
  return m;
}

StatusOr<CsrMatrix> CsrMatrix::FromTable(const ColumnTable& table, const ReadView& view,
                                         const std::string& row_column,
                                         const std::string& col_column,
                                         const std::string& value_column) {
  POLY_ASSIGN_OR_RETURN(size_t rc, table.schema().IndexOf(row_column));
  POLY_ASSIGN_OR_RETURN(size_t cc, table.schema().IndexOf(col_column));
  POLY_ASSIGN_OR_RETURN(size_t vc, table.schema().IndexOf(value_column));
  std::vector<Triplet> triplets;
  uint64_t max_row = 0, max_col = 0;
  ColumnTable::ReadGuard g(&table);
  g.ScanVisible(view, [&](uint64_t r) {
    Value rv = g.GetValue(r, rc);
    Value cv = g.GetValue(r, cc);
    Value vv = g.GetValue(r, vc);
    if (rv.is_null() || cv.is_null() || vv.is_null()) return;
    uint64_t row = static_cast<uint64_t>(rv.AsInt());
    uint64_t col = static_cast<uint64_t>(cv.AsInt());
    max_row = std::max(max_row, row);
    max_col = std::max(max_col, col);
    triplets.push_back({row, col, vv.NumericValue()});
  });
  if (triplets.empty()) return Status::InvalidArgument("no matrix entries visible");
  return FromTriplets(max_row + 1, max_col + 1, std::move(triplets));
}

StatusOr<std::vector<double>> CsrMatrix::MultiplyVector(
    const std::vector<double>& x) const {
  if (x.size() != cols_) return Status::InvalidArgument("vector length mismatch");
  std::vector<double> y(rows_, 0);
  for (size_t r = 0; r < rows_; ++r) {
    double sum = 0;
    for (size_t p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      sum += values_[p] * x[col_indices_[p]];
    }
    y[r] = sum;
  }
  return y;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (size_t r = 0; r < rows_; ++r) {
    for (size_t p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
      out.At(r, col_indices_[p]) = values_[p];
    }
  }
  return out;
}

double CsrMatrix::At(size_t r, size_t c) const {
  if (r >= rows_) return 0;
  for (size_t p = row_offsets_[r]; p < row_offsets_[r + 1]; ++p) {
    if (col_indices_[p] == c) return values_[p];
  }
  return 0;
}

StatusOr<std::vector<double>> CsrMatrix::SolveConjugateGradient(
    const std::vector<double>& b, int max_iters, double tolerance) const {
  if (rows_ != cols_) return Status::InvalidArgument("CG needs a square matrix");
  if (b.size() != rows_) return Status::InvalidArgument("rhs length mismatch");
  std::vector<double> x(rows_, 0.0);
  std::vector<double> r = b;  // residual for x = 0
  std::vector<double> p = r;
  auto dot = [](const std::vector<double>& a, const std::vector<double>& c) {
    double s = 0;
    for (size_t i = 0; i < a.size(); ++i) s += a[i] * c[i];
    return s;
  };
  double rr = dot(r, r);
  if (std::sqrt(rr) <= tolerance) return x;
  for (int it = 0; it < max_iters; ++it) {
    POLY_ASSIGN_OR_RETURN(std::vector<double> ap, MultiplyVector(p));
    double pap = dot(p, ap);
    if (pap <= 0) return Status::Aborted("matrix is not positive definite");
    double alpha = rr / pap;
    for (size_t i = 0; i < rows_; ++i) {
      x[i] += alpha * p[i];
      r[i] -= alpha * ap[i];
    }
    double rr_next = dot(r, r);
    if (std::sqrt(rr_next) <= tolerance) return x;
    double beta = rr_next / rr;
    for (size_t i = 0; i < rows_; ++i) p[i] = r[i] + beta * p[i];
    rr = rr_next;
  }
  return Status::Aborted("conjugate gradient did not converge");
}

StatusOr<double> CsrMatrix::PowerIteration(int max_iters, double tolerance,
                                           std::vector<double>* eigenvector) const {
  if (rows_ != cols_) return Status::InvalidArgument("power iteration needs square matrix");
  if (rows_ == 0) return Status::InvalidArgument("empty matrix");
  std::vector<double> v(rows_, 1.0 / std::sqrt(static_cast<double>(rows_)));
  double eigenvalue = 0;
  for (int it = 0; it < max_iters; ++it) {
    POLY_ASSIGN_OR_RETURN(std::vector<double> w, MultiplyVector(v));
    double norm = 0;
    for (double x : w) norm += x * x;
    norm = std::sqrt(norm);
    if (norm == 0) return Status::InvalidArgument("matrix maps start vector to zero");
    for (double& x : w) x /= norm;
    // Rayleigh quotient.
    POLY_ASSIGN_OR_RETURN(std::vector<double> aw, MultiplyVector(w));
    double lambda = 0;
    for (size_t i = 0; i < rows_; ++i) lambda += w[i] * aw[i];
    double diff = std::abs(lambda - eigenvalue);
    eigenvalue = lambda;
    v = std::move(w);
    if (diff < tolerance && it > 0) break;
  }
  if (eigenvector) *eigenvector = v;
  return eigenvalue;
}

StatusOr<std::vector<double>> ExternalAnalyticsProvider::MultiplyVector(
    const CsrMatrix& matrix, const std::vector<double>& x) {
  // Copy-out: triplets (8+8+8 bytes each) plus the vector; copy-in: result.
  uint64_t out_bytes = matrix.nnz() * 24 + x.size() * 8;
  uint64_t in_bytes = matrix.rows() * 8;
  bytes_transferred_ += out_bytes + in_bytes;
  transfer_seconds_ += static_cast<double>(out_bytes + in_bytes) / bandwidth_;
  return matrix.MultiplyVector(x);
}

}  // namespace poly
