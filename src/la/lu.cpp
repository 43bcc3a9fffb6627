#include "la/lu.hpp"

#include <cmath>
#include <limits>

namespace pmtbr::la {

template <typename T>
Lu<T>::Lu(Matrix<T> a) {
  auto lu = factor(std::move(a));
  if (!lu.is_ok()) throw util::StatusError(lu.status());
  *this = std::move(lu).value();
}

template <typename T>
util::Expected<Lu<T>> Lu<T>::factor(Matrix<T> a) {
  Lu<T> lu;
  util::Status st = lu.factorize(std::move(a));
  if (!st.is_ok()) return st;
  return lu;
}

template <typename T>
util::Status Lu<T>::factorize(Matrix<T> a) {
  lu_ = std::move(a);
  PMTBR_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  PMTBR_CHECK_FINITE(lu_, "LU input matrix");
  const index n = lu_.rows();
  piv_.resize(static_cast<std::size_t>(n));
  for (index k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude entry in column k.
    index p = k;
    double best = std::abs(cd(lu_(k, k)));
    for (index i = k + 1; i < n; ++i) {
      const double v = std::abs(cd(lu_(i, k)));
      if (v > best) {
        best = v;
        p = i;
      }
    }
    piv_[static_cast<std::size_t>(k)] = p;
    if (p != k)
      for (index j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(p, j));
    const T pivot = lu_(k, k);
    if (!(std::abs(cd(pivot)) > 0))
      return util::Status(util::ErrorCode::kSingularMatrix,
                          "singular matrix in LU factorization")
          .with_detail(k, 0.0);
    const T inv_pivot = T{1} / pivot;
    for (index i = k + 1; i < n; ++i) {
      const T lik = lu_(i, k) * inv_pivot;
      lu_(i, k) = lik;
      if (lik == T{}) continue;
      const T* rk = lu_.row_ptr(k);
      T* ri = lu_.row_ptr(i);
      for (index j = k + 1; j < n; ++j) ri[j] -= lik * rk[j];
    }
  }
  return {};
}

template <typename T>
std::vector<T> Lu<T>::solve(std::vector<T> b) const {
  const index n = lu_.rows();
  PMTBR_REQUIRE(static_cast<index>(b.size()) == n, "rhs length mismatch");
  for (index k = 0; k < n; ++k) {
    const index p = piv_[static_cast<std::size_t>(k)];
    if (p != k) std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(p)]);
  }
  // Ly = Pb (unit lower triangular).
  for (index i = 1; i < n; ++i) {
    T acc = b[static_cast<std::size_t>(i)];
    const T* ri = lu_.row_ptr(i);
    for (index j = 0; j < i; ++j) acc -= ri[j] * b[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = acc;
  }
  // Ux = y.
  for (index i = n - 1; i >= 0; --i) {
    T acc = b[static_cast<std::size_t>(i)];
    const T* ri = lu_.row_ptr(i);
    for (index j = i + 1; j < n; ++j) acc -= ri[j] * b[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = acc / ri[i];
  }
  return b;
}

template <typename T>
Matrix<T> Lu<T>::solve(const Matrix<T>& b) const {
  PMTBR_REQUIRE(b.rows() == lu_.rows(), "rhs row mismatch");
  Matrix<T> x(b.rows(), b.cols());
  for (index j = 0; j < b.cols(); ++j) x.set_col(j, solve(b.col(j)));
  return x;
}

template <typename T>
std::vector<T> Lu<T>::solve_transpose(std::vector<T> b) const {
  const index n = lu_.rows();
  PMTBR_REQUIRE(static_cast<index>(b.size()) == n, "rhs length mismatch");
  // A^T = U^T L^T P, so solve U^T y = b, L^T z = y, then x = P^T z.
  for (index i = 0; i < n; ++i) {
    T acc = b[static_cast<std::size_t>(i)];
    for (index j = 0; j < i; ++j) acc -= lu_(j, i) * b[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = acc / lu_(i, i);
  }
  for (index i = n - 1; i >= 0; --i) {
    T acc = b[static_cast<std::size_t>(i)];
    for (index j = i + 1; j < n; ++j) acc -= lu_(j, i) * b[static_cast<std::size_t>(j)];
    b[static_cast<std::size_t>(i)] = acc;
  }
  for (index k = n - 1; k >= 0; --k) {
    const index p = piv_[static_cast<std::size_t>(k)];
    if (p != k) std::swap(b[static_cast<std::size_t>(k)], b[static_cast<std::size_t>(p)]);
  }
  return b;
}

template <typename T>
Matrix<T> Lu<T>::inverse() const {
  return solve(Matrix<T>::identity(lu_.rows()));
}

template <typename T>
double Lu<T>::log_abs_det() const {
  double s = 0;
  for (index i = 0; i < lu_.rows(); ++i) s += std::log(std::abs(cd(lu_(i, i))));
  return s;
}

template <typename T>
Matrix<T> solve(const Matrix<T>& a, const Matrix<T>& b) {
  return Lu<T>(a).solve(b);
}

template class Lu<double>;
template class Lu<cd>;
template Matrix<double> solve(const Matrix<double>&, const Matrix<double>&);
template Matrix<cd> solve(const Matrix<cd>&, const Matrix<cd>&);

}  // namespace pmtbr::la
