// Dense LU factorization with partial pivoting, templated on scalar.
//
// Used for: reduced-model transfer functions, the matrix-sign Lyapunov
// iteration (repeated inversion), and as the reference solver the sparse LU
// is validated against.
#pragma once

#include <vector>

#include "la/matrix.hpp"
#include "util/status.hpp"

namespace pmtbr::la {

template <typename T>
class Lu {
 public:
  /// Factors PA = LU with partial pivoting. Throws util::StatusError (a
  /// std::runtime_error) if the matrix is numerically singular.
  explicit Lu(Matrix<T> a);

  /// Non-throwing factorization: kSingularMatrix (detail = failing step)
  /// when a zero pivot column is hit.
  static util::Expected<Lu> factor(Matrix<T> a);

  index n() const { return lu_.rows(); }

  /// Solves A x = b.
  std::vector<T> solve(std::vector<T> b) const;

  /// Solves A X = B column-by-column.
  Matrix<T> solve(const Matrix<T>& b) const;

  /// Solves A^T x = b (plain transpose, no conjugation).
  std::vector<T> solve_transpose(std::vector<T> b) const;

  /// A^{-1} (dense; used by the sign iteration).
  Matrix<T> inverse() const;

  /// log|det A| — used for determinant-based scaling in the sign iteration.
  double log_abs_det() const;

 private:
  Lu() = default;
  util::Status factorize(Matrix<T> a);

  Matrix<T> lu_;
  std::vector<index> piv_;  // piv_[k] = row swapped with k at step k
};

using LuD = Lu<double>;
using LuC = Lu<cd>;

/// Convenience: solve A X = B in one call.
template <typename T>
Matrix<T> solve(const Matrix<T>& a, const Matrix<T>& b);

}  // namespace pmtbr::la
