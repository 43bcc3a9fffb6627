// Compressed sparse row storage templated on scalar, plus the triplet
// builder used by MNA assembly.
//
// The key composite operation for PMTBR is forming the shifted pencil
// s*E - A as a complex CSR from two real CSRs (shifted_pencil()).
#pragma once

#include <complex>
#include <vector>

#include "la/matrix.hpp"
#include "util/check.hpp"

namespace pmtbr::sparse {

using la::cd;
using la::index;

/// Coordinate-format builder; duplicate entries are summed on conversion.
template <typename T>
class Triplets {
 public:
  Triplets(index rows, index cols) : rows_(rows), cols_(cols) {}

  /// Pre-sizes the entry arrays; assembly loops with a known nnz estimate
  /// avoid the repeated small reallocations that dominate large builds.
  void reserve(std::size_t entries) {
    i_.reserve(entries);
    j_.reserve(entries);
    v_.reserve(entries);
  }

  void add(index i, index j, T v) {
    PMTBR_REQUIRE(0 <= i && i < rows_ && 0 <= j && j < cols_, "triplet out of range");
    if (v == T{}) return;
    i_.push_back(i);
    j_.push_back(j);
    v_.push_back(v);
  }

  index rows() const { return rows_; }
  index cols() const { return cols_; }
  std::size_t nnz() const { return v_.size(); }

  const std::vector<index>& row_idx() const { return i_; }
  const std::vector<index>& col_idx() const { return j_; }
  const std::vector<T>& values() const { return v_; }

 private:
  index rows_, cols_;
  std::vector<index> i_, j_;
  std::vector<T> v_;
};

template <typename T>
class Csr {
 public:
  Csr() = default;
  explicit Csr(const Triplets<T>& t);
  Csr(index rows, index cols, std::vector<index> ptr, std::vector<index> col, std::vector<T> val)
      : rows_(rows), cols_(cols), ptr_(std::move(ptr)), col_(std::move(col)), val_(std::move(val)) {}

  index rows() const { return rows_; }
  index cols() const { return cols_; }
  std::size_t nnz() const { return val_.size(); }

  const std::vector<index>& row_ptr() const { return ptr_; }
  const std::vector<index>& col_idx() const { return col_; }
  const std::vector<T>& values() const { return val_; }
  std::vector<T>& values() { return val_; }

  /// y = A x.
  std::vector<T> matvec(const std::vector<T>& x) const;

  /// y = A^T x (no conjugation).
  std::vector<T> matvec_transpose(const std::vector<T>& x) const;

  /// Dense densification (small matrices / tests only).
  la::Matrix<T> to_dense() const;

  /// Entry lookup (linear scan of the row; for tests).
  T at(index i, index j) const;

 private:
  index rows_ = 0, cols_ = 0;
  std::vector<index> ptr_;
  std::vector<index> col_;
  std::vector<T> val_;
};

using CsrD = Csr<double>;
using CsrC = Csr<cd>;

/// alpha*A + beta*B over the union sparsity pattern.
template <typename T>
Csr<T> combine(T alpha, const Csr<T>& a, T beta, const Csr<T>& b);

/// One slot of the pencil s·E − A: (Re s·e − a, Im s·e), the bits of
/// std::complex's s * e - a.
inline cd pencil_value(cd s, double e, double a) { return {s.real() * e - a, s.imag() * e}; }

/// Complex pencil s*E - A from two real matrices — the PMTBR shifted
/// system, on the union pattern of E and A: ShiftedPencil(e, a).at(s).
CsrC shifted_pencil(cd s, const CsrD& e, const CsrD& a);

/// s·E − A for every s at once: E and A merged onto their union pattern,
/// with E's value at each slot as the real part and A's as the imaginary
/// part (0.0 where one has no entry). The pencil's value at slot k is then
/// pencil_value(s, e_k, a_k), which a lane-batched factor reads for every
/// shift of a group without building any pencil.
class ShiftedPencil {
 public:
  ShiftedPencil(const CsrD& e, const CsrD& a);

  /// (e_k, a_k) at each slot of the union pattern.
  const CsrC& terms() const { return terms_; }

  /// The pencil at one shift: pencil_value at every slot.
  CsrC at(cd s) const;

 private:
  CsrC terms_;
};

/// Complex copy of a real sparse matrix.
CsrC to_complex(const CsrD& a);

/// True when A is square and its stored arrays equal those of A^T entry by
/// entry: same pattern, same values. Conservative for non-canonical CSR
/// (unsorted rows or duplicate entries read as unsymmetric).
bool is_symmetric(const CsrD& a);

// Make the la:: scalar/vector/matrix overloads part of this namespace's
// overload set so unqualified is_finite() (as expanded by
// PMTBR_CHECK_FINITE) resolves for every argument type.
using la::is_finite;

/// Finiteness scan over the stored values (backing PMTBR_CHECK_FINITE).
template <typename T>
bool is_finite(const Csr<T>& a) {
  return la::is_finite(a.values());
}

}  // namespace pmtbr::sparse
