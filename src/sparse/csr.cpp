#include "sparse/csr.hpp"

#include <algorithm>
#include <numeric>

namespace pmtbr::sparse {

template <typename T>
Csr<T>::Csr(const Triplets<T>& t) : rows_(t.rows()), cols_(t.cols()) {
  const auto& ti = t.row_idx();
  const auto& tj = t.col_idx();
  const auto& tv = t.values();
  const std::size_t nz = tv.size();

  // Counting sort by row.
  ptr_.assign(static_cast<std::size_t>(rows_) + 1, 0);
  for (std::size_t k = 0; k < nz; ++k) ++ptr_[static_cast<std::size_t>(ti[k]) + 1];
  for (index i = 0; i < rows_; ++i)
    ptr_[static_cast<std::size_t>(i) + 1] += ptr_[static_cast<std::size_t>(i)];

  std::vector<index> tmp_col(nz);
  std::vector<T> tmp_val(nz);
  std::vector<index> next(ptr_.begin(), ptr_.end() - 1);
  for (std::size_t k = 0; k < nz; ++k) {
    const index pos = next[static_cast<std::size_t>(ti[k])]++;
    tmp_col[static_cast<std::size_t>(pos)] = tj[k];
    tmp_val[static_cast<std::size_t>(pos)] = tv[k];
  }

  // Sort each row by column and sum duplicates.
  col_.reserve(nz);
  val_.reserve(nz);
  std::vector<index> new_ptr(static_cast<std::size_t>(rows_) + 1, 0);
  std::vector<std::size_t> order;
  for (index i = 0; i < rows_; ++i) {
    const index b = ptr_[static_cast<std::size_t>(i)];
    const index e = ptr_[static_cast<std::size_t>(i) + 1];
    order.resize(static_cast<std::size_t>(e - b));
    std::iota(order.begin(), order.end(), static_cast<std::size_t>(b));
    std::sort(order.begin(), order.end(),
              [&](std::size_t x, std::size_t y) { return tmp_col[x] < tmp_col[y]; });
    for (std::size_t k = 0; k < order.size(); ++k) {
      const index c = tmp_col[order[k]];
      const T v = tmp_val[order[k]];
      if (!col_.empty() &&
          static_cast<index>(col_.size()) > new_ptr[static_cast<std::size_t>(i)] &&
          col_.back() == c) {
        val_.back() += v;
      } else {
        col_.push_back(c);
        val_.push_back(v);
      }
    }
    new_ptr[static_cast<std::size_t>(i) + 1] = static_cast<index>(col_.size());
  }
  ptr_ = std::move(new_ptr);
}

template <typename T>
std::vector<T> Csr<T>::matvec(const std::vector<T>& x) const {
  PMTBR_REQUIRE(static_cast<index>(x.size()) == cols_, "matvec size mismatch");
  PMTBR_CHECK_FINITE(*this, "csr matvec matrix");
  PMTBR_CHECK_FINITE(x, "csr matvec vector");
  std::vector<T> y(static_cast<std::size_t>(rows_), T{});
  for (index i = 0; i < rows_; ++i) {
    T acc{};
    for (index k = ptr_[static_cast<std::size_t>(i)]; k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      acc += val_[static_cast<std::size_t>(k)] * x[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])];
    y[static_cast<std::size_t>(i)] = acc;
  }
  return y;
}

template <typename T>
std::vector<T> Csr<T>::matvec_transpose(const std::vector<T>& x) const {
  PMTBR_REQUIRE(static_cast<index>(x.size()) == rows_, "matvec_transpose size mismatch");
  PMTBR_CHECK_FINITE(*this, "csr matvec_transpose matrix");
  PMTBR_CHECK_FINITE(x, "csr matvec_transpose vector");
  std::vector<T> y(static_cast<std::size_t>(cols_), T{});
  for (index i = 0; i < rows_; ++i) {
    const T xi = x[static_cast<std::size_t>(i)];
    if (xi == T{}) continue;
    for (index k = ptr_[static_cast<std::size_t>(i)]; k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      y[static_cast<std::size_t>(col_[static_cast<std::size_t>(k)])] += val_[static_cast<std::size_t>(k)] * xi;
  }
  return y;
}

template <typename T>
la::Matrix<T> Csr<T>::to_dense() const {
  la::Matrix<T> d(rows_, cols_);
  for (index i = 0; i < rows_; ++i)
    for (index k = ptr_[static_cast<std::size_t>(i)]; k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
      d(i, col_[static_cast<std::size_t>(k)]) += val_[static_cast<std::size_t>(k)];
  return d;
}

template <typename T>
T Csr<T>::at(index i, index j) const {
  PMTBR_REQUIRE(0 <= i && i < rows_ && 0 <= j && j < cols_, "index out of range");
  for (index k = ptr_[static_cast<std::size_t>(i)]; k < ptr_[static_cast<std::size_t>(i) + 1]; ++k)
    if (col_[static_cast<std::size_t>(k)] == j) return val_[static_cast<std::size_t>(k)];
  return T{};
}

namespace {

// Merges two CSRs over the union pattern row by row, applying a binary op
// on (a_val, b_val) pairs where a missing entry contributes T{}.
template <typename TA, typename TB, typename TO, typename F>
Csr<TO> merge_rows(const Csr<TA>& a, const Csr<TB>& b, F f) {
  PMTBR_REQUIRE(a.rows() == b.rows() && a.cols() == b.cols(), "combine shape mismatch");
  std::vector<index> ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
  std::vector<index> col;
  std::vector<TO> val;
  col.reserve(a.nnz() + b.nnz());
  val.reserve(a.nnz() + b.nnz());
  for (index i = 0; i < a.rows(); ++i) {
    index ka = a.row_ptr()[static_cast<std::size_t>(i)];
    const index ea = a.row_ptr()[static_cast<std::size_t>(i) + 1];
    index kb = b.row_ptr()[static_cast<std::size_t>(i)];
    const index eb = b.row_ptr()[static_cast<std::size_t>(i) + 1];
    while (ka < ea || kb < eb) {
      index ca = ka < ea ? a.col_idx()[static_cast<std::size_t>(ka)] : a.cols();
      index cb = kb < eb ? b.col_idx()[static_cast<std::size_t>(kb)] : b.cols();
      if (ca < cb) {
        col.push_back(ca);
        val.push_back(f(a.values()[static_cast<std::size_t>(ka)], TB{}));
        ++ka;
      } else if (cb < ca) {
        col.push_back(cb);
        val.push_back(f(TA{}, b.values()[static_cast<std::size_t>(kb)]));
        ++kb;
      } else {
        col.push_back(ca);
        val.push_back(
            f(a.values()[static_cast<std::size_t>(ka)], b.values()[static_cast<std::size_t>(kb)]));
        ++ka;
        ++kb;
      }
    }
    ptr[static_cast<std::size_t>(i) + 1] = static_cast<index>(col.size());
  }
  return Csr<TO>(a.rows(), a.cols(), std::move(ptr), std::move(col), std::move(val));
}

}  // namespace

template <typename T>
Csr<T> combine(T alpha, const Csr<T>& a, T beta, const Csr<T>& b) {
  return merge_rows<T, T, T>(a, b, [&](T x, T y) { return alpha * x + beta * y; });
}

CsrC shifted_pencil(cd s, const CsrD& e, const CsrD& a) { return ShiftedPencil(e, a).at(s); }

ShiftedPencil::ShiftedPencil(const CsrD& e, const CsrD& a)
    : terms_(merge_rows<double, double, cd>(e, a, [](double x, double y) { return cd(x, y); })) {}

CsrC ShiftedPencil::at(cd s) const {
  std::vector<cd> val(terms_.nnz());
  for (std::size_t k = 0; k < val.size(); ++k)
    val[k] = pencil_value(s, terms_.values()[k].real(), terms_.values()[k].imag());
  return CsrC(terms_.rows(), terms_.cols(), terms_.row_ptr(), terms_.col_idx(), std::move(val));
}

CsrC to_complex(const CsrD& a) {
  std::vector<cd> v(a.values().begin(), a.values().end());
  return CsrC(a.rows(), a.cols(), a.row_ptr(), a.col_idx(), std::move(v));
}

bool is_symmetric(const CsrD& a) {
  if (a.rows() != a.cols()) return false;
  const index n = a.rows();
  const auto& ptr = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  // A^T by counting sort: scanning rows in order leaves each row of A^T
  // sorted, so a canonical A equals it slot for slot.
  std::vector<index> tptr(static_cast<std::size_t>(n) + 1, 0);
  for (const index j : col) ++tptr[static_cast<std::size_t>(j) + 1];
  for (index j = 0; j < n; ++j)
    tptr[static_cast<std::size_t>(j) + 1] += tptr[static_cast<std::size_t>(j)];
  if (tptr != ptr) return false;
  std::vector<index> tcol(a.nnz());
  std::vector<double> tval(a.nnz());
  std::vector<index> next(tptr.begin(), tptr.end() - 1);
  for (index i = 0; i < n; ++i)
    for (index k = ptr[static_cast<std::size_t>(i)]; k < ptr[static_cast<std::size_t>(i) + 1];
         ++k) {
      const index pos = next[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])]++;
      tcol[static_cast<std::size_t>(pos)] = i;
      tval[static_cast<std::size_t>(pos)] = val[static_cast<std::size_t>(k)];
    }
  return tcol == col && tval == val;
}

template class Csr<double>;
template class Csr<cd>;
template Csr<double> combine(double, const Csr<double>&, double, const Csr<double>&);
template Csr<cd> combine(cd, const Csr<cd>&, cd, const Csr<cd>&);
template class Triplets<double>;
template class Triplets<cd>;

}  // namespace pmtbr::sparse
