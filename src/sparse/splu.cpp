#include "sparse/splu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "sparse/rcm.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::sparse {

namespace {

// A numeric factorization against a frozen analysis (the LU replay's frozen
// pivot, LDLᵀ's diagonal pivot d_j) rejects a pivot whose magnitude falls
// below this times the best candidate a fresh factorization could have
// picked for that column (kDegeneratePivot); the caller full-factors
// instead.
constexpr double kRefactorPivotTol = 1e-10;

// Compressed-sparse-column view of a CSR matrix after a symmetric
// permutation: column j holds rows of A(q, q)(:, j), where inv = q^{-1}.
// `slot` remembers the originating CSR value slot of each entry so a
// numeric refactorization can scatter straight from a same-pattern
// matrix's value array.
template <typename T>
struct Csc {
  std::vector<index> ptr, row, slot;
  std::vector<T> val;
};

template <typename T>
Csc<T> to_permuted_csc(const Csr<T>& a, const std::vector<index>& inv) {
  const index n = a.rows();
  Csc<T> c;
  c.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index i = 0; i < n; ++i)
    for (index k = a.row_ptr()[static_cast<std::size_t>(i)];
         k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
      ++c.ptr[static_cast<std::size_t>(
                  inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])]) +
              1];
  for (index j = 0; j < n; ++j)
    c.ptr[static_cast<std::size_t>(j) + 1] += c.ptr[static_cast<std::size_t>(j)];
  c.row.resize(a.nnz());
  c.slot.resize(a.nnz());
  c.val.resize(a.nnz());
  std::vector<index> next(c.ptr.begin(), c.ptr.end() - 1);
  for (index i = 0; i < n; ++i) {
    const index pi = inv[static_cast<std::size_t>(i)];
    for (index k = a.row_ptr()[static_cast<std::size_t>(i)];
         k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const index pj = inv[static_cast<std::size_t>(a.col_idx()[static_cast<std::size_t>(k)])];
      const index pos = next[static_cast<std::size_t>(pj)]++;
      c.row[static_cast<std::size_t>(pos)] = pi;
      c.slot[static_cast<std::size_t>(pos)] = k;
      c.val[static_cast<std::size_t>(pos)] = a.values()[static_cast<std::size_t>(k)];
    }
  }
  return c;
}

constexpr double kPivotThreshold = 1e-3;  // prefer the diagonal when viable

// The symmetric pre-permutation q of an n×n matrix: `perm`, or the identity
// when it is empty.
std::vector<index> pre_permutation(index n, std::vector<index> perm) {
  if (!perm.empty()) {
    PMTBR_REQUIRE(static_cast<index>(perm.size()) == n, "perm length mismatch");
    return perm;
  }
  std::vector<index> q(static_cast<std::size_t>(n));
  std::iota(q.begin(), q.end(), index{0});
  return q;
}

// a·b written out on real and imaginary parts: at -O2, std::complex's
// operator* keeps a NaN-recovery branch to __muldc3 in every inner loop.
inline double mul(double a, double b) { return a * b; }
inline cd mul(const cd& a, const cd& b) {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}

}  // namespace

template <typename T>
SparseLu<T>::SparseLu(const Csr<T>& a, std::vector<index> perm) {
  auto lu = factor(a, std::move(perm));
  if (!lu.is_ok()) throw util::StatusError(lu.status());
  *this = std::move(lu).value();
}

template <typename T>
util::Expected<SparseLu<T>> SparseLu<T>::factor(const Csr<T>& a, std::vector<index> perm) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "sparse LU requires a square matrix");
  PMTBR_CHECK_FINITE(a, "sparse LU input matrix");
  auto pattern = std::make_shared<detail::LuPattern<T>>();
  pattern->n = a.rows();
  pattern->q = pre_permutation(a.rows(), std::move(perm));
  const std::vector<index> qinv = invert_permutation(pattern->q);  // rejects a non-permutation
  SparseLu<T> lu;
  util::Status st = lu.factor(a, *pattern, qinv);
  if (!st.is_ok()) return st;
  lu.pattern_ = std::move(pattern);
  obs::counter_add(obs::Counter::kSparseLuFactorEntries, lu.factor_entries());
  return lu;
}

template <typename T>
SymbolicLu<T>::SymbolicLu(std::shared_ptr<const detail::LuPattern<T>> pattern)
    : pattern_(std::move(pattern)) {
  util::FingerprintHasher h;
  h.mix_i64(static_cast<std::int64_t>(pattern_->kind));
  h.mix_i64(static_cast<std::int64_t>(pattern_->n));
  h.mix_ints(pattern_->q);
  h.mix_ints(pattern_->pinv);
  fingerprint_ = h.digest();
}

template <typename T>
SymbolicLu<T>::SymbolicLu(const Csr<T>& representative, std::vector<index> perm)
    : SymbolicLu(SparseLu<T>(representative, std::move(perm)).pattern_) {}

template <typename T>
util::Expected<SymbolicLu<T>> SymbolicLu<T>::symmetric(const Csr<T>& a, std::vector<index> perm) {
  PMTBR_REQUIRE(a.rows() == a.cols(), "LDLT analysis requires a square matrix");
  PMTBR_TRACE_SCOPE("splu.analyze");
  const index n = a.rows();
  const auto nn = static_cast<std::size_t>(n);
  auto pattern = std::make_shared<detail::LuPattern<T>>();
  detail::LuPattern<T>& pat = *pattern;
  pat.kind = FactorKind::kLdlt;
  pat.n = n;
  pat.q = pre_permutation(n, std::move(perm));
  const std::vector<index> qinv = invert_permutation(pat.q);  // rejects a non-permutation
  if (util::fault::should_fail(util::fault::Site::kSpluPivot))
    return util::Status(util::ErrorCode::kInjectedFault, "splu.pivot fault injected");
  const auto& ptr = a.row_ptr();
  const auto& col = a.col_idx();

  // Transpose by counting sort. Scanning rows in order leaves each row of
  // A^T sorted, so a canonical, structurally symmetric A has A^T's layout
  // slot for slot, and mirror[k] is the slot of the transposed twin of k.
  std::vector<index> next(nn + 1, 0);
  for (const index c : col) ++next[static_cast<std::size_t>(c) + 1];
  for (std::size_t j = 0; j < nn; ++j) next[j + 1] += next[j];
  PMTBR_REQUIRE(next == ptr, "LDLT analysis requires a structurally symmetric pattern");
  std::vector<index> mirror(a.nnz());
  for (index i = 0; i < n; ++i)
    for (index k = ptr[static_cast<std::size_t>(i)]; k < ptr[static_cast<std::size_t>(i) + 1];
         ++k) {
      const index t = next[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])]++;
      PMTBR_REQUIRE(col[static_cast<std::size_t>(t)] == i,
                    "LDLT analysis requires a structurally symmetric pattern");
      mirror[static_cast<std::size_t>(t)] = k;
    }

  // Scatter map of the permuted lower triangle, by permuted column.
  pat.a_ptr.assign(nn + 1, 0);
  for (index r = 0; r < n; ++r)
    for (index k = ptr[static_cast<std::size_t>(r)]; k < ptr[static_cast<std::size_t>(r) + 1];
         ++k) {
      const index pc = qinv[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
      if (qinv[static_cast<std::size_t>(r)] >= pc) ++pat.a_ptr[static_cast<std::size_t>(pc) + 1];
    }
  for (std::size_t j = 0; j < nn; ++j) pat.a_ptr[j + 1] += pat.a_ptr[j];
  const auto lower = static_cast<std::size_t>(pat.a_ptr[nn]);
  pat.a_pos.resize(lower);
  pat.a_slot.resize(lower);
  pat.a_mirror.resize(lower);
  next.assign(pat.a_ptr.begin(), pat.a_ptr.end() - 1);
  for (index r = 0; r < n; ++r) {
    const index pr = qinv[static_cast<std::size_t>(r)];
    for (index k = ptr[static_cast<std::size_t>(r)]; k < ptr[static_cast<std::size_t>(r) + 1];
         ++k) {
      const index pc = qinv[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
      if (pr < pc) continue;
      const auto t = static_cast<std::size_t>(next[static_cast<std::size_t>(pc)]++);
      pat.a_pos[t] = pr;
      pat.a_slot[t] = k;
      pat.a_mirror[t] = mirror[static_cast<std::size_t>(k)];
    }
  }

  // Row i of L is the union of the elimination-tree paths from each j < i
  // with A(q,q)(i, j) != 0 up to i (Liu). Row by row: extend the tree with
  // row i (path-compressed ancestors), then walk those paths, which only
  // cross parents already set.
  std::vector<index> parent(nn, -1), ancestor(nn, -1), flag(nn, -1), count(nn, 0);
  pat.u_ptr.assign(1, 0);
  for (index i = 0; i < n; ++i) {
    const index r = pat.q[static_cast<std::size_t>(i)];
    const index rb = ptr[static_cast<std::size_t>(r)];
    const index re = ptr[static_cast<std::size_t>(r) + 1];
    for (index k = rb; k < re; ++k) {
      index j = qinv[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
      while (j != -1 && j < i) {
        const index up = ancestor[static_cast<std::size_t>(j)];
        ancestor[static_cast<std::size_t>(j)] = i;
        if (up == -1) parent[static_cast<std::size_t>(j)] = i;
        j = up;
      }
    }
    flag[static_cast<std::size_t>(i)] = i;
    for (index k = rb; k < re; ++k) {
      index j = qinv[static_cast<std::size_t>(col[static_cast<std::size_t>(k)])];
      if (j > i) continue;
      for (; flag[static_cast<std::size_t>(j)] != i; j = parent[static_cast<std::size_t>(j)]) {
        flag[static_cast<std::size_t>(j)] = i;
        pat.u_row.push_back(j);
        ++count[static_cast<std::size_t>(j)];
      }
    }
    pat.u_ptr.push_back(static_cast<index>(pat.u_row.size()));
  }

  // Columns of L from the rows: scanning rows in order keeps each column's
  // rows ascending, and u_lpos records where each row entry landed.
  pat.l_ptr.assign(nn + 1, 0);
  for (std::size_t j = 0; j < nn; ++j) pat.l_ptr[j + 1] = pat.l_ptr[j] + count[j];
  pat.l_row.resize(pat.u_row.size());
  pat.u_lpos.resize(pat.u_row.size());
  next.assign(pat.l_ptr.begin(), pat.l_ptr.end() - 1);
  for (index i = 0; i < n; ++i)
    for (index t = pat.u_ptr[static_cast<std::size_t>(i)];
         t < pat.u_ptr[static_cast<std::size_t>(i) + 1]; ++t) {
      const index p = next[static_cast<std::size_t>(pat.u_row[static_cast<std::size_t>(t)])]++;
      pat.l_row[static_cast<std::size_t>(p)] = i;
      pat.u_lpos[static_cast<std::size_t>(t)] = p;
    }
  pat.a_row_ptr = ptr;
  pat.a_col_idx = col;
  return SymbolicLu<T>(std::move(pattern));
}

template <typename T>
SymbolicLu<T> SparseLu<T>::symbolic() const {
  return SymbolicLu<T>(pattern_);
}

template <typename T>
util::Expected<SparseLu<T>> SparseLu<T>::refactor(const SymbolicLu<T>& symbolic, const Csr<T>& a) {
  const detail::LuPattern<T>& pat = *symbolic.pattern_;
  PMTBR_REQUIRE(a.rows() == a.cols() && a.rows() == pat.n, "refactor matrix size mismatch");
  PMTBR_REQUIRE(a.row_ptr() == pat.a_row_ptr && a.col_idx() == pat.a_col_idx,
                "refactor matrix pattern mismatch");
  PMTBR_CHECK_FINITE(a, "sparse LU refactor input matrix");
  SparseLu<T> lu;
  lu.pattern_ = symbolic.pattern_;
  util::Status st =
      pat.kind == FactorKind::kLdlt ? lu.refactor_ldlt(a) : lu.refactor(a);
  if (!st.is_ok()) {
    obs::counter_add(obs::Counter::kSparseLuRefactorReject);
    return st;
  }
  obs::counter_add(obs::Counter::kSparseLuRefactor);
  obs::counter_add(obs::Counter::kSparseLuFactorEntries, lu.factor_entries());
  return lu;
}

template <typename T>
util::Status SparseLu<T>::factor(const Csr<T>& a, detail::LuPattern<T>& pat,
                                 const std::vector<index>& qinv) {
  PMTBR_TRACE_SCOPE("splu.full_factor");
  obs::counter_add(obs::Counter::kSparseLuFullFactor);
  if (util::fault::should_fail(util::fault::Site::kSpluPivot))
    return util::Status(util::ErrorCode::kInjectedFault, "splu.pivot fault injected");
  const Csc<T> ap = to_permuted_csc(a, qinv);
  const index n = pat.n;

  pat.pinv.assign(static_cast<std::size_t>(n), -1);
  pat.prow.assign(static_cast<std::size_t>(n), -1);
  pat.l_ptr.assign(1, 0);
  pat.u_ptr.assign(1, 0);
  diag_.assign(static_cast<std::size_t>(n), T{});

  std::vector<T> x(static_cast<std::size_t>(n), T{});
  std::vector<char> mark(static_cast<std::size_t>(n), 0);
  std::vector<index> pattern;      // reach of column j, topological order
  std::vector<index> dfs_stack, pos_stack;

  for (index j = 0; j < n; ++j) {
    // --- symbolic: reach of Ap(:,j) through the L graph -----------------
    pattern.clear();
    for (index k = ap.ptr[static_cast<std::size_t>(j)]; k < ap.ptr[static_cast<std::size_t>(j) + 1];
         ++k) {
      index start = ap.row[static_cast<std::size_t>(k)];
      if (mark[static_cast<std::size_t>(start)]) continue;
      dfs_stack.assign(1, start);
      pos_stack.assign(1, 0);
      mark[static_cast<std::size_t>(start)] = 1;
      while (!dfs_stack.empty()) {
        const index v = dfs_stack.back();
        const index kp = pat.pinv[static_cast<std::size_t>(v)];
        bool descended = false;
        if (kp >= 0) {
          index& p = pos_stack.back();
          const index lb = pat.l_ptr[static_cast<std::size_t>(kp)];
          const index le = pat.l_ptr[static_cast<std::size_t>(kp) + 1];
          while (lb + p < le) {
            const index child = pat.l_row[static_cast<std::size_t>(lb + p)];
            ++p;
            if (!mark[static_cast<std::size_t>(child)]) {
              mark[static_cast<std::size_t>(child)] = 1;
              dfs_stack.push_back(child);
              pos_stack.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          pattern.push_back(v);
          dfs_stack.pop_back();
          pos_stack.pop_back();
        }
      }
    }
    // pattern is in postorder; reverse gives topological order.
    std::reverse(pattern.begin(), pattern.end());

    // --- numeric: scatter column j and eliminate ------------------------
    for (index k = ap.ptr[static_cast<std::size_t>(j)]; k < ap.ptr[static_cast<std::size_t>(j) + 1];
         ++k)
      x[static_cast<std::size_t>(ap.row[static_cast<std::size_t>(k)])] =
          ap.val[static_cast<std::size_t>(k)];

    for (index v : pattern) {
      const index kp = pat.pinv[static_cast<std::size_t>(v)];
      if (kp < 0) continue;
      const T xv = x[static_cast<std::size_t>(v)];
      if (xv == T{}) continue;
      for (index k = pat.l_ptr[static_cast<std::size_t>(kp)];
           k < pat.l_ptr[static_cast<std::size_t>(kp) + 1]; ++k)
        x[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(k)])] -=
            l_val_[static_cast<std::size_t>(k)] * xv;
    }

    // --- pivot selection -------------------------------------------------
    index pivot = -1;
    double best = 0;
    double diag_mag = -1;
    for (index v : pattern) {
      if (pat.pinv[static_cast<std::size_t>(v)] >= 0) continue;
      const double m = std::abs(la::cd(x[static_cast<std::size_t>(v)]));
      if (v == j) diag_mag = m;
      if (m > best) {
        best = m;
        pivot = v;
      }
    }
    if (!(pivot >= 0 && best > 0))
      return util::Status(util::ErrorCode::kSingularMatrix,
                          "structurally or numerically singular matrix")
          .with_detail(j, best);
    if (diag_mag >= kPivotThreshold * best) pivot = j;

    pat.pinv[static_cast<std::size_t>(pivot)] = j;
    pat.prow[static_cast<std::size_t>(j)] = pivot;
    const T piv = x[static_cast<std::size_t>(pivot)];
    diag_[static_cast<std::size_t>(j)] = piv;

    // --- gather U(:,j) (pivotal rows) and L(:,j) (non-pivotal rows) ------
    // Exact-zero L entries are kept: the frozen pattern must cover every
    // structurally reachable position so a numeric replay at other values
    // (where they are generally nonzero) stays correct.
    for (index v : pattern) {
      const index kp = pat.pinv[static_cast<std::size_t>(v)];
      if (v == pivot) {
        // pivot handled via diag_
      } else if (kp >= 0 && kp < j) {
        pat.u_row.push_back(kp);
        u_val_.push_back(x[static_cast<std::size_t>(v)]);
      } else {
        pat.l_row.push_back(v);  // permuted-row index; remapped after factor
        l_val_.push_back(x[static_cast<std::size_t>(v)] / piv);
      }
      x[static_cast<std::size_t>(v)] = T{};
      mark[static_cast<std::size_t>(v)] = 0;
    }
    pat.l_ptr.push_back(static_cast<index>(pat.l_row.size()));
    pat.u_ptr.push_back(static_cast<index>(pat.u_row.size()));
  }

  // Remap L row indices from permuted-row space to pivot positions so the
  // triangular solves are direct.
  for (auto& r : pat.l_row) r = pat.pinv[static_cast<std::size_t>(r)];

  // Scatter map in pivot-position space for numeric refactorization.
  pat.a_ptr = ap.ptr;
  pat.a_row_ptr = a.row_ptr();
  pat.a_col_idx = a.col_idx();
  pat.a_pos.resize(a.nnz());
  pat.a_slot = ap.slot;
  for (std::size_t t = 0; t < a.nnz(); ++t)
    pat.a_pos[t] = pat.pinv[static_cast<std::size_t>(ap.row[t])];
  return {};
}

template <typename T>
util::Status SparseLu<T>::refactor(const Csr<T>& a) {
  PMTBR_TRACE_SCOPE("splu.refactor");
  if (util::fault::should_fail(util::fault::Site::kSpluRefactor))
    return util::Status(util::ErrorCode::kInjectedFault, "splu.refactor fault injected");
  const auto& pat = *pattern_;
  const index n = pat.n;
  const auto& vals = a.values();

  l_val_.assign(pat.l_row.size(), T{});
  u_val_.assign(pat.u_row.size(), T{});
  diag_.assign(static_cast<std::size_t>(n), T{});

  // Dense workspace in pivot-position space; zero between columns.
  std::vector<T> x(static_cast<std::size_t>(n), T{});

  for (index j = 0; j < n; ++j) {
    for (index t = pat.a_ptr[static_cast<std::size_t>(j)];
         t < pat.a_ptr[static_cast<std::size_t>(j) + 1]; ++t)
      x[static_cast<std::size_t>(pat.a_pos[static_cast<std::size_t>(t)])] =
          vals[static_cast<std::size_t>(pat.a_slot[static_cast<std::size_t>(t)])];

    // Eliminate along the frozen U pattern (stored in elimination order).
    for (index t = pat.u_ptr[static_cast<std::size_t>(j)];
         t < pat.u_ptr[static_cast<std::size_t>(j) + 1]; ++t) {
      const index kp = pat.u_row[static_cast<std::size_t>(t)];
      const T xv = x[static_cast<std::size_t>(kp)];
      u_val_[static_cast<std::size_t>(t)] = xv;
      if (xv == T{}) continue;
      for (index p = pat.l_ptr[static_cast<std::size_t>(kp)];
           p < pat.l_ptr[static_cast<std::size_t>(kp) + 1]; ++p)
        x[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])] -=
            l_val_[static_cast<std::size_t>(p)] * xv;
    }

    // The pivot row is frozen at position j; accept it only if it is not
    // degenerate relative to the candidates a fresh factorization could
    // have picked for this column.
    const T piv = x[static_cast<std::size_t>(j)];
    const double piv_mag = std::abs(la::cd(piv));
    double best = piv_mag;
    for (index p = pat.l_ptr[static_cast<std::size_t>(j)];
         p < pat.l_ptr[static_cast<std::size_t>(j) + 1]; ++p)
      best = std::max(best,
                      std::abs(la::cd(x[static_cast<std::size_t>(
                          pat.l_row[static_cast<std::size_t>(p)])])));
    if (!(piv_mag > 0) || piv_mag < kRefactorPivotTol * best)
      return util::Status(util::ErrorCode::kDegeneratePivot,
                          "frozen pivot order numerically inadequate for these values")
          .with_detail(j, piv_mag);
    diag_[static_cast<std::size_t>(j)] = piv;

    for (index p = pat.l_ptr[static_cast<std::size_t>(j)];
         p < pat.l_ptr[static_cast<std::size_t>(j) + 1]; ++p) {
      const index r = pat.l_row[static_cast<std::size_t>(p)];
      l_val_[static_cast<std::size_t>(p)] = x[static_cast<std::size_t>(r)] / piv;
      x[static_cast<std::size_t>(r)] = T{};
    }
    for (index t = pat.u_ptr[static_cast<std::size_t>(j)];
         t < pat.u_ptr[static_cast<std::size_t>(j) + 1]; ++t)
      x[static_cast<std::size_t>(pat.u_row[static_cast<std::size_t>(t)])] = T{};
    x[static_cast<std::size_t>(j)] = T{};
  }
  return {};
}

// Left-looking L·D·Lᵀ against the pattern-only analysis. Column j gathers
// A's lower column j, then subtracts L(j:n, k)·(L(j,k)·d_k) for each k in
// row j of L — only the rows ≥ j of each contributing column. d_j faces the
// LU replay's pivot test, on squared magnitudes.
template <typename T>
util::Status SparseLu<T>::refactor_ldlt(const Csr<T>& a) {
  PMTBR_TRACE_SCOPE("splu.ldlt");
  if (util::fault::should_fail(util::fault::Site::kSpluRefactor))
    return util::Status(util::ErrorCode::kInjectedFault, "splu.refactor fault injected");
  const auto& pat = *pattern_;
  const index n = pat.n;
  const auto& vals = a.values();
  const double tol2 = kRefactorPivotTol * kRefactorPivotTol;

  l_val_.resize(pat.l_row.size());
  diag_.resize(static_cast<std::size_t>(n));
  std::vector<T> x(static_cast<std::size_t>(n), T{});  // zero between columns

  for (index j = 0; j < n; ++j) {
    for (index t = pat.a_ptr[static_cast<std::size_t>(j)];
         t < pat.a_ptr[static_cast<std::size_t>(j) + 1]; ++t) {
      const T v = vals[static_cast<std::size_t>(pat.a_slot[static_cast<std::size_t>(t)])];
      PMTBR_REQUIRE(v == vals[static_cast<std::size_t>(pat.a_mirror[static_cast<std::size_t>(t)])],
                    "LDLT refactor requires exactly symmetric values");
      x[static_cast<std::size_t>(pat.a_pos[static_cast<std::size_t>(t)])] = v;
    }
    for (index t = pat.u_ptr[static_cast<std::size_t>(j)];
         t < pat.u_ptr[static_cast<std::size_t>(j) + 1]; ++t) {
      const index k = pat.u_row[static_cast<std::size_t>(t)];
      const index p0 = pat.u_lpos[static_cast<std::size_t>(t)];
      const T w = mul(l_val_[static_cast<std::size_t>(p0)], diag_[static_cast<std::size_t>(k)]);
      for (index p = p0; p < pat.l_ptr[static_cast<std::size_t>(k) + 1]; ++p)
        x[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])] -=
            mul(l_val_[static_cast<std::size_t>(p)], w);
    }

    const index lb = pat.l_ptr[static_cast<std::size_t>(j)];
    const index le = pat.l_ptr[static_cast<std::size_t>(j) + 1];
    const T d = x[static_cast<std::size_t>(j)];
    const double d2 = std::norm(d);
    double best2 = d2;
    for (index p = lb; p < le; ++p)
      best2 = std::max(
          best2, std::norm(x[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])]));
    if (!(d2 > 0) || d2 < tol2 * best2)
      return util::Status(util::ErrorCode::kDegeneratePivot,
                          "diagonal pivot numerically inadequate for these values")
          .with_detail(j, std::sqrt(d2));
    diag_[static_cast<std::size_t>(j)] = d;
    const T inv = T{1} / d;
    for (index p = lb; p < le; ++p) {
      T& xr = x[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])];
      l_val_[static_cast<std::size_t>(p)] = mul(xr, inv);
      xr = T{};
    }
    x[static_cast<std::size_t>(j)] = T{};
  }
  return {};
}

template <typename T>
std::vector<T> SparseLu<T>::solve_ldlt(const std::vector<T>& b) const {
  const auto& pat = *pattern_;
  const index n = pat.n;
  std::vector<T> y(static_cast<std::size_t>(n));
  for (index k = 0; k < n; ++k)
    y[static_cast<std::size_t>(k)] =
        b[static_cast<std::size_t>(pat.q[static_cast<std::size_t>(k)])];
  // L forward (unit diagonal).
  for (index k = 0; k < n; ++k) {
    const T t = y[static_cast<std::size_t>(k)];
    if (t == T{}) continue;
    for (index p = pat.l_ptr[static_cast<std::size_t>(k)];
         p < pat.l_ptr[static_cast<std::size_t>(k) + 1]; ++p)
      y[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])] -=
          mul(l_val_[static_cast<std::size_t>(p)], t);
  }
  // D, then Lᵀ backward.
  for (index k = n - 1; k >= 0; --k) {
    T acc = y[static_cast<std::size_t>(k)] / diag_[static_cast<std::size_t>(k)];
    for (index p = pat.l_ptr[static_cast<std::size_t>(k)];
         p < pat.l_ptr[static_cast<std::size_t>(k) + 1]; ++p)
      acc -= mul(l_val_[static_cast<std::size_t>(p)],
                 y[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])]);
    y[static_cast<std::size_t>(k)] = acc;
  }
  std::vector<T> out(static_cast<std::size_t>(n));
  for (index k = 0; k < n; ++k)
    out[static_cast<std::size_t>(pat.q[static_cast<std::size_t>(k)])] =
        y[static_cast<std::size_t>(k)];
  return out;
}

template <typename T>
std::vector<T> SparseLu<T>::solve(std::vector<T> b) const {
  const auto& pat = *pattern_;
  const index n = pat.n;
  PMTBR_REQUIRE(static_cast<index>(b.size()) == n, "rhs length mismatch");
  if (pat.kind == FactorKind::kLdlt) return solve_ldlt(b);
  // y[k] = b[q[prow[k]]]  (apply symmetric perm then pivot perm).
  std::vector<T> y(static_cast<std::size_t>(n));
  for (index k = 0; k < n; ++k)
    y[static_cast<std::size_t>(k)] = b[static_cast<std::size_t>(
        pat.q[static_cast<std::size_t>(pat.prow[static_cast<std::size_t>(k)])])];
  // L forward (unit diagonal).
  for (index k = 0; k < n; ++k) {
    const T t = y[static_cast<std::size_t>(k)];
    if (t == T{}) continue;
    for (index p = pat.l_ptr[static_cast<std::size_t>(k)];
         p < pat.l_ptr[static_cast<std::size_t>(k) + 1]; ++p)
      y[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])] -=
          l_val_[static_cast<std::size_t>(p)] * t;
  }
  // U backward.
  for (index k = n - 1; k >= 0; --k) {
    const T t = y[static_cast<std::size_t>(k)] / diag_[static_cast<std::size_t>(k)];
    y[static_cast<std::size_t>(k)] = t;
    if (t == T{}) continue;
    for (index p = pat.u_ptr[static_cast<std::size_t>(k)];
         p < pat.u_ptr[static_cast<std::size_t>(k) + 1]; ++p)
      y[static_cast<std::size_t>(pat.u_row[static_cast<std::size_t>(p)])] -=
          u_val_[static_cast<std::size_t>(p)] * t;
  }
  // x[q[j]] = y[j].
  std::vector<T> out(static_cast<std::size_t>(n));
  for (index jj = 0; jj < n; ++jj)
    out[static_cast<std::size_t>(pat.q[static_cast<std::size_t>(jj)])] =
        y[static_cast<std::size_t>(jj)];
  return out;
}

template <typename T>
std::vector<T> SparseLu<T>::solve_transpose(std::vector<T> b) const {
  const auto& pat = *pattern_;
  const index n = pat.n;
  PMTBR_REQUIRE(static_cast<index>(b.size()) == n, "rhs length mismatch");
  if (pat.kind == FactorKind::kLdlt) return solve_ldlt(b);  // A^T = A
  // bp[j] = b[q[j]].
  std::vector<T> w(static_cast<std::size_t>(n));
  for (index jj = 0; jj < n; ++jj)
    w[static_cast<std::size_t>(jj)] =
        b[static_cast<std::size_t>(pat.q[static_cast<std::size_t>(jj)])];
  // U^T forward: column j of U is row j of U^T.
  for (index jj = 0; jj < n; ++jj) {
    T acc = w[static_cast<std::size_t>(jj)];
    for (index p = pat.u_ptr[static_cast<std::size_t>(jj)];
         p < pat.u_ptr[static_cast<std::size_t>(jj) + 1]; ++p)
      acc -= u_val_[static_cast<std::size_t>(p)] *
             w[static_cast<std::size_t>(pat.u_row[static_cast<std::size_t>(p)])];
    w[static_cast<std::size_t>(jj)] = acc / diag_[static_cast<std::size_t>(jj)];
  }
  // L^T backward (unit diagonal).
  for (index jj = n - 1; jj >= 0; --jj) {
    T acc = w[static_cast<std::size_t>(jj)];
    for (index p = pat.l_ptr[static_cast<std::size_t>(jj)];
         p < pat.l_ptr[static_cast<std::size_t>(jj) + 1]; ++p)
      acc -= l_val_[static_cast<std::size_t>(p)] *
             w[static_cast<std::size_t>(pat.l_row[static_cast<std::size_t>(p)])];
    w[static_cast<std::size_t>(jj)] = acc;
  }
  // x[q[prow[k]]] = w[k].
  std::vector<T> out(static_cast<std::size_t>(n));
  for (index k = 0; k < n; ++k)
    out[static_cast<std::size_t>(
        pat.q[static_cast<std::size_t>(pat.prow[static_cast<std::size_t>(k)])])] =
        w[static_cast<std::size_t>(k)];
  return out;
}

template <typename T>
la::Matrix<T> SparseLu<T>::solve(const la::Matrix<T>& b) const {
  PMTBR_REQUIRE(b.rows() == pattern_->n, "rhs row mismatch");
  la::Matrix<T> x(b.rows(), b.cols());
  util::parallel_for(0, b.cols(), [&](index j) { x.set_col(j, solve(b.col(j))); });
  return x;
}

template <typename T>
la::Matrix<T> SparseLu<T>::solve_transpose(const la::Matrix<T>& b) const {
  PMTBR_REQUIRE(b.rows() == pattern_->n, "rhs row mismatch");
  la::Matrix<T> x(b.rows(), b.cols());
  util::parallel_for(0, b.cols(), [&](index j) { x.set_col(j, solve_transpose(b.col(j))); });
  return x;
}

template class SparseLu<double>;
template class SparseLu<cd>;
template class SymbolicLu<double>;
template class SymbolicLu<cd>;

}  // namespace pmtbr::sparse
