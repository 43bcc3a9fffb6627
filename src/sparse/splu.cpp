#include "sparse/splu.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <type_traits>

#include "la/aligned.hpp"
#include "la/kernel_clones.hpp"
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

// ---- The LDLᵀ numeric phase over lanes ------------------------------------
//
// One walk of the frozen pattern factors, then solves, W matrices of one
// analysis: each index is loaded once and every operation runs on all W
// lanes as one GCC vector. Storage is lane-minor: entry e of a W-lane array
// holds S = P·W doubles, the W real parts and then, for complex T (P = 2),
// the W imaginary parts. At W = 1 that is std::vector<T>'s own layout, so a
// SparseLu's l_val_ and diag_ are one-lane arrays and refactor() is the
// one-lane case.
//
// Each lane performs exactly the IEEE operations of a one-lane factor, so
// the grouping cannot change a bit: this file is built with
// -ffp-contract=off (no clone fuses a multiply-add) and
// -fno-tree-slp-vectorize (no clone packs a one-lane complex product into
// a fused add-subtract), complex products are written out on real and
// imaginary parts in one fixed order, and the forward solve's skip of an
// exactly zero multiplier is a per-lane mask. A complex factor keeps D⁻¹,
// formed for all lanes at once by one formula of real divisions
// (reciprocal()), and both L's scaling and the solve multiply by it; no
// lane calls std::complex's division. Real factors divide by d per lane.

template <typename T>
inline constexpr int kParts = 1;
template <>
inline constexpr int kParts<cd> = 2;

// W doubles as one vector; one lane is a plain double.
template <int W>
struct LaneVec {
  typedef double type __attribute__((vector_size(W * sizeof(double))));
};
template <>
struct LaneVec<1> {
  using type = double;
};

// By reference: a vector passed or returned by value would take another
// calling convention in each clone (-Wpsabi).
template <typename V>
[[gnu::always_inline]] inline void load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(V));
}
template <typename V>
[[gnu::always_inline]] inline void store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

// Whether any lane of a comparison result is set.
template <typename M>
[[gnu::always_inline]] inline bool any_lane(const M& m) {
  if constexpr (std::is_arithmetic_v<M>) {
    return m != 0;
  } else {
    std::int64_t lanes[sizeof(M) / sizeof(std::int64_t)];
    std::memcpy(lanes, &m, sizeof(M));
    std::int64_t acc = 0;
    for (const std::int64_t v : lanes) acc |= v;
    return acc != 0;
  }
}

template <int W>
struct Lanes {};

// 1/d for each lane of d = re + i·im, as conj(d)/|d|² with d first scaled
// by s = max(|re|, |im|): every pivot the factor accepts (|d|² > 0, so |d|
// above about 1e-162) gets its reciprocal without overflow or underflow,
// including pivots whose |d|² overflows.
template <typename V>
[[gnu::always_inline]] inline void reciprocal(const V& re, const V& im, V& inv_re, V& inv_im) {
  const V are = re < 0.0 ? -re : re;
  const V aim = im < 0.0 ? -im : im;
  const V s = are < aim ? aim : are;
  const V xr = re / s;
  const V xi = im / s;
  const V den = xr * xr + xi * xi;
  inv_re = (xr / den) / s;
  inv_im = (-xi / den) / s;
}

// Per lane, the column whose diagonal pivot was rejected (-1: accepted)
// and that pivot's magnitude.
struct LaneRejects {
  index col[kMaxLdltLanes];
  double mag[kMaxLdltLanes];
};

// Left-looking L·D·Lᵀ of W matrices against the pattern-only analysis. `av`
// holds each lane's lower triangle in the analysis' scatter order; `x` is
// the n-entry workspace, zero on entry and on return. Column j gathers A's
// lower column j, then subtracts L(j:n, k)·(L(j,k)·d_k) for each k in row j
// of L — only the rows ≥ j of each contributing column. d_j faces the LU
// replay's pivot test, on squared magnitudes. A lane whose pivot is
// rejected is recorded and carried along with a zero reciprocal; the walk
// stops once every lane is rejected. For complex T, `iv` receives D⁻¹
// (zero from a lane's rejected column on); real T never touches it.
template <typename T, int W>
[[gnu::always_inline]] inline void ldlt_factor(const detail::LuPattern<T>& pat, const double* av,
                                               double* lv, double* dv, double* iv, double* x,
                                               LaneRejects& rej) {
  using V = typename LaneVec<W>::type;
  constexpr bool kComplex = kParts<T> == 2;
  constexpr std::size_t S = static_cast<std::size_t>(kParts<T> * W);
  const double tol2 = kRefactorPivotTol * kRefactorPivotTol;
  const index* a_ptr = pat.a_ptr.data();
  const index* a_pos = pat.a_pos.data();
  const index* l_ptr = pat.l_ptr.data();
  const index* l_row = pat.l_row.data();
  const index* u_ptr = pat.u_ptr.data();
  const index* u_row = pat.u_row.data();
  const index* u_lpos = pat.u_lpos.data();
  const auto at = [](index i) { return static_cast<std::size_t>(i) * S; };
  int live = W;
  for (int l = 0; l < W; ++l) rej.col[l] = -1;

  for (index j = 0; j < pat.n; ++j) {
    for (index t = a_ptr[j]; t < a_ptr[j + 1]; ++t)
      std::memcpy(x + at(a_pos[t]), av + at(t), S * sizeof(double));
    for (index t = u_ptr[j]; t < u_ptr[j + 1]; ++t) {
      const index k = u_row[t];
      const index p0 = u_lpos[t];
      const index pe = l_ptr[k + 1];
      V lr, dr;
      load(lr, lv + at(p0));
      load(dr, dv + at(k));
      if constexpr (kComplex) {
        V li, di;
        load(li, lv + at(p0) + W);
        load(di, dv + at(k) + W);
        const V wr = lr * dr - li * di;
        const V wi = lr * di + li * dr;
        for (index p = p0; p < pe; ++p) {
          double* xp = x + at(l_row[p]);
          V a, b, xr, xi;
          load(a, lv + at(p));
          load(b, lv + at(p) + W);
          load(xr, xp);
          load(xi, xp + W);
          xr = xr - (a * wr - b * wi);
          xi = xi - (a * wi + b * wr);
          store(xp, xr);
          store(xp + W, xi);
        }
      } else {
        const V w = lr * dr;
        for (index p = p0; p < pe; ++p) {
          double* xp = x + at(l_row[p]);
          V a, xr;
          load(a, lv + at(p));
          load(xr, xp);
          xr = xr - a * w;
          store(xp, xr);
        }
      }
    }

    const index lb = l_ptr[j];
    const index le = l_ptr[j + 1];
    double* xj = x + at(j);
    V d2, dre;
    load(dre, xj);
    if constexpr (kComplex) {
      V dim;
      load(dim, xj + W);
      d2 = dre * dre + dim * dim;
    } else {
      d2 = dre * dre;
    }
    V best2 = d2;
    for (index p = lb; p < le; ++p) {
      const double* xp = x + at(l_row[p]);
      V a, m2;
      load(a, xp);
      if constexpr (kComplex) {
        V b;
        load(b, xp + W);
        m2 = a * a + b * b;
      } else {
        m2 = a * a;
      }
      best2 = best2 < m2 ? m2 : best2;
    }
    std::memcpy(dv + at(j), xj, S * sizeof(double));
    double d2l[W], best2l[W], keep[W];
    store(d2l, d2);
    store(best2l, best2);
    for (int l = 0; l < W; ++l) {
      keep[l] = 0.0;
      if (rej.col[l] >= 0) continue;
      if (!(d2l[l] > 0) || d2l[l] < tol2 * best2l[l]) {
        rej.col[l] = j;
        rej.mag[l] = std::sqrt(d2l[l]);
        --live;
        continue;
      }
      keep[l] = 1.0;
    }
    V kept, ir, ii;
    load(kept, keep);
    if constexpr (kComplex) {
      V dim;
      load(dim, xj + W);
      reciprocal(dre, dim, ir, ii);
      const V zero{};
      ir = kept != 0.0 ? ir : zero;
      ii = kept != 0.0 ? ii : zero;
      store(iv + at(j), ir);
      store(iv + at(j) + W, ii);
    } else {
      double inv_re[W];
      for (int l = 0; l < W; ++l) inv_re[l] = keep[l] != 0.0 ? 1.0 / xj[l] : 0.0;
      load(ir, inv_re);
    }
    for (index p = lb; p < le; ++p) {
      double* xp = x + at(l_row[p]);
      double* lp = lv + at(p);
      V a;
      load(a, xp);
      if constexpr (kComplex) {
        V b;
        load(b, xp + W);
        const V re = a * ir - b * ii;
        const V im = a * ii + b * ir;
        store(lp, re);
        store(lp + W, im);
      } else {
        const V re = a * ir;
        store(lp, re);
      }
      std::memset(xp, 0, S * sizeof(double));
    }
    std::memset(xj, 0, S * sizeof(double));
    if (live == 0) return;
  }
}

// Solves L·D·Lᵀ y = b in place for every lane, b permuted into `y` (n
// lane-minor entries). `dd` is D⁻¹ for complex T, which the D step
// multiplies by, and D for real T, which it divides by. Lanes of a rejected
// factor end with meaningless values.
template <typename T, int W>
[[gnu::always_inline]] inline void ldlt_solve(const detail::LuPattern<T>& pat, const double* lv,
                                              const double* dd, double* y) {
  using V = typename LaneVec<W>::type;
  constexpr bool kComplex = kParts<T> == 2;
  constexpr std::size_t S = static_cast<std::size_t>(kParts<T> * W);
  const index* l_ptr = pat.l_ptr.data();
  const index* l_row = pat.l_row.data();
  const auto at = [](index i) { return static_cast<std::size_t>(i) * S; };
  const index n = pat.n;
  // L forward (unit diagonal). A lane whose multiplier is exactly zero is
  // left untouched, and a column with none to apply is skipped.
  for (index k = 0; k < n; ++k) {
    V tr, ti;
    load(tr, y + at(k));
    if constexpr (kComplex) {
      load(ti, y + at(k) + W);
      const auto apply = (tr != 0.0) | (ti != 0.0);
      if (!any_lane(apply)) continue;
      for (index p = l_ptr[k]; p < l_ptr[k + 1]; ++p) {
        double* yp = y + at(l_row[p]);
        V a, b, yr, yi;
        load(a, lv + at(p));
        load(b, lv + at(p) + W);
        load(yr, yp);
        load(yi, yp + W);
        const V nr = yr - (a * tr - b * ti);
        const V ni = yi - (a * ti + b * tr);
        yr = apply ? nr : yr;
        yi = apply ? ni : yi;
        store(yp, yr);
        store(yp + W, yi);
      }
    } else {
      const auto apply = tr != 0.0;
      if (!any_lane(apply)) continue;
      for (index p = l_ptr[k]; p < l_ptr[k + 1]; ++p) {
        double* yp = y + at(l_row[p]);
        V a, yr;
        load(a, lv + at(p));
        load(yr, yp);
        const V nr = yr - a * tr;
        yr = apply ? nr : yr;
        store(yp, yr);
      }
    }
  }
  // D, then Lᵀ backward.
  for (index k = n - 1; k >= 0; --k) {
    double* yk = y + at(k);
    V accr, acci;
    load(accr, yk);
    if constexpr (kComplex) {
      V yi, ir, ii;
      load(yi, yk + W);
      load(ir, dd + at(k));
      load(ii, dd + at(k) + W);
      const V yr = accr;
      accr = yr * ir - yi * ii;
      acci = yr * ii + yi * ir;
    } else {
      V d;
      load(d, dd + at(k));
      accr = accr / d;
    }
    for (index p = l_ptr[k]; p < l_ptr[k + 1]; ++p) {
      const double* yp = y + at(l_row[p]);
      V a, yr;
      load(a, lv + at(p));
      load(yr, yp);
      if constexpr (kComplex) {
        V b, yi;
        load(b, lv + at(p) + W);
        load(yi, yp + W);
        accr = accr - (a * yr - b * yi);
        acci = acci - (a * yi + b * yr);
      } else {
        accr = accr - a * yr;
      }
    }
    store(yk, accr);
    if constexpr (kComplex) store(yk + W, acci);
  }
}

// One multiversioned entry per lane count (la/kernel_clones.hpp): `flatten`
// inlines the kernel into each clone, so its lane vectors take that
// clone's register width. Real matrices (factor_real's pencils) are only
// ever factored one at a time.
#define PMTBR_LDLT_LANE_KERNELS(T, W)                                                          \
  PMTBR_KERNEL_CLONES                                                                          \
  void lane_factor(Lanes<W>, const detail::LuPattern<T>& pat, const double* av, double* lv,   \
                   double* dv, double* iv, double* x, LaneRejects& rej) {                      \
    ldlt_factor<T, W>(pat, av, lv, dv, iv, x, rej);                                            \
  }                                                                                            \
  PMTBR_KERNEL_CLONES                                                                          \
  void lane_solve(Lanes<W>, const detail::LuPattern<T>& pat, const double* lv,                \
                  const double* dd, double* y) {                                               \
    ldlt_solve<T, W>(pat, lv, dd, y);                                                          \
  }
PMTBR_LDLT_LANE_KERNELS(double, 1)
PMTBR_LDLT_LANE_KERNELS(cd, 1)
PMTBR_LDLT_LANE_KERNELS(cd, 2)
PMTBR_LDLT_LANE_KERNELS(cd, 4)
PMTBR_LDLT_LANE_KERNELS(cd, 8)
#undef PMTBR_LDLT_LANE_KERNELS

// Lane `lane` of entry k of a W-lane array.
inline void put_lane(double* v, index k, int w, int lane, double x) {
  v[static_cast<std::size_t>(k) * static_cast<std::size_t>(w) + static_cast<std::size_t>(lane)] = x;
}
inline void put_lane(double* v, index k, int w, int lane, const cd& x) {
  double* e = v + static_cast<std::size_t>(k) * 2 * static_cast<std::size_t>(w);
  e[lane] = x.real();
  e[w + lane] = x.imag();
}
template <typename T>
T get_lane(const double* v, index k, int w, int lane) {
  const double* e = v + static_cast<std::size_t>(k) * kParts<T> * static_cast<std::size_t>(w);
  if constexpr (kParts<T> == 2)
    return T(e[lane], e[w + lane]);
  else
    return e[lane];
}

inline double* as_doubles(double* p) { return p; }
inline double* as_doubles(cd* p) { return reinterpret_cast<double*>(p); }
inline const double* as_doubles(const double* p) { return p; }
inline const double* as_doubles(const cd* p) { return reinterpret_cast<const double*>(p); }

// Copies A's lower triangle, in the analysis' scatter order, into lane
// `lane` of the w-lane array `av`.
template <typename T>
void pack_lane(const detail::LuPattern<T>& pat, const Csr<T>& a, double* av, int w, int lane) {
  for (std::size_t t = 0; t < pat.a_pos.size(); ++t)
    put_lane(av, static_cast<index>(t), w, lane,
             a.values()[static_cast<std::size_t>(pat.a_slot[t])]);
}

template <typename T>
void check_refactor_input(const detail::LuPattern<T>& pat, const Csr<T>& a) {
  PMTBR_REQUIRE(a.rows() == a.cols() && a.rows() == pat.n, "refactor matrix size mismatch");
  PMTBR_REQUIRE(a.row_ptr() == pat.a_row_ptr && a.col_idx() == pat.a_col_idx,
                "refactor matrix pattern mismatch");
  PMTBR_CHECK_FINITE(a, "sparse LU refactor input matrix");
}

// An LDLᵀ analysis factors only exactly symmetric values: each lower
// entry equals its transposed twin.
template <typename T>
void check_symmetric_values(const detail::LuPattern<T>& pat, const Csr<T>& a) {
  const auto& vals = a.values();
  for (std::size_t t = 0; t < pat.a_pos.size(); ++t)
    PMTBR_REQUIRE(vals[static_cast<std::size_t>(pat.a_slot[t])] ==
                      vals[static_cast<std::size_t>(pat.a_mirror[t])],
                  "LDLT refactor requires exactly symmetric values");
}

util::Status degenerate_pivot(const LaneRejects& rej, int lane) {
  return util::Status(util::ErrorCode::kDegeneratePivot,
                      "diagonal pivot numerically inadequate for these values")
      .with_detail(rej.col[lane], rej.mag[lane]);
}

// One group's lane storage may take at most this many bytes: A's lower
// triangle, L, D and the workspace, for every lane. Wider groups of large
// factors would only trade cache for memory traffic; a 300×300 RC mesh
// (about 46 MB of L per lane) is factored one shift at a time.
constexpr std::size_t kLaneGroupBytes = std::size_t{32} << 20;

// Lanes per group for an analysis: kMaxLdltLanes, halved until the group
// fits kLaneGroupBytes, at least one.
int lane_cap(const detail::LuPattern<cd>& pat) {
  const std::size_t per_lane =
      (pat.a_pos.size() + pat.l_row.size() + 2 * static_cast<std::size_t>(pat.n)) * sizeof(cd);
  int cap = kMaxLdltLanes;
  while (cap > 1 && static_cast<std::size_t>(cap) * per_lane > kLaneGroupBytes) cap /= 2;
  return cap;
}

// The batched entry point's lane storage, one set per thread, grown to the
// largest group the thread has served and reused by every later call. Each
// buffer starts on a cache line (la/aligned.hpp), so no load or store of
// four or eight lanes straddles two.
struct LaneBuffers {
  la::AlignedVector<double> a, l, d, dinv, x;
};
LaneBuffers& lane_buffers() {
  thread_local LaneBuffers buffers;
  return buffers;
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
  if (util::fault::should_fail(util::fault::Site::kSpluPivot))
    return util::Status(util::ErrorCode::kInjectedFault, "splu.pivot fault injected");
  return pivoting_factor(a, std::move(perm));
}

template <typename T>
util::Expected<SparseLu<T>> SparseLu<T>::pivoting_factor(const Csr<T>& a,
                                                         std::vector<index> perm) {
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
util::Expected<SymbolicLu<T>> SymbolicLu<T>::lu(const Csr<T>& representative,
                                                std::vector<index> perm) {
  auto full = SparseLu<T>::pivoting_factor(representative, std::move(perm));
  if (!full.is_ok()) return full.status();
  return SymbolicLu<T>(full.value().pattern_);
}

template <typename T>
SymbolicLu<T>::SymbolicLu(const Csr<T>& representative, std::vector<index> perm)
    : SymbolicLu(lu(representative, std::move(perm)).value()) {}

template <typename T>
SymbolicLu<T> SymbolicLu<T>::symmetric(const Csr<T>& a, std::vector<index> perm) {
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
  check_refactor_input(pat, a);
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

template <typename T>
util::Status SparseLu<T>::refactor_ldlt(const Csr<T>& a) {
  PMTBR_TRACE_SCOPE("splu.ldlt");
  if (util::fault::should_fail(util::fault::Site::kSpluRefactor))
    return util::Status(util::ErrorCode::kInjectedFault, "splu.refactor fault injected");
  const auto& pat = *pattern_;
  constexpr std::size_t S = kParts<T>;
  check_symmetric_values(pat, a);
  std::vector<double> av(pat.a_pos.size() * S);
  pack_lane(pat, a, av.data(), 1, 0);
  l_val_.resize(pat.l_row.size());
  diag_.resize(static_cast<std::size_t>(pat.n));
  std::vector<double> x(static_cast<std::size_t>(pat.n) * S, 0.0);
  // A complex factor keeps D⁻¹, which its solve multiplies by, and factors
  // D in scratch; a real one keeps D.
  constexpr bool kComplex = kParts<T> == 2;
  std::vector<double> d(kComplex ? x.size() : 0);
  double* dv = kComplex ? d.data() : as_doubles(diag_.data());
  double* iv = kComplex ? as_doubles(diag_.data()) : nullptr;
  LaneRejects rej;
  lane_factor(Lanes<1>{}, pat, av.data(), as_doubles(l_val_.data()), dv, iv, x.data(), rej);
  if (rej.col[0] >= 0) return degenerate_pivot(rej, 0);
  return {};
}

template <typename T>
std::vector<T> SparseLu<T>::solve_ldlt(const std::vector<T>& b) const {
  const auto& pat = *pattern_;
  const index n = pat.n;
  std::vector<double> y(static_cast<std::size_t>(n) * kParts<T>);
  for (index k = 0; k < n; ++k)
    put_lane(y.data(), k, 1, 0, b[static_cast<std::size_t>(pat.q[static_cast<std::size_t>(k)])]);
  lane_solve(Lanes<1>{}, pat, as_doubles(l_val_.data()), as_doubles(diag_.data()), y.data());
  std::vector<T> out(static_cast<std::size_t>(n));
  for (index k = 0; k < n; ++k)
    out[static_cast<std::size_t>(pat.q[static_cast<std::size_t>(k)])] =
        get_lane<T>(y.data(), k, 1, 0);
  return out;
}

namespace {

// One group of solve_lanes at lane width W: factors s·E − A at each shift
// of `shifts` (at most W; lanes past them repeat the first) in the
// thread's lane buffers, counts each factor as refactor() would, and
// appends each X_k or its rejection to `out`.
template <int W>
void solve_group(const detail::LuPattern<cd>& pat, const ShiftedPencil& pencil,
                 std::span<const cd> shifts, const la::MatC& rhs,
                 std::vector<util::Expected<la::MatC>>& out) {
  constexpr std::size_t S = 2 * W;
  const index n = pat.n;
  const auto nn = static_cast<std::size_t>(n);
  const auto group = static_cast<index>(shifts.size());
  LaneBuffers& buf = lane_buffers();
  const auto fit = [](la::AlignedVector<double>& v, std::size_t size) {
    if (v.size() < size) v.resize(size);
    PMTBR_DEBUG_ASSERT(la::is_cache_aligned(v.data()), "lane buffer off its cache line");
    return v.data();
  };
  double* av = fit(buf.a, pat.a_pos.size() * S);
  double* lv = fit(buf.l, pat.l_row.size() * S);
  double* dv = fit(buf.d, nn * S);
  double* iv = fit(buf.dinv, nn * S);
  double* x = fit(buf.x, nn * S);
  std::fill(x, x + nn * S, 0.0);
  const auto& terms = pencil.terms().values();
  for (std::size_t t = 0; t < pat.a_pos.size(); ++t) {
    const cd ea = terms[static_cast<std::size_t>(pat.a_slot[t])];
    for (int l = 0; l < W; ++l)
      put_lane(av, static_cast<index>(t), W, l,
               pencil_value(shifts[static_cast<std::size_t>(l < group ? l : 0)], ea.real(),
                            ea.imag()));
  }

  LaneRejects rej;
  {
    PMTBR_TRACE_SCOPE("splu.ldlt");
    lane_factor(Lanes<W>{}, pat, av, lv, dv, iv, x, rej);
  }
  obs::counter_add(obs::Counter::kSparseLdltLaneGroups);
  obs::counter_add(obs::Counter::kSparseLdltLanes, group);
  bool live[W];
  std::vector<la::MatC> xs;
  for (int l = 0; l < W; ++l) {
    live[l] = rej.col[l] < 0;
    if (l >= group) continue;
    if (!live[l]) {
      obs::counter_add(obs::Counter::kSparseLuRefactorReject);
      continue;
    }
    obs::counter_add(obs::Counter::kSparseLuRefactor);
    obs::counter_add(obs::Counter::kSparseLuFactorEntries,
                     static_cast<std::int64_t>(2 * pat.l_row.size() + nn));
    xs.emplace_back(n, rhs.cols());
  }

  // The workspace is zero again after the factor; it now holds y, one
  // right-hand-side column at a time, for every lane.
  for (index c = 0; c < rhs.cols(); ++c) {
    for (index k = 0; k < n; ++k) {
      const cd v = rhs(pat.q[static_cast<std::size_t>(k)], c);
      for (int l = 0; l < W; ++l) put_lane(x, k, W, l, v);
    }
    lane_solve(Lanes<W>{}, pat, lv, iv, x);
    std::size_t next = 0;
    for (int l = 0; l < group; ++l) {
      if (!live[l]) continue;
      la::MatC& xl = xs[next++];
      for (index k = 0; k < n; ++k)
        xl(pat.q[static_cast<std::size_t>(k)], c) = get_lane<cd>(x, k, W, l);
    }
  }
  std::size_t next = 0;
  for (int l = 0; l < group; ++l) {
    if (live[l])
      out.emplace_back(std::move(xs[next++]));
    else
      out.emplace_back(degenerate_pivot(rej, l));
  }
}

}  // namespace

std::vector<util::Expected<la::MatC>> solve_lanes(const SymbolicLuC& symbolic,
                                                  const ShiftedPencil& pencil,
                                                  std::span<const cd> shifts,
                                                  const la::MatC& rhs) {
  const detail::LuPattern<cd>& pat = *symbolic.pattern_;
  PMTBR_REQUIRE(pat.kind == FactorKind::kLdlt, "lane-batched factors need an LDLT analysis");
  PMTBR_REQUIRE(rhs.rows() == pat.n, "rhs row mismatch");
  check_refactor_input(pat, pencil.terms());
  // s·e − a is symmetric at every s exactly when E and A are.
  check_symmetric_values(pat, pencil.terms());
  std::vector<util::Expected<la::MatC>> out;
  out.reserve(shifts.size());
  const auto cap = static_cast<std::size_t>(lane_cap(pat));
  for (std::size_t base = 0; base < shifts.size(); base += cap) {
    const auto group = shifts.subspan(base, std::min(cap, shifts.size() - base));
    if (group.size() == 1)
      solve_group<1>(pat, pencil, group, rhs, out);
    else if (group.size() == 2)
      solve_group<2>(pat, pencil, group, rhs, out);
    else if (group.size() <= 4)
      solve_group<4>(pat, pencil, group, rhs, out);
    else
      solve_group<8>(pat, pencil, group, rhs, out);
  }
  return out;
}

int lane_width(const SymbolicLuC& symbolic) {
  PMTBR_REQUIRE(symbolic.kind() == FactorKind::kLdlt, "lane groups need an LDLT analysis");
  return lane_cap(*symbolic.pattern_);
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
