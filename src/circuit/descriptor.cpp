#include "circuit/descriptor.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>

#include "la/cholesky.hpp"
#include "la/lu.hpp"
#include "la/ops.hpp"
#include "sparse/amd.hpp"
#include "sparse/factor_cache.hpp"
#include "sparse/rcm.hpp"
#include "sparse/splu.hpp"
#include "util/faultinject.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"

namespace pmtbr {

using la::cd;
using la::index;
using la::MatC;
using la::MatD;

DescriptorSystem::DescriptorSystem(sparse::CsrD e, sparse::CsrD a, MatD b, MatD c)
    : e_(std::move(e)), a_(std::move(a)), b_(std::move(b)), c_(std::move(c)) {
  PMTBR_REQUIRE(e_.rows() == e_.cols() && a_.rows() == a_.cols(), "E, A must be square");
  PMTBR_REQUIRE(e_.rows() == a_.rows(), "E, A size mismatch");
  PMTBR_REQUIRE(b_.rows() == e_.rows(), "B row count must equal state count");
  PMTBR_REQUIRE(c_.cols() == e_.rows(), "C column count must equal state count");
  PMTBR_CHECK_FINITE(e_, "descriptor E matrix");
  PMTBR_CHECK_FINITE(a_, "descriptor A matrix");
  PMTBR_CHECK_FINITE(b_, "descriptor B matrix");
  PMTBR_CHECK_FINITE(c_, "descriptor C matrix");
}

DescriptorSystem DescriptorSystem::with_ports(const std::vector<index>& cols,
                                              bool restrict_outputs) const {
  MatD b(n(), static_cast<index>(cols.size()));
  for (index j = 0; j < static_cast<index>(cols.size()); ++j) {
    const index col = cols[static_cast<std::size_t>(j)];
    PMTBR_REQUIRE(0 <= col && col < num_inputs(), "port index out of range");
    b.set_col(j, b_.col(col));
  }
  MatD c = c_;
  if (restrict_outputs) {
    c = MatD(static_cast<index>(cols.size()), n());
    for (index i = 0; i < static_cast<index>(cols.size()); ++i) {
      const index row = cols[static_cast<std::size_t>(i)];
      PMTBR_REQUIRE(0 <= row && row < num_outputs(), "port index out of range");
      const double* src = c_.row_ptr(row);
      std::copy(src, src + n(), c.row_ptr(i));
    }
  }
  return DescriptorSystem(e_, a_, std::move(b), std::move(c));
}

const std::vector<index>& DescriptorSystem::ordering() const { return merged().ordering; }

const DescriptorSystem::Merged& DescriptorSystem::merged() const {
  Cache& cache = *cache_;
  util::MutexLock lock(cache.mutex);
  return merged_locked(cache);
}

const DescriptorSystem::Merged& DescriptorSystem::merged_locked(Cache& cache) const {
  if (!cache.merged) {
    PMTBR_TRACE_SCOPE("descriptor.ordering");
    Merged m{sparse::ShiftedPencil(e_, a_),
             sparse::is_symmetric(e_) && sparse::is_symmetric(a_),
             {}};
    // The orderings read only the pattern.
    const sparse::CsrC& terms = m.pencil.terms();
    const sparse::CsrD pattern(terms.rows(), terms.cols(), terms.row_ptr(), terms.col_idx(),
                               std::vector<double>(terms.nnz()));
    m.ordering = m.symmetric ? sparse::amd_ordering(pattern) : sparse::rcm_ordering(pattern);
    cache.merged = std::make_shared<const Merged>(std::move(m));
  }
  return *cache.merged;
}

namespace {

// The shift an unsymmetric pencil's LU analysis freezes its pivot order at:
// s_c = ω₀(1 + j), ω₀ = max|A_ij| / max|E_ij|, 1 when either has no
// nonzero. Re s_c > 0, where no stable pencil is singular.
cd analysis_shift(const sparse::ShiftedPencil& pencil) {
  double e_max = 0.0;
  double a_max = 0.0;
  for (const cd& t : pencil.terms().values()) {
    e_max = std::max(e_max, std::abs(t.real()));
    a_max = std::max(a_max, std::abs(t.imag()));
  }
  const double w0 = e_max > 0.0 && a_max > 0.0 ? a_max / e_max : 1.0;
  return {w0, w0};
}

}  // namespace

const sparse::SymbolicLuC* DescriptorSystem::analysis() const {
  Cache& cache = *cache_;
  util::MutexLock lock(cache.mutex);
  if (!cache.analyzed) {
    // Concurrent first callers serialize here, so exactly one analysis is
    // ever built, and it is the same whichever thread builds it.
    obs::counter_add(obs::Counter::kSymbolicCacheMiss);
    const Merged& m = merged_locked(cache);
    if (m.symmetric) {
      cache.symbolic = std::make_shared<const sparse::SymbolicLuC>(
          sparse::SymbolicLuC::symmetric(m.pencil.terms(), m.ordering));
    } else {
      auto lu = sparse::SymbolicLuC::lu(m.pencil.at(analysis_shift(m.pencil)), m.ordering);
      if (lu.is_ok())
        cache.symbolic = std::make_shared<const sparse::SymbolicLuC>(std::move(lu).value());
    }
    cache.analyzed = true;
  }
  return cache.symbolic.get();
}

namespace {

void mix_csr(util::FingerprintHasher& h, const sparse::CsrD& m) {
  h.mix_i64(static_cast<std::int64_t>(m.rows()));
  h.mix_i64(static_cast<std::int64_t>(m.cols()));
  h.mix_ints(m.row_ptr());
  h.mix_ints(m.col_idx());
  h.mix_doubles(m.values());
}

void mix_dense(util::FingerprintHasher& h, const MatD& m) {
  h.mix_i64(static_cast<std::int64_t>(m.rows()));
  h.mix_i64(static_cast<std::int64_t>(m.cols()));
  h.mix_doubles(m.data(), m.size());
}

}  // namespace

util::Fingerprint DescriptorSystem::content_fingerprint() const {
  Cache& cache = *cache_;
  util::MutexLock lock(cache.mutex);
  if (!cache.fingerprint) {
    util::FingerprintHasher h;
    mix_csr(h, e_);
    mix_csr(h, a_);
    mix_dense(h, b_);
    mix_dense(h, c_);
    cache.fingerprint = std::make_shared<const util::Fingerprint>(h.digest());
  }
  return *cache.fingerprint;
}

util::Status DescriptorSystem::try_prepare_shifted(cd) const {
  (void)analysis();
  return {};
}

namespace {

// δ = rel · max|entry|, added to the pencil's existing diagonal slots only
// (pattern-preserving; rows with no structural diagonal are left alone).
void regularize_diagonal(sparse::CsrC& m, double rel) {
  double max_abs = 0.0;
  for (const cd& v : m.values()) max_abs = std::max(max_abs, std::abs(v));
  const cd delta(rel * max_abs, 0.0);
  for (index i = 0; i < m.rows(); ++i)
    for (index k = m.row_ptr()[static_cast<std::size_t>(i)];
         k < m.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
      if (m.col_idx()[static_cast<std::size_t>(k)] == i)
        m.values()[static_cast<std::size_t>(k)] += delta;
}

}  // namespace

util::Expected<sparse::SparseLuC> DescriptorSystem::numeric_factor(
    const sparse::SymbolicLuC* symbolic, cd s, double diag_reg) const {
  PMTBR_TRACE_SCOPE("descriptor.factor_shifted");
  const Merged& m = merged();
  sparse::CsrC pencil = m.pencil.at(s);
  if (diag_reg > 0.0) regularize_diagonal(pencil, diag_reg);
  if (symbolic) {
    auto lu = sparse::SparseLuC::refactor(*symbolic, pencil);
    if (lu.is_ok()) return lu;
  }
  // Frozen pivot order (or LDLᵀ's diagonal pivot) degenerate at this shift:
  // full LU factorization with fresh pivoting (deterministic — depends only
  // on the pencil values).
  return sparse::SparseLuC::factor(pencil, m.ordering);
}

sparse::SparseLuC DescriptorSystem::factor_shifted(cd s) const {
  auto lu = numeric_factor(analysis(), s, 0.0);
  if (!lu.is_ok()) throw util::StatusError(lu.status());
  return std::move(lu).value();
}

MatC DescriptorSystem::solve_shifted(cd s, const MatC& rhs) const {
  auto x = try_solve_shifted(s, rhs);
  if (!x.is_ok()) throw util::StatusError(x.status());
  return std::move(x).value();
}

namespace {

// rhs is to_complex(b), bit for bit: B's entries as real parts, +0.0 as
// every imaginary part.
bool is_complex_copy(const MatC& rhs, const MatD& b) {
  if (rhs.rows() != b.rows() || rhs.cols() != b.cols()) return false;
  const cd* x = rhs.data();
  const double* y = b.data();
  for (std::size_t k = 0; k < b.size(); ++k)
    if (std::bit_cast<std::uint64_t>(x[k].real()) != std::bit_cast<std::uint64_t>(y[k]) ||
        std::bit_cast<std::uint64_t>(x[k].imag()) != 0)
      return false;
  return true;
}

}  // namespace

util::Fingerprint DescriptorSystem::solve_key(cd s) const {
  util::FingerprintHasher h;
  const util::Fingerprint content = content_fingerprint();
  h.mix(content.hi);
  h.mix(content.lo);
  h.mix_double(s.real());
  h.mix_double(s.imag());
  return h.digest();
}

util::Expected<MatC> DescriptorSystem::try_solve_shifted(cd s, const MatC& rhs,
                                                         double diag_reg) const {
  return std::move(try_solve_shifted(std::span<const cd>(&s, 1), rhs, diag_reg).front());
}

std::vector<util::Expected<MatC>> DescriptorSystem::try_solve_shifted(
    std::span<const cd> shifts, const MatC& rhs, double diag_reg) const {
  PMTBR_TRACE_SCOPE("descriptor.solve_shifted");
  const std::size_t count = shifts.size();
  obs::counter_add(obs::Counter::kShiftedSolve, static_cast<std::int64_t>(count));
  sparse::FactorCache& cache = sparse::FactorCache::global();
  // Only the system's own B is cached, and B is part of the content
  // fingerprint, so the key never digests the right-hand side. Regularized
  // solves are one-off rescues; injected faults are keyed per solve attempt,
  // so serving cached solves — or factoring a lane group — under an armed
  // injector would skip failure sites the robustness suite accounts for
  // exactly.
  const bool cacheable = !(diag_reg > 0.0) && cache.enabled() && !util::fault::enabled() &&
                         is_complex_copy(rhs, b_);
  if (!cacheable) return solve_each(shifts, rhs, diag_reg);
  std::vector<util::Expected<MatC>> out(count);
  std::vector<util::Fingerprint> keys(count);
  std::vector<std::size_t> misses;
  std::vector<cd> miss_shifts;
  for (std::size_t i = 0; i < count; ++i) {
    keys[i] = solve_key(shifts[i]);
    if (auto hit = cache.lookup(keys[i])) {
      out[i] = MatC(*hit);
      continue;
    }
    misses.push_back(i);
    miss_shifts.push_back(shifts[i]);
  }
  if (misses.empty()) return out;
  auto xs = solve_each(miss_shifts, rhs, diag_reg);
  for (std::size_t k = 0; k < misses.size(); ++k) {
    if (xs[k].is_ok())
      cache.insert(keys[misses[k]], std::make_shared<const MatC>(xs[k].value()));
    out[misses[k]] = std::move(xs[k]);
  }
  return out;
}

std::vector<util::Expected<MatC>> DescriptorSystem::try_solve_uncached(
    std::span<const cd> shifts, const MatC& rhs, double diag_reg) const {
  PMTBR_TRACE_SCOPE("descriptor.solve_shifted");
  obs::counter_add(obs::Counter::kShiftedSolve, static_cast<std::int64_t>(shifts.size()));
  return solve_each(shifts, rhs, diag_reg);
}

la::index DescriptorSystem::lane_width() const {
  const sparse::SymbolicLuC* symbolic = analysis();
  return symbolic && symbolic->kind() == sparse::FactorKind::kLdlt ? sparse::lane_width(*symbolic)
                                                                    : 1;
}

std::vector<util::Expected<MatC>> DescriptorSystem::solve_each(std::span<const cd> shifts,
                                                               const MatC& rhs,
                                                               double diag_reg) const {
  std::vector<util::Expected<MatC>> out(shifts.size());
  if (shifts.empty()) return out;
  const sparse::SymbolicLuC* symbolic = analysis();
  const bool lanes = symbolic && symbolic->kind() == sparse::FactorKind::kLdlt &&
                     !util::fault::enabled() && !(diag_reg > 0.0);
  if (!lanes) {
    for (std::size_t i = 0; i < shifts.size(); ++i) {
      auto lu = numeric_factor(symbolic, shifts[i], diag_reg);
      if (lu.is_ok())
        out[i] = lu.value().solve(rhs);
      else
        out[i] = lu.status();
    }
    return out;
  }
  const Merged& m = merged();
  auto xs = sparse::solve_lanes(*symbolic, m.pencil, shifts, rhs);
  for (std::size_t i = 0; i < shifts.size(); ++i) {
    if (xs[i].is_ok()) {
      out[i] = std::move(xs[i]);
      continue;
    }
    // A rejected diagonal pivot: numeric_factor's fallback, a full LU with
    // fresh pivoting, for this shift alone.
    auto lu = sparse::SparseLuC::factor(m.pencil.at(shifts[i]), m.ordering);
    if (lu.is_ok())
      out[i] = lu.value().solve(rhs);
    else
      out[i] = lu.status();
  }
  return out;
}

util::Expected<MatC> DescriptorSystem::try_transfer(cd s) const {
  auto x = try_solve_shifted(s, la::to_complex(b_));
  if (!x.is_ok()) return x.status();
  return la::matmul(la::to_complex(c_), x.value());
}

sparse::SparseLuD DescriptorSystem::factor_real(double alpha, double beta) const {
  PMTBR_TRACE_SCOPE("descriptor.factor_real");
  sparse::CsrD pencil = alpha == 0.0 ? a_ : sparse::combine(alpha, e_, beta, a_);
  if (alpha == 0.0)
    for (auto& v : pencil.values()) v *= beta;
  const Merged& m = merged();
  if (m.symmetric) {
    auto ldlt =
        sparse::SparseLuD::refactor(sparse::SymbolicLuD::symmetric(pencil, m.ordering), pencil);
    if (ldlt.is_ok()) return std::move(ldlt).value();
  }
  return sparse::SparseLuD(pencil, m.ordering);
}

MatC DescriptorSystem::transfer(cd s) const {
  const MatC x = solve_shifted(s, la::to_complex(b_));
  return la::matmul(la::to_complex(c_), x);
}

DenseStandard to_dense_standard(const DescriptorSystem& sys) {
  const MatD e = sys.e().to_dense();
  const la::LuD lu(e);  // throws if E is singular
  DenseStandard out;
  out.a = lu.solve(sys.a().to_dense());
  out.b = lu.solve(sys.b());
  out.c = sys.c();
  return out;
}

DescriptorSystem to_symmetric_standard(const DescriptorSystem& sys) {
  const index n = sys.n();
  // Extract the diagonal of E and verify there is nothing off-diagonal.
  std::vector<double> d(static_cast<std::size_t>(n), 0.0);
  const auto& e = sys.e();
  for (index i = 0; i < n; ++i)
    for (index k = e.row_ptr()[static_cast<std::size_t>(i)];
         k < e.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const index j = e.col_idx()[static_cast<std::size_t>(k)];
      const double v = e.values()[static_cast<std::size_t>(k)];
      PMTBR_REQUIRE(i == j || v == 0.0, "to_symmetric_standard requires diagonal E");
      if (i == j) d[static_cast<std::size_t>(i)] += v;
    }
  std::vector<double> s(static_cast<std::size_t>(n));  // E^{-1/2} diagonal
  for (index i = 0; i < n; ++i) {
    PMTBR_REQUIRE(d[static_cast<std::size_t>(i)] > 0.0,
                  "to_symmetric_standard requires positive diagonal E");
    s[static_cast<std::size_t>(i)] = 1.0 / std::sqrt(d[static_cast<std::size_t>(i)]);
  }

  sparse::Triplets<double> ta(n, n), te(n, n);
  te.reserve(static_cast<std::size_t>(n));
  ta.reserve(sys.a().nnz());
  const auto& a = sys.a();
  for (index i = 0; i < n; ++i) {
    te.add(i, i, 1.0);
    for (index k = a.row_ptr()[static_cast<std::size_t>(i)];
         k < a.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k) {
      const index j = a.col_idx()[static_cast<std::size_t>(k)];
      ta.add(i, j,
             s[static_cast<std::size_t>(i)] * a.values()[static_cast<std::size_t>(k)] *
                 s[static_cast<std::size_t>(j)]);
    }
  }
  MatD b(n, sys.num_inputs());
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < sys.num_inputs(); ++j)
      b(i, j) = s[static_cast<std::size_t>(i)] * sys.b()(i, j);
  MatD c(sys.num_outputs(), n);
  for (index i = 0; i < sys.num_outputs(); ++i)
    for (index j = 0; j < n; ++j) c(i, j) = sys.c()(i, j) * s[static_cast<std::size_t>(j)];
  return DescriptorSystem(sparse::CsrD(te), sparse::CsrD(ta), std::move(b), std::move(c));
}

DescriptorSystem to_energy_standard(const DescriptorSystem& sys) {
  // Fast path: diagonal E.
  {
    bool diagonal = true;
    const auto& e = sys.e();
    for (index i = 0; i < sys.n() && diagonal; ++i)
      for (index k = e.row_ptr()[static_cast<std::size_t>(i)];
           k < e.row_ptr()[static_cast<std::size_t>(i) + 1]; ++k)
        if (e.col_idx()[static_cast<std::size_t>(k)] != i &&
            e.values()[static_cast<std::size_t>(k)] != 0.0)
          diagonal = false;
    if (diagonal) return to_symmetric_standard(sys);
  }

  const MatD e = sys.e().to_dense();
  const MatD l = la::cholesky(e);  // throws if E is not SPD
  const la::LuD lul(l);

  const auto linv = [&](const MatD& m) {  // L^{-1} m
    MatD out(m.rows(), m.cols());
    for (index j = 0; j < m.cols(); ++j) out.set_col(j, lul.solve(m.col(j)));
    return out;
  };
  // Ã = L^{-1} A L^{-T} computed as transpose(L^{-1} transpose(L^{-1} A)).
  const MatD atil = la::transpose(linv(la::transpose(linv(sys.a().to_dense()))));
  const MatD btil = linv(sys.b());
  const MatD ctil = la::transpose(linv(la::transpose(sys.c())));
  return from_dense(atil, btil, ctil);
}

DescriptorSystem from_dense(const MatD& a, const MatD& b, const MatD& c) {
  const index n = a.rows();
  sparse::Triplets<double> te(n, n), ta(n, n);
  te.reserve(static_cast<std::size_t>(n));
  ta.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  for (index i = 0; i < n; ++i) {
    te.add(i, i, 1.0);
    for (index j = 0; j < n; ++j) ta.add(i, j, a(i, j));
  }
  return DescriptorSystem(sparse::CsrD(te), sparse::CsrD(ta), b, c);
}

}  // namespace pmtbr
