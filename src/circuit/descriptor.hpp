// Sparse descriptor state-space system E dx/dt = A x + B u, y = C x — the
// common currency between the circuit substrate and the MOR algorithms.
//
// E is allowed to be singular (standard for MNA); everything PMTBR needs is
// the shifted solve (sE - A)^{-1}, which stays well-posed as long as the
// pencil is regular. E and A are merged once per system onto their union
// pattern (sparse::ShiftedPencil), the pattern of sE - A at every shift, so
// one symbolic analysis serves all shifts and every shift is a cheap
// numeric-only factorization against it. The analysis reads only E and A:
// when both are exactly symmetric (every RC network) sE - A is complex
// symmetric at every s, the analysis is pattern-only and each shift is
// factored as L·D·Lᵀ with diagonal pivots. Otherwise (RLC) a full
// Gilbert–Peierls LU at the fixed shift s_c = ω₀(1 + j), ω₀ = max|A_ij| /
// max|E_ij| (1 when either has no nonzero), freezes the pivot order and
// each shift replays it; Re s_c > 0, where no stable pencil is singular.
// A pivot the numeric factor rejects falls back to a full pivoting LU at
// that shift, and so does every shift of a pencil singular at s_c. So a
// solve depends only on E, A, the shift and the right-hand side, never on
// what was solved before. The merge, the fill-reducing ordering
// (approximate minimum degree for symmetric pencils, RCM otherwise; see
// ordering()) and the analysis are cached behind a mutex, so concurrent
// solve_shifted calls from the thread pool are safe.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "la/matrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/splu.hpp"
#include "util/annotations.hpp"
#include "util/fingerprint.hpp"
#include "util/mutex.hpp"
#include "util/status.hpp"

namespace pmtbr {

class DescriptorSystem {
 public:
  DescriptorSystem() = default;
  DescriptorSystem(sparse::CsrD e, sparse::CsrD a, la::MatD b, la::MatD c);

  la::index n() const { return e_.rows(); }          // states
  la::index num_inputs() const { return b_.cols(); }
  la::index num_outputs() const { return c_.rows(); }

  const sparse::CsrD& e() const { return e_; }
  const sparse::CsrD& a() const { return a_; }
  const la::MatD& b() const { return b_; }
  const la::MatD& c() const { return c_; }

  /// Restrict to a subset of input columns (paper Sec. IV-A: entropy grows
  /// with added inputs). Outputs are restricted to the matching rows when
  /// the system is reciprocal (C = B^T); pass restrict_outputs=false to keep
  /// all outputs.
  DescriptorSystem with_ports(const std::vector<la::index>& cols,
                              bool restrict_outputs = true) const;

  /// X = (sE - A)^{-1} R for a dense complex right-hand side.
  la::MatC solve_shifted(la::cd s, const la::MatC& rhs) const;

  /// Sparse factor of the complex pencil sE − A, the complex twin of
  /// factor_real: a numeric factor against the cached analysis (L·D·Lᵀ for
  /// a symmetric pencil, the frozen-pivot LU replay otherwise), with a
  /// pivoting LU when a pivot is rejected. Never cached. For callers that
  /// solve more than one right-hand side at one shift (the cross-Gramian's
  /// B and Cᵀ). Throws util::StatusError when the pencil is singular at s.
  sparse::SparseLuC factor_shifted(la::cd s) const;

  /// Transfer function H(s) = C (sE - A)^{-1} B.
  la::MatC transfer(la::cd s) const;

  /// Sparse factor of the real pencil αE + βA (βA alone, on A's pattern,
  /// when α == 0): the expansion pencil s0·E − A of PRIMA and PVL, the
  /// trapezoidal matrix E/h − A/2 of the transient integrator. The rule of
  /// the complex shifts: under ordering(), an L·D·Lᵀ factor when E and A
  /// are exactly symmetric, with a pivoting LU when a diagonal pivot is
  /// rejected; a pivoting LU otherwise. Throws util::StatusError when the
  /// pencil is singular.
  sparse::SparseLuD factor_real(double alpha, double beta) const;

  /// Fill-reducing ordering of the union pattern of E and A, computed
  /// lazily and cached; safe to call concurrently. When E and A are both
  /// exactly symmetric (every RC network) it is sparse::amd_ordering: the
  /// pencil is factored as L·D·Lᵀ with its pivots on the diagonal, the
  /// symmetric elimination AMD plans for, and a 2-D mesh factors with about
  /// half of RCM's fill. Otherwise (RLC MNA, where A couples node voltages
  /// and inductor currents antisymmetrically) it is sparse::rcm_ordering
  /// and the pencil is factored by pivoting LU. The rule reads only E and
  /// A.
  const std::vector<la::index>& ordering() const;

  // Non-throwing variants for the fault-tolerant sampling pipeline
  // (docs/ROBUSTNESS.md): every data-caused failure — a singular pencil at
  // this shift, a degenerate frozen pivot, an injected test fault — travels
  // as a Status instead of an exception, so callers can retry, regularize,
  // or drop the sample.

  /// Builds the pencil's analysis now rather than in the first solve that
  /// needs it; `s` is ignored, as the analysis reads only E and A. Always
  /// OK: a pencil singular at s_c is factored with fresh pivoting at every
  /// shift instead.
  util::Status try_prepare_shifted(la::cd s) const;

  /// X = (sE - A)^{-1} R, Status-carrying. `diag_reg` is a RELATIVE
  /// diagonal regularization: when positive, δ = diag_reg · max|pencil
  /// entry| is added to the pencil's existing diagonal slots before
  /// factoring (pattern-preserving). It is the last-resort fallback for a
  /// shift landing exactly on a pole; the perturbation it introduces is
  /// O(diag_reg) relative, so keep it tiny.
  /// When R is the system's own B (compared bit for bit), diag_reg == 0 and
  /// no fault site is armed, X is served from and kept in the process-wide
  /// solve cache (sparse/factor_cache) under (content_fingerprint(), s).
  /// Either way the numeric factor lives only for this one solve.
  util::Expected<la::MatC> try_solve_shifted(la::cd s, const la::MatC& rhs,
                                             double diag_reg = 0.0) const;

  /// X_k = (s_k E - A)^{-1} R for each shift, each bit for bit what
  /// try_solve_shifted(s_k, R, diag_reg) returns, which is this call with
  /// one shift. Each shift is looked up in and kept in the solve cache
  /// under its own key, as above. A symmetric pencil's misses are factored
  /// and solved as lane groups (sparse::solve_lanes), no pencil and no
  /// factor object built for any lane; a lane whose diagonal pivot is
  /// rejected falls back to the pivoting LU for that shift alone. An
  /// unsymmetric pencil's shifts, regularized ones, and every shift while a
  /// fault site is armed are factored one at a time, so injected decisions
  /// stay keyed per solve.
  std::vector<util::Expected<la::MatC>> try_solve_shifted(std::span<const la::cd> shifts,
                                                          const la::MatC& rhs,
                                                          double diag_reg = 0.0) const;

  /// The same solves, bit for bit, without the solve cache: no content
  /// fingerprint, no lookup and no insert, so each X lives only as long as
  /// the caller keeps it. PMTBR's sample solves take this path; their X
  /// dies with its absorption.
  std::vector<util::Expected<la::MatC>> try_solve_uncached(std::span<const la::cd> shifts,
                                                           const la::MatC& rhs,
                                                           double diag_reg = 0.0) const;

  /// Shifts the span calls factor as one lane group: sparse::lane_width of
  /// a symmetric pencil's LDLᵀ analysis (built here if not yet), 1 for a
  /// pencil factored by LU, one shift at a time.
  la::index lane_width() const;

  /// H(s) = C (sE - A)^{-1} B, Status-carrying.
  util::Expected<la::MatC> try_transfer(la::cd s) const;

  /// Deterministic 128-bit hash of the system's content: the sparsity
  /// patterns AND values of E and A plus the dense B and C entries
  /// (dimensions included; name-like metadata is none of this class's
  /// business). Computed lazily and cached alongside the symbolic
  /// analysis, so copies of a system share it. Equal fingerprints mean
  /// bit-identical matrices — the keying ground truth for the cross-job
  /// model and solve caches (docs/SERVING.md).
  util::Fingerprint content_fingerprint() const;

 private:
  /// E and A merged onto their union pattern, with what the merge decides:
  /// whether both are exactly symmetric, and the ordering by the rule of
  /// ordering(). Built once per system.
  struct Merged {
    sparse::ShiftedPencil pencil;
    bool symmetric = false;
    std::vector<la::index> ordering;
  };

  /// Shared lazily-computed state. Held behind one shared_ptr so copies of
  /// a system (which share the same E/A) also share the caches, and so the
  /// class stays copyable despite owning a mutex. The cached fields are
  /// set once, the pointers to const data: the mutex guards their
  /// installation; the pointees are immutable, so references handed out
  /// after unlock stay valid and race-free.
  struct Cache {
    util::Mutex mutex;
    std::shared_ptr<const Merged> merged PMTBR_GUARDED_BY(mutex);
    bool analyzed PMTBR_GUARDED_BY(mutex) = false;
    // Null once analyzed only when the LU analysis found the pencil
    // singular at s_c.
    std::shared_ptr<const sparse::SymbolicLuC> symbolic PMTBR_GUARDED_BY(mutex);
    std::shared_ptr<const util::Fingerprint> fingerprint PMTBR_GUARDED_BY(mutex);
  };

  /// Builds (first call, under the descriptor.ordering trace scope) or reads
  /// the merge. The caller must hold `cache.mutex` — enforced at compile
  /// time under -Wthread-safety.
  const Merged& merged_locked(Cache& cache) const PMTBR_REQUIRES(cache.mutex);
  const Merged& merged() const;
  /// Builds (first call) or reads the complex pencil's analysis: LDLᵀ for
  /// a symmetric pencil, the LU frozen at s_c otherwise; nullptr when that
  /// LU found the pencil singular.
  const sparse::SymbolicLuC* analysis() const;
  /// The solve-cache key of B's solve at s: the content fingerprint and s.
  util::Fingerprint solve_key(la::cd s) const;
  /// Numeric phase against the analysis (LDLᵀ or LU replay), with a full
  /// pivoting LU when a pivot is rejected or there is no analysis.
  util::Expected<sparse::SparseLuC> numeric_factor(const sparse::SymbolicLuC* symbolic,
                                                   la::cd s, double diag_reg) const;
  /// The solves behind both span calls: lane groups for a symmetric pencil
  /// (unless regularized or a fault site is armed), one factor per shift
  /// otherwise; each factor dies with its solve.
  std::vector<util::Expected<la::MatC>> solve_each(std::span<const la::cd> shifts,
                                                   const la::MatC& rhs, double diag_reg) const;

  sparse::CsrD e_, a_;
  la::MatD b_, c_;
  mutable std::shared_ptr<Cache> cache_ = std::make_shared<Cache>();
};

/// Dense standard-form copy (Ad = E^{-1}A, Bd = E^{-1}B): requires E
/// invertible; used by the exact-TBR baseline and small-system tests.
struct DenseStandard {
  la::MatD a, b, c;
};
DenseStandard to_dense_standard(const DescriptorSystem& sys);

/// Wrap dense standard-form matrices (E = I) as a descriptor system.
DescriptorSystem from_dense(const la::MatD& a, const la::MatD& b, const la::MatD& c);

/// Symmetry-preserving standard form for systems with *diagonal* SPD E
/// (e.g. RC networks with grounded capacitors): x̃ = E^{1/2} x gives
/// Ã = E^{-1/2} A E^{-1/2}, B̃ = E^{-1/2} B, C̃ = C E^{-1/2}, Ẽ = I.
/// In these coordinates a reciprocal RC network satisfies Ã = Ã^T,
/// C̃ = B̃^T, so the controllability and observability Gramians coincide
/// and the PMTBR singular values estimate the Hankel singular values
/// directly (paper Sec. III-A). Throws if E is not diagonal positive.
DescriptorSystem to_symmetric_standard(const DescriptorSystem& sys);

/// Energy coordinates for general SPD E (RLC MNA with grounded caps and a
/// positive-definite inductance matrix): factors E = L L^T (dense Cholesky,
/// O(n^3) — fine at reduced-bench scale) and transforms x̃ = L^T x, so the
/// Euclidean norm of the transformed state equals the physical energy norm
/// x^T E x. One-sided PMTBR's SVD then ranks sample directions by energy
/// instead of by raw voltage/current magnitudes, which is decisive on RLC
/// systems where the two state families have wildly different scales.
/// Dispatches to the sparse-preserving diagonal path when E is diagonal.
DescriptorSystem to_energy_standard(const DescriptorSystem& sys);

}  // namespace pmtbr
