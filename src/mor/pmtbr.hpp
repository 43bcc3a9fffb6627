// PMTBR — Poor Man's TBR (paper Algorithm 1) and its frequency-selective
// variant (Algorithm 2).
//
// Samples z_k = (s_k E - A)^{-1} B at quadrature points on the imaginary
// axis, accumulates the weighted sample matrix Z W, and projects onto its
// dominant left singular subspace. The singular values of Z W estimate the
// square roots of the Hankel singular values (X_hat = Z W^2 Z^H), and drive
// both order control and error estimation.
//
// Complex samples are realified ([Re z | Im z]), which is exactly
// equivalent to including the conjugate sample pair as Algorithm 1 does.
//
// Every entry point is one SampledSpan plus projections: the sampling up to
// the SVD of Z W decides nothing about the order, so each order of one
// sampling is a projection of one span (project_span). A span can be kept
// and projected again (the service's cache, docs/SERVING.md).
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mor/compressor.hpp"
#include "mor/sampling.hpp"
#include "mor/state_space.hpp"
#include "util/cancel.hpp"
#include "util/status.hpp"

namespace pmtbr::mor {

/// Per-sample degradation ladder (docs/ROBUSTNESS.md). PMTBR's statistical
/// interpretation tolerates losing individual quadrature samples, so a
/// failed shifted solve is retried kSampleRetries times at relatively
/// perturbed shifts s·(1 + kRetryShiftEps·k), then solved once more at the
/// original shift with relative diagonal regularization kSampleDiagReg,
/// and finally dropped with its weight redistributed over its window's
/// survivors. The run throws util::StatusError(kCoverageFloor) when the
/// surviving fraction of attempted quadrature weight falls below
/// kMinCoverage.
inline constexpr int kSampleRetries = 2;
inline constexpr double kRetryShiftEps = 1e-6;
inline constexpr double kSampleDiagReg = 1e-8;
inline constexpr double kMinCoverage = 0.5;

/// What graceful degradation actually did during a run — mirrored into the
/// pmtbr-manifest/1 "degradation" extra (degradation_extra()).
struct SampleFailure {
  index sample = -1;      // index into the effective sample list
  util::Status status;    // final status after retries + regularization
  int retries = 0;        // perturbed-shift attempts made for this sample
};

struct DegradeReport {
  index samples_attempted = 0;
  index samples_ok = 0;
  index samples_dropped = 0;
  index retries = 0;      // total perturbed-shift retry attempts
  index regularized = 0;  // samples rescued by diagonal regularization
  index reweights = 0;    // windows that redistributed dropped weight
  double coverage = 1.0;  // surviving / attempted quadrature weight
  std::vector<SampleFailure> failures;

  bool degraded() const { return samples_dropped > 0 || retries > 0 || regularized > 0; }
};

/// ("degradation", <json>) entry for obs::ManifestExtras, so benches and
/// tests can surface degraded runs in MANIFEST_*.json.
std::pair<std::string, std::string> degradation_extra(const DegradeReport& report);

struct PmtbrOptions {
  /// Frequency band(s) of interest. One band = plain PMTBR over a finite
  /// bandwidth; several bands = frequency-selective TBR (Algorithm 2).
  std::vector<Band> bands{Band{}};
  index num_samples = 30;
  SamplingScheme scheme = SamplingScheme::kUniform;

  /// Order selection: if fixed_order > 0 it wins; otherwise the smallest
  /// order whose trailing singular-value sum is below truncation_tol * σ1.
  /// A tail compared below about rank·ε·σ1 is rounding: an order that
  /// truncation_tol decides there (1e-14 on a 20×20 RC mesh) follows the
  /// last bits of σ and can change between releases that move the solves
  /// or the compressor at rounding level.
  index fixed_order = -1;
  double truncation_tol = 1e-8;
  index max_order = -1;  // optional cap (< 0: none)

  /// Adaptive sampling (on-the-fly order control, Sec. V-C): stop adding
  /// samples once the sample count exceeds `adaptive_excess` times the
  /// order estimate. 0 disables adaptation (all samples used).
  double adaptive_excess = 0.0;
  index min_samples = 4;

  /// Optional frequency weighting w(f) (paper Eq. 18): multiplies each
  /// sample's quadrature weight, biasing the Gramian — and hence the
  /// retained directions — toward frequencies where w is large. The
  /// identity weighting reproduces the finite-bandwidth Gramian.
  std::function<double(double f_hz)> weight_fn;

  /// Sample-matrix absorption path (kBlocked default; kReference is the
  /// per-column oracle). Both yield the same subspace; the differential
  /// suite asserts end-to-end agreement through the service path.
  CompressorMode compressor = CompressorMode::kBlocked;

  /// Cooperative cancellation (docs/SERVING.md): polled between sampling
  /// windows / absorptions; a fired token aborts the run with
  /// StatusError(kCancelled or kDeadlineExceeded) before any result or
  /// degradation report is produced. The default token is inert.
  util::CancelToken cancel;
};

struct PmtbrResult {
  ReducedModel model;
  std::vector<FrequencySample> samples_used;
  /// Estimated Hankel singular values: squares of the ZW singular values
  /// (with the 1/2π Parseval factor folded into the weights).
  std::vector<double> hankel_estimates;
  /// Per-sample outcomes: retries, regularizations, drops, reweights.
  DegradeReport degradation;
};

/// What PMTBR has decided before its order choice: the compressor after
/// its last fold, the samples it absorbed and the degradation report.
/// pmtbr_span and pmtbr_adaptive_span hand it over shrunk to what
/// projection reads (rank·n + rank² + rank doubles, see
/// IncrementalCompressor::shrink_to_fit). project_span only reads it.
struct SampledSpan {
  IncrementalCompressor compressor;
  std::vector<FrequencySample> samples_used;
  DegradeReport degradation;
};

/// PMTBR with automatically generated samples per `opts`.
PmtbrResult pmtbr(const DescriptorSystem& sys, const PmtbrOptions& opts = {});

/// The span pmtbr(sys, opts) projects: every option applies as there except
/// fixed_order and max_order, which only the projection reads, and
/// truncation_tol, which the sampling reads only when adaptive_excess > 0.
SampledSpan pmtbr_span(const DescriptorSystem& sys, const PmtbrOptions& opts = {});

/// One order of a span, bit for bit what the call that sampled it returns
/// at that order: fixed_order clamped to the rank if > 0, else the smallest
/// order whose tail is below truncation_tol·σ₁, then capped by max_order if
/// > 0 and kept at least 1; the span's dominant basis of that order, the
/// congruence projection of `sys` (the system the span sampled, or one with
/// the same content) onto it, σ and its squares, and the span's samples and
/// degradation report. Of `opts` only those three order fields are read.
/// Safe to call concurrently on one span.
PmtbrResult project_span(const DescriptorSystem& sys, const SampledSpan& span,
                         const PmtbrOptions& opts);

/// PMTBR on caller-provided samples (points anywhere in the closed right
/// half-plane; nonnegative weights as in Eq. 10).
PmtbrResult pmtbr_with_samples(const DescriptorSystem& sys,
                               const std::vector<FrequencySample>& samples,
                               const PmtbrOptions& opts = {});

/// Adaptive bisection sampling (paper Sec. V-B): starts from a coarse
/// uniform grid on the band and repeatedly bisects the interval whose
/// midpoint sample contributes the largest new direction (residual after
/// projection onto the current basis), until the residual falls below
/// `novelty_tol` (relative to the largest sample norm seen) or the budget
/// is exhausted. Weights follow the local sampling density. Of `opts`, the
/// order choice (fixed_order, truncation_tol, max_order) and the weight_fn /
/// compressor / cancel fields apply as in pmtbr_with_samples; bands,
/// num_samples, scheme and adaptive stopping are ignored (the points come
/// from `aopts`). A sample that weight_fn suppresses or that is dropped
/// scores zero novelty, so its interval is never refined.
struct AdaptiveOptions {
  Band band{};  // 0 <= f_lo < f_hi, as for sample_band
  index initial_samples = 4;
  index max_samples = 64;
  double novelty_tol = 1e-7;
};
PmtbrResult pmtbr_adaptive(const DescriptorSystem& sys, const AdaptiveOptions& aopts,
                           const PmtbrOptions& opts = {});

/// The span pmtbr_adaptive(sys, aopts, opts) projects; the order choice of
/// `opts` is not read.
SampledSpan pmtbr_adaptive_span(const DescriptorSystem& sys, const AdaptiveOptions& aopts,
                                const PmtbrOptions& opts = {});

/// Order sweep sharing one sampling + compression pass: returns one result
/// per requested order (clamped to the available rank). Far cheaper than
/// calling pmtbr_with_samples per order in benches and studies. Each entry
/// equals pmtbr_with_samples with `fixed_order` set to that order: the
/// weight_fn / compressor / cancel fields of `opts` apply as there, while
/// fixed_order, truncation_tol, max_order and adaptive stopping are ignored
/// (the orders come from `orders`; every sample is used).
std::vector<PmtbrResult> pmtbr_order_sweep(const DescriptorSystem& sys,
                                           const std::vector<FrequencySample>& samples,
                                           const std::vector<index>& orders,
                                           const PmtbrOptions& opts = {});

/// The weight of one sample solve z = (sE − A)⁻¹·R in every sampled
/// Gramian (PMTBR, input-correlated TBR, the cross-Gramian): √(w/2π) at DC,
/// where z is real, and √(w/π) at s = jω, whose realified columns
/// [Re z | Im z] also stand for the conjugate sample at −jω. Parseval's
/// 1/2π is folded in, so Z·Zᵀ approximates the Gramian.
double sample_scale(const FrequencySample& fs);

/// z realified and weighted by sample_scale: Re z at DC, [Re z | Im z]
/// otherwise. The weight must be nonnegative.
MatD weighted_sample(const la::MatC& z, const FrequencySample& fs);

/// What a sampled projection produces.
struct SampledProjection {
  ReducedModel model;
  std::vector<double> hankel_estimates;  // squared singular values
};

/// The last step of PMTBR and input-correlated TBR, on a compressor its
/// callers settle first (an unsettled one answers the same, each of its
/// queries folding into a scratch copy): the order is `fixed_order`
/// clamped to the rank if > 0, else
/// comp.order_for_tolerance(truncation_tol), then capped by `max_order`
/// if > 0 and kept at least 1; then the compressor's dominant basis of that
/// order, the congruence projection of `sys` onto it, and the singular
/// values with their squares.
SampledProjection project_sampled(const DescriptorSystem& sys,
                                  const IncrementalCompressor& comp, index fixed_order,
                                  double truncation_tol, index max_order);

}  // namespace pmtbr::mor
