#include "mor/pmtbr.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <span>
#include <sstream>

#include "la/ops.hpp"
#include "mor/compressor.hpp"
#include "sparse/splu.hpp"
#include "util/faultinject.hpp"
#include "util/logging.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/json.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::mor {

namespace {

// One sample's solve with the full degradation ladder: base solve, then
// bounded retries at relatively perturbed shifts s·(1+εk), then one
// diagonally regularized solve back at the original shift. `status` is OK
// iff `block` is valid. Every attempt runs under a fault key derived from
// the ORIGINAL shift, so injected decisions are a pure function of the
// sample — a condemned sample stays condemned across retries (guaranteeing
// deterministic drops), while genuine near-singularities recover via the
// perturbed shifts.
struct SampleOutcome {
  MatD block;
  util::Status status;
  int retries = 0;
  bool regularized = false;
};

// B's solve at one shift through the uncached path: a sample's X is never
// kept beyond its absorption.
util::Expected<MatC> solve_sample(const DescriptorSystem& sys, cd s, double diag_reg = 0.0) {
  return std::move(
      sys.try_solve_uncached(std::span<const cd>(&s, 1), la::to_complex(sys.b()), diag_reg)
          .front());
}

// `first`, when set, is the sample's attempt 0, already solved in a lane
// group (SamplingEngine::solve_first_attempts); the ladder starts from its
// outcome.
SampleOutcome try_sample_block(const DescriptorSystem& sys, const FrequencySample& fs,
                               std::optional<util::Expected<MatC>>& first) {
  PMTBR_TRACE_SCOPE("pmtbr.sample_block");
  util::fault::KeyScope key(util::fault::shift_key(fs.s.real(), fs.s.imag()));
  SampleOutcome out;
  for (int attempt = 0; attempt <= kSampleRetries; ++attempt) {
    cd s = fs.s;
    if (attempt > 0) {
      const double scale = 1.0 + kRetryShiftEps * static_cast<double>(attempt);
      // A DC sample has nothing to scale; nudge it off the origin instead.
      s = (s == cd(0.0)) ? cd(kRetryShiftEps * static_cast<double>(attempt), 0.0) : s * scale;
      ++out.retries;
      obs::counter_add(obs::Counter::kPmtbrSampleRetries);
    }
    auto z = attempt == 0 && first ? std::move(*first) : solve_sample(sys, s);
    if (z.is_ok()) {
      out.block = weighted_sample(z.value(), fs);
      out.status = util::Status::ok();
      return out;
    }
    out.status = z.status();
  }
  auto z = solve_sample(sys, fs.s, kSampleDiagReg);
  if (z.is_ok()) {
    out.block = weighted_sample(z.value(), fs);
    out.status = util::Status::ok();
    out.regularized = true;
    obs::counter_add(obs::Counter::kPmtbrSamplesRegularized);
    return out;
  }
  out.status = z.status();
  return out;
}

// Degradation bookkeeping threaded through the windowed sampling loop.
struct DegradeState {
  DegradeReport report;
  double carried = 0.0;      // weight of windows that lost every sample
  double attempted_w = 0.0;  // total quadrature weight attempted
  double surviving_w = 0.0;  // total quadrature weight that produced a block
};

// Classifies one window's outcomes, records drops, and redistributes the
// lost quadrature weight (plus any carried weight from wholly failed
// earlier windows) over the window's survivors by scaling their blocks.
// `base` is the window's first index in `eff`. Returns the in-window
// indices of the survivors, in sample order. A clean window with nothing
// carried is left bit-exact — no scaling is applied.
std::vector<index> degrade_window(std::span<util::Expected<SampleOutcome>> outcomes,
                                  const std::vector<FrequencySample>& eff, index base,
                                  DegradeState& st) {
  auto& r = st.report;
  double window_weight = 0.0, surviving_weight = 0.0;
  bool any_failed = false;
  std::vector<index> ok;
  ok.reserve(outcomes.size());
  for (index k = 0; k < static_cast<index>(outcomes.size()); ++k) {
    const FrequencySample& fs = eff[static_cast<std::size_t>(base + k)];
    auto& slot = outcomes[static_cast<std::size_t>(k)];
    ++r.samples_attempted;
    window_weight += fs.weight;
    // A task-level failure (pool.task injection, foreign exception) never
    // ran the retry ladder; a solver-level failure carries its ladder stats
    // inside the outcome.
    const util::Status& status = slot.is_ok() ? slot.value().status : slot.status();
    const int retries = slot.is_ok() ? slot.value().retries : 0;
    r.retries += retries;
    if (status.is_ok()) {
      ++r.samples_ok;
      if (slot.value().regularized) ++r.regularized;
      surviving_weight += fs.weight;
      ok.push_back(k);
    } else {
      any_failed = true;
      ++r.samples_dropped;
      obs::counter_add(obs::Counter::kPmtbrSamplesDropped);
      r.failures.push_back({base + k, status, retries});
      log_debug("pmtbr: dropped sample ", base + k, " (", status.to_string(), ")");
    }
  }
  st.attempted_w += window_weight;
  st.surviving_w += surviving_weight;
  if (ok.empty()) {
    st.carried += window_weight;
    return ok;
  }
  if ((any_failed || st.carried > 0.0) && surviving_weight > 0.0) {
    const double factor = (window_weight + st.carried) / surviving_weight;
    st.carried = 0.0;
    const double scale = std::sqrt(factor);
    for (index k : ok) outcomes[static_cast<std::size_t>(k)].value().block *= scale;
    ++r.reweights;
    obs::counter_add(obs::Counter::kPmtbrWeightReweights);
  }
  return ok;
}

// Coverage floor: the run is only allowed to degrade so far. Throws when
// every sample was lost or the surviving quadrature weight dropped below
// kMinCoverage of what was attempted.
void enforce_coverage_floor(DegradeState& st) {
  auto& r = st.report;
  r.coverage = st.attempted_w > 0.0 ? st.surviving_w / st.attempted_w : 1.0;
  if (r.samples_ok == 0 || r.coverage < kMinCoverage) {
    std::ostringstream msg;
    msg << "surviving sample coverage " << r.coverage << " below floor " << kMinCoverage
        << " (" << r.samples_dropped << " of " << r.samples_attempted << " samples dropped)";
    throw util::StatusError(util::Status(util::ErrorCode::kCoverageFloor, msg.str()));
  }
}

// The one sampling loop behind every span (Algorithm 1 and its Sec. V-B /
// V-C variants, up to the SVD of Z W): weight the samples, solve them on
// the pool, commit them window by window through the degradation ladder,
// absorb the survivors in sample order, then fold once more into the span.
// The drivers differ only in which samples they hand over, in what
// windows, and when they stop.
class SamplingEngine {
 public:
  // Called after each absorbed sample with its index in the list handed to
  // sample(), its weighted block and its novelty (the add_columns
  // residual). Returning true stops the run.
  using OnAbsorb = std::function<bool(std::size_t, const MatD&, double)>;

  // `max_columns` bounds the columns the run can hand the compressor, whose
  // basis is sized once for that rank (clamped to n).
  SamplingEngine(const DescriptorSystem& sys, const PmtbrOptions& opts, index max_columns)
      : sys_(sys), opts_(opts), comp_(sys.n(), 1e-13, opts.compressor) {
    comp_.reserve(max_columns);
  }

  IncrementalCompressor& compressor() { return comp_; }
  index used() const { return static_cast<index>(used_.size()); }

  // Weights `samples` by opts.weight_fn (paper Eq. 18; fully suppressed
  // samples are never solved), solves them `batch` at a time, and commits
  // each batch `window` samples at a time. When `on_absorb` stops the run,
  // the rest of the batch is discarded without being recorded; its solved
  // samples are counted (pmtbr_samples_discarded).
  void sample(const std::vector<FrequencySample>& samples, index batch, index window,
              const OnAbsorb& on_absorb = nullptr) {
    const auto first = static_cast<index>(eff_.size());
    std::vector<std::size_t> origin;  // index in `samples` of eff_[first + j]
    for (std::size_t i = 0; i < samples.size(); ++i) {
      FrequencySample fs = samples[i];
      PMTBR_REQUIRE(fs.weight >= 0.0, "sample weights must be nonnegative");
      if (opts_.weight_fn) {
        const double w = opts_.weight_fn(fs.s.imag() / (2.0 * std::numbers::pi));
        PMTBR_REQUIRE(w >= 0.0, "frequency weighting must be nonnegative");
        fs.weight *= w;
        if (fs.weight == 0.0) continue;  // fully suppressed sample
      }
      eff_.push_back(fs);
      origin.push_back(i);
    }
    const auto total = static_cast<index>(eff_.size());
    for (index base = first; base < total; base += batch) {
      // Cancellation checkpoint: abort between batches (and, via the token
      // handed to parallel_try_map, skip not-yet-started tasks inside one)
      // before any degradation bookkeeping or absorption happens — a
      // cancelled run produces no result and no partial report.
      opts_.cancel.throw_if_cancelled();
      const index count = std::min(batch, total - base);
      auto attempt0 = solve_first_attempts(base, count);
      auto outcomes = util::parallel_try_map<SampleOutcome>(
          count,
          [&](index i) {
            return try_sample_block(sys_, eff_[static_cast<std::size_t>(base + i)],
                                    attempt0[static_cast<std::size_t>(i)]);
          },
          opts_.cancel);
      opts_.cancel.throw_if_cancelled();
      for (index start = base; start < base + count; start += window) {
        const std::span slots(outcomes.data() + (start - base),
                              static_cast<std::size_t>(std::min(window, base + count - start)));
        for (const index k : degrade_window(slots, eff_, start, st_)) {
          const MatD& block = slots[static_cast<std::size_t>(k)].value().block;
          const double novelty = comp_.add_columns(block);
          obs::counter_add(obs::Counter::kPmtbrSamples);
          used_.push_back(eff_[static_cast<std::size_t>(start + k)]);
          if (on_absorb && on_absorb(origin[static_cast<std::size_t>(start + k - first)], block,
                                     novelty)) {
            std::int64_t discarded = 0;
            for (index i = start + k + 1 - base; i < count; ++i) {
              const auto& slot = outcomes[static_cast<std::size_t>(i)];
              if (slot.is_ok() && slot.value().status.is_ok()) ++discarded;
            }
            obs::counter_add(obs::Counter::kPmtbrSamplesDiscarded, discarded);
            return;
          }
        }
      }
    }
  }

  // Attempt 0 of the samples eff_[base, base + count): their shifts are
  // factored and solved as lane groups (DescriptorSystem::try_solve_uncached
  // over a span), min(kMaxLdltLanes, ⌈count / pool size⌉) shifts each, so
  // every worker gets a group. A slot left empty — a fault site armed, the
  // run cancelled before its group started, or a group that threw — makes
  // its sample run attempt 0 on its own, so one bad pencil cannot fail its
  // neighbours.
  std::vector<std::optional<util::Expected<MatC>>> solve_first_attempts(index base,
                                                                        index count) {
    std::vector<std::optional<util::Expected<MatC>>> first(static_cast<std::size_t>(count));
    if (util::fault::enabled()) return first;  // injected decisions stay keyed per attempt
    std::vector<cd> shifts(static_cast<std::size_t>(count));
    for (index i = 0; i < count; ++i)
      shifts[static_cast<std::size_t>(i)] = eff_[static_cast<std::size_t>(base + i)].s;
    const la::MatC b = la::to_complex(sys_.b());
    const index threads = util::global_pool().size();
    const index width = std::min<index>(sparse::kMaxLdltLanes, (count + threads - 1) / threads);
    util::parallel_for(0, (count + width - 1) / width, [&](index g) {
      if (opts_.cancel.cancelled()) return;
      PMTBR_TRACE_SCOPE("pmtbr.sample_lanes");
      const index lo = g * width;
      const index hi = std::min(count, lo + width);
      try {
        auto xs = sys_.try_solve_uncached(
            std::span<const cd>(shifts).subspan(static_cast<std::size_t>(lo),
                                                static_cast<std::size_t>(hi - lo)),
            b);
        for (index i = lo; i < hi; ++i)
          first[static_cast<std::size_t>(i)] = std::move(xs[static_cast<std::size_t>(i - lo)]);
      } catch (const std::exception&) {
        // Its samples run attempt 0 on their own.
      }
    });
    return first;
  }

  // The span: the coverage floor, then the compressor's last fold, which
  // every order of this sampling shares. The fold runs in the pmtbr.project
  // scope, where the order choice it serves is timed too; `checked`, a
  // scratch fold taken by an order check, is committed instead when it
  // covers every absorbed column (a run that stopped at that check). The
  // compressor keeps its workspace and spare capacity; a span that
  // outlives its call is shrunk (kept_span).
  SampledSpan span(IncrementalCompressor::Fold checked = {}) && {
    PMTBR_REQUIRE(!eff_.empty(), "frequency weighting suppresses every sample");
    enforce_coverage_floor(st_);
    // Cancellation checkpoint before the fold: the compressor's settle is
    // a full SVD of the sample span and often the run's costliest serial
    // step, so a cancel or deadline that lands during absorption stops
    // here rather than after it.
    opts_.cancel.throw_if_cancelled();
    {
      PMTBR_TRACE_SCOPE("pmtbr.project");
      if (checked.columns == comp_.columns_absorbed())
        comp_.settle(std::move(checked));
      else
        comp_.settle();
    }
    return {std::move(comp_), std::move(used_), std::move(st_.report)};
  }

 private:
  const DescriptorSystem& sys_;
  const PmtbrOptions& opts_;
  IncrementalCompressor comp_;
  DegradeState st_;
  std::vector<FrequencySample> eff_;   // every weighted sample handed over
  std::vector<FrequencySample> used_;  // the absorbed ones, in order
};

}  // namespace

double sample_scale(const FrequencySample& fs) {
  return std::abs(fs.s.imag()) == 0.0 ? std::sqrt(fs.weight / (2.0 * std::numbers::pi))
                                      : std::sqrt(fs.weight / std::numbers::pi);
}

MatD weighted_sample(const la::MatC& z, const FrequencySample& fs) {
  PMTBR_REQUIRE(fs.weight >= 0.0, "sample weight must be nonnegative");
  MatD block = std::abs(fs.s.imag()) == 0.0 ? la::real_part(z) : la::realify_columns(z);
  block *= sample_scale(fs);
  return block;
}

SampledProjection project_sampled(const DescriptorSystem& sys,
                                  const IncrementalCompressor& comp, index fixed_order,
                                  double truncation_tol, index max_order) {
  PMTBR_REQUIRE(comp.n() == sys.n(), "compressor and system dimensions must agree");
  index order = fixed_order > 0 ? std::min(fixed_order, comp.rank())
                                : comp.order_for_tolerance(truncation_tol);
  if (max_order > 0) order = std::min(order, max_order);
  SampledProjection out;
  out.model.v = comp.basis(std::max<index>(order, 1));
  out.model.w = out.model.v;
  out.model.system = project_congruence(sys, out.model.v);
  out.model.singular_values = comp.singular_values();
  out.hankel_estimates.reserve(out.model.singular_values.size());
  for (const double s : out.model.singular_values) out.hankel_estimates.push_back(s * s);
  return out;
}

std::pair<std::string, std::string> degradation_extra(const DegradeReport& report) {
  std::ostringstream os;
  obs::JsonWriter w(os);
  w.begin_object();
  w.key("samples_attempted");
  w.value(static_cast<std::int64_t>(report.samples_attempted));
  w.key("samples_ok");
  w.value(static_cast<std::int64_t>(report.samples_ok));
  w.key("samples_dropped");
  w.value(static_cast<std::int64_t>(report.samples_dropped));
  w.key("retries");
  w.value(static_cast<std::int64_t>(report.retries));
  w.key("regularized");
  w.value(static_cast<std::int64_t>(report.regularized));
  w.key("reweights");
  w.value(static_cast<std::int64_t>(report.reweights));
  w.key("coverage");
  w.value(report.coverage);
  w.key("failures");
  w.begin_array();
  for (const SampleFailure& f : report.failures) {
    w.begin_object();
    w.key("sample");
    w.value(static_cast<std::int64_t>(f.sample));
    w.key("code");
    w.value(util::error_code_name(f.status.code()));
    w.key("retries");
    w.value(f.retries);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return {"degradation", os.str()};
}

namespace {

// The columns `samples` can hand the compressor: m at DC, where z is real,
// and 2m (realified) elsewhere.
index sample_columns(const std::vector<FrequencySample>& samples, index m) {
  index cols = 0;
  for (const FrequencySample& fs : samples) cols += std::abs(fs.s.imag()) == 0.0 ? m : 2 * m;
  return cols;
}

// pmtbr_with_samples up to its order choice.
SampledSpan sample_span(const DescriptorSystem& sys, const std::vector<FrequencySample>& samples,
                        const PmtbrOptions& opts) {
  SamplingEngine engine(sys, opts, sample_columns(samples, sys.num_inputs()));
  IncrementalCompressor::Fold checked;  // the fold of the last exact check
  if (opts.adaptive_excess > 0) {
    // Stop when the sample count comfortably exceeds the order estimate
    // (the paper's "samples in excess of the model order" criterion).
    // Solves run two per pool thread at a time, or one lane group's width
    // when that is more (eight shifts of an LDLᵀ pencil below four
    // threads), bounding the waste past the stopping point, but commit in
    // pairs at any thread count and width, so what is attempted, dropped
    // and reweighted matches a serial run. The estimate takes a fold, so
    // each check first asks the bound from σ at the last fold and the
    // blocks absorbed since (R's columns are no longer than their blocks):
    // while the run cannot stop at the bound, it cannot stop at the
    // estimate either, and nothing is folded. Queries are pure, so the
    // model does not depend on where the checks fold; a run that stops at a
    // check hands that check's fold to the span.
    double added_sq = 0.0;  // Σ‖block‖²_F absorbed since the last fold
    const auto below = [&](index used, index order) {
      return static_cast<double>(used) < opts.adaptive_excess * static_cast<double>(order);
    };
    engine.sample(samples, std::max<index>(sys.lane_width(), 2 * util::global_pool().size()), 2,
                  [&](std::size_t, const MatD& block, double) {
                    const double norm = la::norm_fro(block);
                    added_sq += norm * norm;
                    const index used = engine.used();
                    if (used < opts.min_samples) return false;
                    if (below(used, tail_order_lower_bound(checked.sigma, added_sq,
                                                           opts.truncation_tol)))
                      return false;
                    checked = engine.compressor().scratch_fold();
                    added_sq = 0.0;
                    const index est = tail_order(checked.sigma, opts.truncation_tol);
                    if (below(used, est)) return false;
                    log_debug("pmtbr: adaptive stop after ", used, " samples (order ~", est, ")");
                    obs::counter_add(obs::Counter::kPmtbrAdaptiveStops);
                    return true;
                  });
  } else {
    const auto all = static_cast<index>(samples.size());
    engine.sample(samples, all, all);
  }
  return std::move(engine).span(std::move(checked));
}

// pmtbr_adaptive up to its order choice.
SampledSpan adaptive_span(const DescriptorSystem& sys, const AdaptiveOptions& aopts,
                          const PmtbrOptions& opts) {
  PMTBR_REQUIRE(aopts.initial_samples >= 2, "need at least two initial samples");
  PMTBR_REQUIRE(aopts.max_samples >= aopts.initial_samples, "budget below initial samples");
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");
  // Every point lies above f_lo >= 0, so each hands over 2m columns, and a
  // bisection can overshoot the budget by one sample.
  SamplingEngine engine(sys, opts, (aopts.max_samples + 1) * 2 * sys.num_inputs());

  // Novelty of a sample: residual norm of its block after projection onto
  // the basis as it stood before the block — reported directly by the
  // compressor from its Gram–Schmidt coefficients. A sample weighted out or
  // dropped scores zero, so its interval is never refined.
  struct Interval {
    double f_lo, f_hi;
    double score;  // novelty of the sample that created it
  };
  std::vector<Interval> intervals;
  double max_block_norm = 0.0;
  // Samples `fresh` as one window and returns each sample's novelty.
  const auto novelties = [&](const std::vector<FrequencySample>& fresh) {
    std::vector<double> score(fresh.size(), 0.0);
    const auto count = static_cast<index>(fresh.size());
    engine.sample(fresh, count, count, [&](std::size_t k, const MatD& block, double novelty) {
      score[k] = novelty;
      max_block_norm = std::max(max_block_norm, la::norm_fro(block));
      return false;
    });
    return score;
  };

  // Coarse initialization: uniform midpoints (sample_band also enforces
  // 0 <= f_lo < f_hi before anything is solved).
  const auto scores =
      novelties(sample_band(aopts.band, aopts.initial_samples, SamplingScheme::kUniform));
  const double width =
      (aopts.band.f_hi - aopts.band.f_lo) / static_cast<double>(aopts.initial_samples);
  double prev_edge = aopts.band.f_lo;
  for (const double score : scores) {
    intervals.push_back({prev_edge, prev_edge + width, score});
    prev_edge += width;
  }

  // Greedy bisection.
  while (engine.used() < aopts.max_samples) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < intervals.size(); ++i)
      if (intervals[i].score > intervals[best].score) best = i;
    if (intervals[best].score <= aopts.novelty_tol * std::max(max_block_norm, 1e-300)) break;

    obs::counter_add(obs::Counter::kAdaptiveBisections);
    const Interval iv = intervals[best];
    const double mid = 0.5 * (iv.f_lo + iv.f_hi);
    const double child_w = 0.5 * (iv.f_hi - iv.f_lo);
    const auto at = [&](double f_hz) {
      return FrequencySample{cd(0.0, 2.0 * std::numbers::pi * f_hz),
                             2.0 * std::numbers::pi * child_w};
    };
    const auto res = novelties({at(0.5 * (iv.f_lo + mid)), at(0.5 * (mid + iv.f_hi))});
    intervals[best] = {iv.f_lo, mid, res[0]};
    intervals.push_back({mid, iv.f_hi, res[1]});
    log_debug("pmtbr_adaptive: bisected [", iv.f_lo, ", ", iv.f_hi, "], residuals ", res[0], ", ",
              res[1]);
  }
  return std::move(engine).span();
}

// A span handed to the caller, who may keep it: only what projection reads.
SampledSpan kept_span(SampledSpan span) {
  span.compressor.shrink_to_fit();
  return span;
}

// pmtbr's sample list (sample_bands per `opts`), after its preconditions.
std::vector<FrequencySample> pmtbr_samples(const DescriptorSystem& sys, const PmtbrOptions& opts) {
  PMTBR_REQUIRE(sys.n() > 0, "pmtbr needs a nonempty system");
  PMTBR_REQUIRE(!opts.bands.empty(), "pmtbr needs at least one frequency band");
  PMTBR_REQUIRE(opts.num_samples >= 1, "pmtbr needs at least one sample");
  return sample_bands(opts.bands, opts.num_samples, opts.scheme);
}

}  // namespace

PmtbrResult project_span(const DescriptorSystem& sys, const SampledSpan& span,
                         const PmtbrOptions& opts) {
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");
  PMTBR_TRACE_SCOPE("pmtbr.project");
  PmtbrResult out;
  out.samples_used = span.samples_used;
  out.degradation = span.degradation;
  SampledProjection p = project_sampled(sys, span.compressor, opts.fixed_order,
                                        opts.truncation_tol, opts.max_order);
  out.model = std::move(p.model);
  out.hankel_estimates = std::move(p.hankel_estimates);
  return out;
}

PmtbrResult pmtbr_with_samples(const DescriptorSystem& sys,
                               const std::vector<FrequencySample>& samples,
                               const PmtbrOptions& opts) {
  PMTBR_REQUIRE(!samples.empty(), "need at least one frequency sample");
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");
  PMTBR_TRACE_SCOPE("pmtbr");
  return project_span(sys, sample_span(sys, samples, opts), opts);
}

PmtbrResult pmtbr_adaptive(const DescriptorSystem& sys, const AdaptiveOptions& aopts,
                           const PmtbrOptions& opts) {
  PMTBR_TRACE_SCOPE("pmtbr_adaptive");
  return project_span(sys, adaptive_span(sys, aopts, opts), opts);
}

SampledSpan pmtbr_adaptive_span(const DescriptorSystem& sys, const AdaptiveOptions& aopts,
                                const PmtbrOptions& opts) {
  PMTBR_TRACE_SCOPE("pmtbr_adaptive");
  return kept_span(adaptive_span(sys, aopts, opts));
}

std::vector<PmtbrResult> pmtbr_order_sweep(const DescriptorSystem& sys,
                                           const std::vector<FrequencySample>& samples,
                                           const std::vector<index>& orders,
                                           const PmtbrOptions& opts) {
  PMTBR_REQUIRE(!samples.empty(), "need at least one frequency sample");
  PMTBR_REQUIRE(!orders.empty(), "need at least one order");
  PMTBR_TRACE_SCOPE("pmtbr_order_sweep");
  PmtbrOptions every_sample = opts;
  every_sample.adaptive_excess = 0.0;
  const SampledSpan span = sample_span(sys, samples, every_sample);
  PmtbrOptions at;  // project_span reads only the order fields
  std::vector<PmtbrResult> out;
  out.reserve(orders.size());
  for (const index order : orders) {
    at.fixed_order = std::max<index>(order, 1);
    out.push_back(project_span(sys, span, at));
  }
  return out;
}

PmtbrResult pmtbr(const DescriptorSystem& sys, const PmtbrOptions& opts) {
  return pmtbr_with_samples(sys, pmtbr_samples(sys, opts), opts);
}

SampledSpan pmtbr_span(const DescriptorSystem& sys, const PmtbrOptions& opts) {
  const auto samples = pmtbr_samples(sys, opts);
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");
  PMTBR_TRACE_SCOPE("pmtbr");
  return kept_span(sample_span(sys, samples, opts));
}

}  // namespace pmtbr::mor
