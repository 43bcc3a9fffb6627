#include "mor/pmtbr.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <sstream>

#include "la/ops.hpp"
#include "mor/compressor.hpp"
#include "util/faultinject.hpp"
#include "util/logging.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/json.hpp"
#include "util/obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::mor {

namespace {

// Fold in the Parseval 1/(2π) so ZW^2Z^H approximates the true Gramian.
// A sample at +jω implicitly carries its conjugate pair at -jω (the
// realified columns span both), so it gets twice the weight.
MatD weight_block(const la::MatC& z, const FrequencySample& fs) {
  if (std::abs(fs.s.imag()) == 0.0) {
    MatD block = la::real_part(z);
    block *= std::sqrt(fs.weight / (2.0 * std::numbers::pi));
    return block;
  }
  MatD block = la::realify_columns(z);
  block *= std::sqrt(fs.weight / std::numbers::pi);
  return block;
}

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

SampleOutcome try_sample_block(const DescriptorSystem& sys, const FrequencySample& fs,
                               const ResilienceOptions& res) {
  PMTBR_TRACE_SCOPE("pmtbr.sample_block");
  util::fault::KeyScope key(util::fault::shift_key(fs.s.real(), fs.s.imag()));
  SampleOutcome out;
  for (int attempt = 0; attempt <= res.max_retries; ++attempt) {
    cd s = fs.s;
    if (attempt > 0) {
      const double scale = 1.0 + res.retry_shift_eps * static_cast<double>(attempt);
      // A DC sample has nothing to scale; nudge it off the origin instead.
      s = (s == cd(0.0)) ? cd(res.retry_shift_eps * static_cast<double>(attempt), 0.0)
                         : s * scale;
      ++out.retries;
      obs::counter_add(obs::Counter::kPmtbrSampleRetries);
    }
    auto z = sys.try_solve_shifted(s, la::to_complex(sys.b()));
    if (z.is_ok()) {
      out.block = weight_block(z.value(), fs);
      out.status = util::Status::ok();
      return out;
    }
    out.status = z.status();
  }
  if (res.diag_reg > 0.0) {
    auto z = sys.try_solve_shifted(fs.s, la::to_complex(sys.b()), res.diag_reg);
    if (z.is_ok()) {
      out.block = weight_block(z.value(), fs);
      out.status = util::Status::ok();
      out.regularized = true;
      obs::counter_add(obs::Counter::kPmtbrSamplesRegularized);
      return out;
    }
    out.status = z.status();
  }
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
// Returns the in-window indices of the survivors, in sample order. A clean
// window with nothing carried is left bit-exact — no scaling is applied.
std::vector<index> degrade_window(std::vector<util::Expected<SampleOutcome>>& outcomes,
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
// the configured fraction of what was attempted.
void enforce_coverage_floor(DegradeState& st, const ResilienceOptions& res) {
  auto& r = st.report;
  r.coverage = st.attempted_w > 0.0 ? st.surviving_w / st.attempted_w : 1.0;
  if (r.samples_attempted == 0) return;
  if (r.samples_ok == 0 || r.coverage < res.min_coverage) {
    std::ostringstream msg;
    msg << "surviving sample coverage " << r.coverage << " below floor " << res.min_coverage
        << " (" << r.samples_dropped << " of " << r.samples_attempted << " samples dropped)";
    throw util::StatusError(util::Status(util::ErrorCode::kCoverageFloor, msg.str()));
  }
}

// Freezes the pencil's pivot order from the first sample whose pencil
// actually factors, skipping shifts that sit on a pole (or are condemned
// by fault injection). Throws kCoverageFloor when no sample works at all.
void prepare_resilient(const DescriptorSystem& sys, const std::vector<FrequencySample>& eff) {
  util::Status last;
  for (const FrequencySample& fs : eff) {
    util::fault::KeyScope key(util::fault::shift_key(fs.s.real(), fs.s.imag()));
    util::Status st = sys.try_prepare_shifted(fs.s);
    if (st.is_ok()) return;
    last = std::move(st);
  }
  throw util::StatusError(util::Status(
      util::ErrorCode::kCoverageFloor,
      "no sample shift yields a factorable pencil: " + last.to_string()));
}

index choose_order(IncrementalCompressor& comp, const PmtbrOptions& opts) {
  index order = opts.fixed_order > 0 ? std::min<index>(opts.fixed_order, comp.rank())
                                     : comp.order_for_tolerance(opts.truncation_tol);
  if (opts.max_order > 0) order = std::min(order, opts.max_order);
  return std::max<index>(order, 1);
}

// Finalize shared by every driver: congruence projection onto the dominant
// `order`-dimensional subspace, then the singular-value / HSV lists. The
// caller opens the pmtbr.project scope around this and its order choice,
// so the whole finalize — the compressor's last fold included — is traced.
void finalize(const DescriptorSystem& sys, IncrementalCompressor& comp, index order,
              PmtbrResult& out) {
  MatD v = comp.basis(order);
  out.model.v = v;
  out.model.w = v;
  out.model.system = project_congruence(sys, v);
  out.model.singular_values = comp.singular_values();
  out.hankel_estimates.reserve(out.model.singular_values.size());
  for (const double s : out.model.singular_values) out.hankel_estimates.push_back(s * s);
}

// Applies the optional frequency weighting and drops fully suppressed
// samples — the deterministic serial prologue of pmtbr_with_samples and
// pmtbr_order_sweep.
std::vector<FrequencySample> effective_samples(const std::vector<FrequencySample>& samples,
                                               const PmtbrOptions& opts) {
  std::vector<FrequencySample> eff;
  eff.reserve(samples.size());
  for (FrequencySample fs : samples) {
    if (opts.weight_fn) {
      const double f_hz = fs.s.imag() / (2.0 * std::numbers::pi);
      const double w = opts.weight_fn(f_hz);
      PMTBR_REQUIRE(w >= 0.0, "frequency weighting must be nonnegative");
      fs.weight *= w;
      if (fs.weight == 0.0) continue;  // fully suppressed sample
    }
    eff.push_back(fs);
  }
  return eff;
}

}  // namespace

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

PmtbrResult pmtbr_with_samples(const DescriptorSystem& sys,
                               const std::vector<FrequencySample>& samples,
                               const PmtbrOptions& opts) {
  PMTBR_REQUIRE(!samples.empty(), "need at least one frequency sample");
  PMTBR_TRACE_SCOPE("pmtbr");
  IncrementalCompressor comp(sys.n(), 1e-13, opts.compressor);
  PmtbrResult out;
  DegradeState st;

  const std::vector<FrequencySample> eff = effective_samples(samples, opts);
  if (!eff.empty()) {
    // Freeze the pencil's pivot order before fanning out so every thread
    // refactors against the same symbolic analysis — results are then
    // bit-identical to a serial run regardless of scheduling. The first
    // factorable sample seeds the ordering (shifts on a pole are skipped).
    prepare_resilient(sys, eff);

    // Sample solves run on the pool in windows; absorption (and with it
    // the adaptive stopping decision) is committed strictly in sample
    // order. Without adaptive stopping one window covers everything; with
    // it, small windows bound the wasted solves past the stopping point.
    const bool adaptive = opts.adaptive_excess > 0;
    const auto total = static_cast<index>(eff.size());
    const index window =
        adaptive ? std::max<index>(index{1}, 2 * util::global_pool().size()) : total;
    bool stopped = false;
    for (index base = 0; base < total && !stopped; base += window) {
      // Cancellation checkpoint: abort between windows (and, via the token
      // handed to parallel_try_map, skip not-yet-started tasks inside the
      // window) before any degradation bookkeeping or absorption happens —
      // a cancelled run produces no result and no partial report.
      opts.cancel.throw_if_cancelled();
      const index count = std::min<index>(window, total - base);
      auto outcomes = util::parallel_try_map<SampleOutcome>(
          count,
          [&](index i) {
            return try_sample_block(sys, eff[static_cast<std::size_t>(base + i)],
                                    opts.resilience);
          },
          opts.cancel);
      opts.cancel.throw_if_cancelled();
      const std::vector<index> survivors = degrade_window(outcomes, eff, base, st);
      for (index k : survivors) {
        comp.add_columns(outcomes[static_cast<std::size_t>(k)].value().block);
        obs::counter_add(obs::Counter::kPmtbrSamples);
        out.samples_used.push_back(eff[static_cast<std::size_t>(base + k)]);

        if (adaptive && static_cast<index>(out.samples_used.size()) >= opts.min_samples) {
          // Stop when the sample count comfortably exceeds the order
          // estimate (the paper's "samples in excess of the model order"
          // criterion).
          const index est = comp.order_for_tolerance(opts.truncation_tol);
          if (static_cast<double>(out.samples_used.size()) >=
              opts.adaptive_excess * static_cast<double>(est)) {
            log_debug("pmtbr: adaptive stop after ", out.samples_used.size(), " samples (order ~",
                      est, ")");
            obs::counter_add(obs::Counter::kPmtbrAdaptiveStops);
            stopped = true;
            break;
          }
        }
      }
    }
    enforce_coverage_floor(st, opts.resilience);
  }
  out.degradation = std::move(st.report);

  {
    PMTBR_TRACE_SCOPE("pmtbr.project");
    finalize(sys, comp, choose_order(comp, opts), out);
  }
  return out;
}

PmtbrResult pmtbr_adaptive(const DescriptorSystem& sys, const AdaptiveOptions& aopts,
                           const PmtbrOptions& opts) {
  PMTBR_REQUIRE(aopts.initial_samples >= 2, "need at least two initial samples");
  PMTBR_REQUIRE(aopts.max_samples >= aopts.initial_samples, "budget below initial samples");
  PMTBR_TRACE_SCOPE("pmtbr_adaptive");

  IncrementalCompressor comp(sys.n(), 1e-13, opts.compressor);
  PmtbrResult out;
  DegradeState st;

  // Novelty of a sample: residual norm of its block after projection onto
  // the basis as it stood before the block — reported directly by the
  // compressor from its Gram–Schmidt coefficients, so no extra projection
  // products are needed.
  struct Interval {
    double f_lo, f_hi;
    double score;  // novelty of the sample that created it
  };
  std::vector<Interval> intervals;
  double max_block_norm = 0.0;

  const auto absorb = [&](double f_hz, double width_hz) {
    // Cancellation checkpoint: the bisection loop is serial, so between-
    // absorption polls bound the overrun to one shifted solve.
    opts.cancel.throw_if_cancelled();
    FrequencySample fs{cd(0.0, 2.0 * std::numbers::pi * f_hz), 2.0 * std::numbers::pi * width_hz};
    ++st.report.samples_attempted;
    st.attempted_w += fs.weight;
    SampleOutcome oc = try_sample_block(sys, fs, opts.resilience);
    st.report.retries += oc.retries;
    if (!oc.status.is_ok()) {
      // A dropped sample contributes zero novelty, so its interval is not
      // bisected further; the density-based weights need no redistribution.
      ++st.report.samples_dropped;
      obs::counter_add(obs::Counter::kPmtbrSamplesDropped);
      st.report.failures.push_back({st.report.samples_attempted - 1, oc.status, oc.retries});
      log_debug("pmtbr_adaptive: dropped sample at ", f_hz, " Hz (", oc.status.to_string(), ")");
      return 0.0;
    }
    ++st.report.samples_ok;
    if (oc.regularized) ++st.report.regularized;
    st.surviving_w += fs.weight;
    max_block_norm = std::max(max_block_norm, la::norm_fro(oc.block));
    const double res = comp.add_columns(oc.block);
    obs::counter_add(obs::Counter::kPmtbrSamples);
    out.samples_used.push_back(fs);
    return res;
  };

  // Coarse initialization (uniform midpoints).
  const double width =
      (aopts.band.f_hi - aopts.band.f_lo) / static_cast<double>(aopts.initial_samples);
  double prev_edge = aopts.band.f_lo;
  for (index k = 0; k < aopts.initial_samples; ++k) {
    const double f = aopts.band.f_lo + (static_cast<double>(k) + 0.5) * width;
    const double res = absorb(f, width);
    intervals.push_back({prev_edge, prev_edge + width, res});
    prev_edge += width;
  }

  // Greedy bisection.
  while (static_cast<index>(out.samples_used.size()) < aopts.max_samples) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < intervals.size(); ++i)
      if (intervals[i].score > intervals[best].score) best = i;
    if (intervals[best].score <= aopts.novelty_tol * std::max(max_block_norm, 1e-300)) break;

    obs::counter_add(obs::Counter::kAdaptiveBisections);
    const Interval iv = intervals[best];
    const double mid = 0.5 * (iv.f_lo + iv.f_hi);
    const double child_w = 0.5 * (iv.f_hi - iv.f_lo);
    const double res = absorb(0.5 * (iv.f_lo + mid), child_w);
    const double res2 = absorb(0.5 * (mid + iv.f_hi), child_w);
    intervals[best] = {iv.f_lo, mid, res};
    intervals.push_back({mid, iv.f_hi, res2});
    log_debug("pmtbr_adaptive: bisected [", iv.f_lo, ", ", iv.f_hi, "], residuals ", res, ", ",
              res2);
  }

  enforce_coverage_floor(st, opts.resilience);
  out.degradation = std::move(st.report);

  {
    PMTBR_TRACE_SCOPE("pmtbr.project");
    finalize(sys, comp, choose_order(comp, opts), out);
  }
  return out;
}

std::vector<PmtbrResult> pmtbr_order_sweep(const DescriptorSystem& sys,
                                           const std::vector<FrequencySample>& samples,
                                           const std::vector<index>& orders,
                                           const PmtbrOptions& opts) {
  PMTBR_REQUIRE(!samples.empty(), "need at least one frequency sample");
  PMTBR_REQUIRE(!orders.empty(), "need at least one order");
  PMTBR_TRACE_SCOPE("pmtbr_order_sweep");
  IncrementalCompressor comp(sys.n(), 1e-13, opts.compressor);
  DegradeState st;
  std::vector<FrequencySample> used;
  opts.cancel.throw_if_cancelled();
  const std::vector<FrequencySample> eff = effective_samples(samples, opts);
  if (!eff.empty()) {
    prepare_resilient(sys, eff);
    auto outcomes = util::parallel_try_map<SampleOutcome>(
        static_cast<index>(eff.size()),
        [&](index i) {
          return try_sample_block(sys, eff[static_cast<std::size_t>(i)], opts.resilience);
        },
        opts.cancel);
    opts.cancel.throw_if_cancelled();
    const std::vector<index> survivors = degrade_window(outcomes, eff, 0, st);
    used.reserve(survivors.size());
    for (index k : survivors) {
      comp.add_columns(outcomes[static_cast<std::size_t>(k)].value().block);
      obs::counter_add(obs::Counter::kPmtbrSamples);
      used.push_back(eff[static_cast<std::size_t>(k)]);
    }
    enforce_coverage_floor(st, opts.resilience);
  }

  std::vector<PmtbrResult> out;
  out.reserve(orders.size());
  for (const index order : orders) {
    PmtbrResult res;
    res.samples_used = used;
    res.degradation = st.report;
    PMTBR_TRACE_SCOPE("pmtbr.project");
    finalize(sys, comp, std::max<index>(1, std::min<index>(order, comp.rank())), res);
    out.push_back(std::move(res));
  }
  return out;
}

PmtbrResult pmtbr(const DescriptorSystem& sys, const PmtbrOptions& opts) {
  PMTBR_REQUIRE(sys.n() > 0, "pmtbr needs a nonempty system");
  PMTBR_REQUIRE(!opts.bands.empty(), "pmtbr needs at least one frequency band");
  PMTBR_REQUIRE(opts.num_samples >= 1, "pmtbr needs at least one sample");
  PMTBR_REQUIRE(opts.truncation_tol >= 0, "truncation_tol must be nonnegative");
  const auto samples = sample_bands(opts.bands, opts.num_samples, opts.scheme);
  return pmtbr_with_samples(sys, samples, opts);
}

}  // namespace pmtbr::mor
