#include "signal/ac.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "mor/pmtbr.hpp"
#include "util/faultinject.hpp"
#include "util/logging.hpp"
#include "util/obs/counters.hpp"
#include "util/obs/trace.hpp"
#include "util/status.hpp"
#include "util/thread_pool.hpp"

namespace pmtbr::signal {

namespace {
constexpr double kTwoPi = 2.0 * std::numbers::pi;

util::Expected<la::cd> eval(const DescriptorSystem& sys, la::cd s, la::index out_idx,
                            la::index in_idx) {
  auto h = sys.try_transfer(s);
  if (!h.is_ok()) return h.status();
  return h.value()(out_idx, in_idx);
}

util::Expected<la::cd> eval(const mor::DenseSystem& sys, la::cd s, la::index out_idx,
                            la::index in_idx) {
  try {
    return sys.transfer(s)(out_idx, in_idx);
  } catch (const util::StatusError& e) {  // dense pencil exactly singular
    return e.status();
  }
}

// One grid point with its retry ladder: a failed transfer evaluation is
// retried mor::kSampleRetries times at relatively perturbed frequencies
// f·(1 + mor::kRetryShiftEps·k) before the point is dropped from the sweep
// (docs/ROBUSTNESS.md). All attempts run under a fault key derived from
// the ORIGINAL frequency, so injected decisions condemn the point
// deterministically while genuine pole hits recover via the perturbed
// re-evaluations.
template <typename System>
util::Expected<AcPoint> try_ac_point(const System& sys, double f, la::index out_idx,
                                     la::index in_idx) {
  util::fault::KeyScope key(util::fault::shift_key(0.0, kTwoPi * f));
  util::Status last;
  for (int attempt = 0; attempt <= mor::kSampleRetries; ++attempt) {
    double fk = f;
    if (attempt > 0) {
      const double eps = mor::kRetryShiftEps * static_cast<double>(attempt);
      fk = (f == 0.0) ? eps : f * (1.0 + eps);
      obs::counter_add(obs::Counter::kAcPointRetries);
    }
    auto h = eval(sys, la::cd(0.0, kTwoPi * fk), out_idx, in_idx);
    if (h.is_ok()) return AcPoint{f, std::abs(h.value()), std::arg(h.value())};
    last = h.status();
  }
  return last;
}

template <typename System>
std::vector<AcPoint> sweep_impl(const System& sys, const std::vector<double>& freqs,
                                la::index out_idx, la::index in_idx) {
  PMTBR_REQUIRE(0 <= out_idx && out_idx < sys.num_outputs(), "output index out of range");
  PMTBR_REQUIRE(0 <= in_idx && in_idx < sys.num_inputs(), "input index out of range");
  if (freqs.empty()) return {};
  PMTBR_TRACE_SCOPE("ac.sweep");
  obs::counter_add(obs::Counter::kAcSweepPoints, static_cast<std::int64_t>(freqs.size()));
  // Every grid point is an independent shifted solve; fan them out into
  // per-point outcome slots so one failed point cannot poison the rest,
  // then keep the survivors in grid order.
  auto outcomes =
      util::parallel_try_map<AcPoint>(static_cast<la::index>(freqs.size()), [&](la::index k) {
        return try_ac_point(sys, freqs[static_cast<std::size_t>(k)], out_idx, in_idx);
      });
  std::vector<AcPoint> out;
  out.reserve(outcomes.size());
  for (std::size_t k = 0; k < outcomes.size(); ++k) {
    if (outcomes[k].is_ok()) {
      out.push_back(outcomes[k].value());
    } else {
      obs::counter_add(obs::Counter::kAcPointsDropped);
      log_debug("ac_sweep: dropped point at ", freqs[k], " Hz (",
                outcomes[k].status().to_string(), ")");
    }
  }
  return out;
}

}  // namespace

std::vector<AcPoint> ac_sweep(const DescriptorSystem& sys, const std::vector<double>& freqs,
                              la::index out_idx, la::index in_idx) {
  return sweep_impl(sys, freqs, out_idx, in_idx);
}

std::vector<AcPoint> ac_sweep(const mor::DenseSystem& sys, const std::vector<double>& freqs,
                              la::index out_idx, la::index in_idx) {
  return sweep_impl(sys, freqs, out_idx, in_idx);
}

}  // namespace pmtbr::signal
