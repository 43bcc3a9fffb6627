// Frequency-weighted balanced truncation tests.
#include <gtest/gtest.h>

#include <numbers>
#include <vector>

#include "circuit/generators.hpp"
#include "la/ops.hpp"
#include "mor/error.hpp"
#include "mor/fwbt.hpp"
#include "mor/tbr.hpp"

namespace pmtbr::mor {
namespace {

// Shape, then entries in row-major order: EXPECT_EQ on two of these
// compares matrices bit for bit.
std::vector<double> entries(const MatD& m) {
  std::vector<double> out{static_cast<double>(m.rows()), static_cast<double>(m.cols())};
  out.insert(out.end(), m.data(), m.data() + m.rows() * m.cols());
  return out;
}

TEST(Butterworth, DcGainIsUnity) {
  for (const index order : {1, 2, 4}) {
    const auto w = butterworth_lowpass(order, 1e9, 1);
    const la::cd h0 = w.transfer(la::cd(0.0, 1.0))(0, 0);
    EXPECT_NEAR(std::abs(h0), 1.0, 1e-6) << "order " << order;
  }
}

TEST(Butterworth, CutoffIsMinus3dB) {
  const auto w = butterworth_lowpass(3, 1e9, 1);
  const la::cd hc = w.transfer(la::cd(0.0, 2.0 * std::numbers::pi * 1e9))(0, 0);
  EXPECT_NEAR(std::abs(hc), 1.0 / std::sqrt(2.0), 1e-6);
}

TEST(Butterworth, RolloffMatchesOrder) {
  const index order = 2;
  const auto w = butterworth_lowpass(order, 1e9, 1);
  const double h10 = std::abs(w.transfer(la::cd(0.0, 2.0 * std::numbers::pi * 1e10))(0, 0));
  const double h100 = std::abs(w.transfer(la::cd(0.0, 2.0 * std::numbers::pi * 1e11))(0, 0));
  // -40 dB/decade for order 2.
  EXPECT_NEAR(std::log10(h10 / h100), 2.0, 0.05);
}

TEST(Butterworth, StableAllOrders) {
  for (const index order : {1, 3, 5, 8}) {
    const auto w = butterworth_lowpass(order, 2e9, 1);
    EXPECT_TRUE(w.is_stable()) << "order " << order;
  }
}

TEST(Butterworth, MimoChannelsAreDecoupled) {
  const auto w = butterworth_lowpass(2, 1e9, 3);
  EXPECT_EQ(w.n(), 6);
  EXPECT_EQ(w.num_inputs(), 3);
  const la::MatC h = w.transfer(la::cd(0.0, 1e9));
  for (index i = 0; i < 3; ++i) {
    for (index j = 0; j < 3; ++j) {
      if (i != j) {
        EXPECT_LT(std::abs(h(i, j)), 1e-12);
      }
    }
  }
}

TEST(Fwbt, IdentityWeightsMatchTbr) {
  circuit::RcMeshParams p;
  p.rows = 4;
  p.cols = 4;
  p.num_ports = 2;
  const auto sys = circuit::make_rc_mesh(p);

  TbrOptions topts;
  topts.fixed_order = 5;
  const auto t = tbr(sys, topts);
  FwbtOptions fopts;
  fopts.fixed_order = 5;
  const auto f = fwbt(sys, std::nullopt, std::nullopt, fopts);

  // Unweighted FWBT and TBR balance the same Gramians with the same kernel,
  // so they agree bit for bit.
  EXPECT_EQ(f.weighted_hsv, t.hsv);
  EXPECT_EQ(f.model.singular_values, t.model.singular_values);
  EXPECT_EQ(entries(f.model.v), entries(t.model.v));
  EXPECT_EQ(entries(f.model.w), entries(t.model.w));
  EXPECT_EQ(entries(f.model.system.e()), entries(t.model.system.e()));
  EXPECT_EQ(entries(f.model.system.a()), entries(t.model.system.a()));
  EXPECT_EQ(entries(f.model.system.b()), entries(t.model.system.b()));
  EXPECT_EQ(entries(f.model.system.c()), entries(t.model.system.c()));
}

TEST(Fwbt, LowpassWeightImprovesInBandAccuracy) {
  // The classical frequency-weighting effect: at equal (small) order, the
  // weighted truncation is better inside the weight's passband.
  circuit::PeecParams pp;
  pp.sections = 12;
  const auto sys = to_energy_standard(circuit::make_peec(pp));
  const double f_band = 2e8;
  const auto in_grid = linspace_grid(1e6, f_band, 20);
  const index q = 6;

  TbrOptions topts;
  topts.fixed_order = q;
  const auto plain = tbr(sys, topts);

  FwbtOptions fopts;
  fopts.fixed_order = q;
  const auto wi = butterworth_lowpass(3, f_band, static_cast<index>(sys.num_inputs()));
  const auto wo = butterworth_lowpass(3, f_band, static_cast<index>(sys.num_outputs()));
  const auto weighted = fwbt(sys, wi, wo, fopts);

  const auto e_plain = compare_on_grid(sys, plain.model.system, in_grid);
  const auto e_weighted = compare_on_grid(sys, weighted.model.system, in_grid);
  EXPECT_LT(e_weighted.max_abs, e_plain.max_abs);
}

TEST(Fwbt, RejectsMismatchedWeight) {
  const auto sys = circuit::make_rc_line({.segments = 8});
  const auto w2 = butterworth_lowpass(2, 1e9, 2);  // two channels vs one port
  EXPECT_THROW(fwbt(sys, w2, std::nullopt, {}), std::invalid_argument);
  EXPECT_THROW(fwbt(sys, std::nullopt, w2, {}), std::invalid_argument);
}

TEST(Fwbt, WeightedHsvDescending) {
  const auto sys = circuit::make_rc_line({.segments = 12});
  const auto wi = butterworth_lowpass(2, 1e9, 1);
  const auto res = fwbt(sys, wi, std::nullopt, {});
  for (std::size_t i = 1; i < res.weighted_hsv.size(); ++i)
    EXPECT_GE(res.weighted_hsv[i - 1], res.weighted_hsv[i]);
}

}  // namespace
}  // namespace pmtbr::mor
