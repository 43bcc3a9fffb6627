#include "mor/passivity.hpp"

#include <cmath>
#include <numbers>

#include "la/eig_sym.hpp"
#include "la/ops.hpp"

namespace pmtbr::mor {

PassivityReport check_passivity(const DenseSystem& sys, const std::vector<double>& grid_hz) {
  PMTBR_REQUIRE(sys.num_inputs() == sys.num_outputs(),
                "passivity check needs a square transfer function");
  PassivityReport rep;

  double max_re = -1e300;
  for (const auto& p : sys.poles()) max_re = std::max(max_re, p.real());
  rep.min_pole_margin = -max_re;
  rep.stable = max_re < 0.0;

  rep.min_dissipation = 1e300;
  rep.dissipative_on_grid = true;
  for (const double f : grid_hz) {
    const la::MatC h = sys.transfer(la::cd(0.0, 2.0 * std::numbers::pi * f));
    // Hermitian part as a real symmetric matrix of twice the size:
    // for M = (H + H^H)/2 = S + jT (S sym, T skew), eig(M) = eig([[S,-T],[T,S]]).
    const la::index p = h.rows();
    la::MatD big(2 * p, 2 * p);
    for (la::index i = 0; i < p; ++i)
      for (la::index j = 0; j < p; ++j) {
        const double s = 0.5 * (h(i, j).real() + h(j, i).real());
        const double t = 0.5 * (h(i, j).imag() - h(j, i).imag());
        big(i, j) = s;
        big(p + i, p + j) = s;
        big(i, p + j) = -t;
        big(p + i, j) = t;
      }
    const auto eig = la::eig_sym(big);
    const double lmin = eig.values.back();
    if (lmin < rep.min_dissipation) {
      rep.min_dissipation = lmin;
      rep.worst_frequency_hz = f;
    }
  }
  // Tolerance scaled by the transfer function magnitude encountered.
  if (rep.min_dissipation < 0.0) rep.dissipative_on_grid = false;
  return rep;
}

bool is_structurally_passive(const DescriptorSystem& sys) {
  constexpr double tol = kPassivityTol;
  const la::MatD e = sys.e().to_dense();
  if (la::max_abs_diff(e, la::transpose(e)) > tol * (1.0 + la::norm_inf(e))) return false;
  const auto eig_e = la::eig_sym(e);
  if (eig_e.values.back() < -tol * std::max(eig_e.values.front(), 1.0)) return false;

  la::MatD sa = sys.a().to_dense();
  sa += la::transpose(sys.a().to_dense());
  const auto eig_a = la::eig_sym(sa);
  if (eig_a.values.front() > tol * std::max(std::abs(eig_a.values.back()), 1.0)) return false;

  return la::max_abs_diff(sys.b(), la::transpose(sys.c())) <=
         tol * (1.0 + la::norm_inf(sys.b()));
}

}  // namespace pmtbr::mor
