#include "mor/synthesis.hpp"

#include <cmath>

#include "la/lu.hpp"
#include "la/ops.hpp"
#include "la/schur.hpp"

namespace pmtbr::mor {

PoleResidue pole_residue(const DenseSystem& sys, index out_idx, index in_idx) {
  PMTBR_REQUIRE(0 <= out_idx && out_idx < sys.num_outputs(), "output index out of range");
  PMTBR_REQUIRE(0 <= in_idx && in_idx < sys.num_inputs(), "input index out of range");
  const index n = sys.n();
  // Standard form: Ad = E^{-1} A, bd = E^{-1} b.
  const la::LuD lue(sys.e());
  const MatD ad = lue.solve(sys.a());
  const auto bd = lue.solve(sys.b().col(in_idx));

  const la::EigResult right = la::eig(ad);
  const la::EigResult left = la::eig(la::transpose(ad));

  // Match left eigenvectors to right ones by eigenvalue (both sorted by
  // descending magnitude, but conjugate pairs can be permuted).
  std::vector<char> used(static_cast<std::size_t>(n), 0);
  PoleResidue out;
  const double scale = std::abs(right.values.empty() ? cd{1} : right.values.front());

  for (index k = 0; k < n; ++k) {
    const cd lam = right.values[static_cast<std::size_t>(k)];
    index match = -1;
    double best = 1e300;
    for (index j = 0; j < n; ++j) {
      if (used[static_cast<std::size_t>(j)]) continue;
      const double d = std::abs(left.values[static_cast<std::size_t>(j)] - lam);
      if (d < best) {
        best = d;
        match = j;
      }
    }
    PMTBR_ENSURE(match >= 0 && best <= 1e-6 * std::max(scale, 1e-300),
                 "left/right eigenvalue sets do not match (defective system?)");
    used[static_cast<std::size_t>(match)] = 1;

    // r = (c^T v)(w^T b) / (w^T v).
    cd cv{}, wb{}, wv{};
    for (index i = 0; i < n; ++i) {
      cv += cd(sys.c()(out_idx, i)) * right.vectors(i, k);
      wb += left.vectors(i, match) * cd(bd[static_cast<std::size_t>(i)]);
      wv += left.vectors(i, match) * right.vectors(i, k);
    }
    PMTBR_ENSURE(std::abs(wv) > 1e-12, "ill-conditioned eigenvector pairing in pole_residue");
    out.poles.push_back(lam);
    out.residues.push_back(cv * wb / wv);
  }
  return out;
}

cd evaluate(const PoleResidue& pr, cd s) {
  cd acc{};
  for (std::size_t i = 0; i < pr.poles.size(); ++i) acc += pr.residues[i] / (s - pr.poles[i]);
  return acc;
}

circuit::Netlist synthesize_foster_rc(const PoleResidue& pr) {
  PMTBR_REQUIRE(!pr.poles.empty(), "no poles to synthesize");
  double rmax = 0;
  for (const auto& r : pr.residues) rmax = std::max(rmax, std::abs(r));

  struct Term {
    double p, r;
  };
  std::vector<Term> terms;
  for (std::size_t i = 0; i < pr.poles.size(); ++i) {
    const cd lam = pr.poles[i];
    const cd res = pr.residues[i];
    if (std::abs(res) <= kFosterResidueTol * std::max(rmax, 1e-300)) continue;  // negligible
    if (std::abs(lam.imag()) > kFosterImagTol * std::abs(lam))
      throw std::invalid_argument("complex pole: not an RC driving-point impedance");
    if (lam.real() >= 0)
      throw std::invalid_argument("unstable or integrating pole in RC synthesis");
    if (res.real() <= 0 || std::abs(res.imag()) > kFosterImagTol * std::abs(res))
      throw std::invalid_argument("non-positive residue: not an RC driving-point impedance");
    terms.push_back({-lam.real(), res.real()});
  }
  PMTBR_REQUIRE(!terms.empty(), "all residues negligible; nothing to synthesize");

  // Series chain of parallel RC blocks: Z_i(s) = r/(s+p) = (1/C)/(s + 1/(RC))
  // with C = 1/r, R = r/p.
  circuit::Netlist nl;
  index prev = nl.add_node();
  nl.add_port(prev);
  for (std::size_t i = 0; i < terms.size(); ++i) {
    const index next = (i + 1 == terms.size()) ? 0 : nl.add_node();
    const double cval = 1.0 / terms[i].r;
    const double rval = terms[i].r / terms[i].p;
    if (next == 0) {
      nl.add_capacitor(prev, 0, cval);
      nl.add_resistor(prev, 0, rval);
    } else {
      nl.add_capacitor(prev, next, cval);
      nl.add_resistor(prev, next, rval);
    }
    prev = next;
  }
  return nl;
}

}  // namespace pmtbr::mor
