// Pole/residue extraction, Foster RC synthesis, and the full
// reduce -> synthesize -> serialize -> parse -> verify round trip.
#include <gtest/gtest.h>

#include <numbers>

#include "circuit/generators.hpp"
#include "circuit/parser.hpp"
#include "circuit/writer.hpp"
#include "mor/error.hpp"
#include "mor/pmtbr.hpp"
#include "mor/synthesis.hpp"
#include "mor/tbr.hpp"

namespace pmtbr::mor {
namespace {

TEST(PoleResidue, FirstOrderAnalytic) {
  // H(s) = 6 / (s + 2): pole -2, residue 6.
  MatD a{{-2.0}}, b{{3.0}}, c{{2.0}};
  const auto pr = pole_residue(DenseSystem::standard(a, b, c));
  ASSERT_EQ(pr.poles.size(), 1u);
  EXPECT_NEAR(pr.poles[0].real(), -2.0, 1e-12);
  EXPECT_NEAR(pr.residues[0].real(), 6.0, 1e-12);
}

TEST(PoleResidue, MatchesTransferOnGrid) {
  const auto sys = circuit::make_rc_line({.segments = 12});
  TbrOptions opts;
  opts.fixed_order = 5;
  const auto red = tbr(sys, opts);
  const auto pr = pole_residue(red.model.system);
  for (const double f : {1e7, 1e8, 1e9, 1e10}) {
    const cd s(0.0, 2.0 * std::numbers::pi * f);
    const cd direct = red.model.system.transfer(s)(0, 0);
    const cd via_pr = evaluate(pr, s);
    EXPECT_LT(std::abs(direct - via_pr) / std::abs(direct), 1e-7) << "f=" << f;
  }
}

TEST(PoleResidue, DescriptorFormHandled) {
  MatD e{{2.0}}, a{{-4.0}}, b{{1.0}}, c{{1.0}};
  const auto pr = pole_residue(DenseSystem(e, a, b, c));
  // H = 1/(2s+4) = 0.5/(s+2).
  EXPECT_NEAR(pr.poles[0].real(), -2.0, 1e-12);
  EXPECT_NEAR(pr.residues[0].real(), 0.5, 1e-12);
}

TEST(PoleResidue, RejectsOutOfRangeTransferEntries) {
  MatD a{{-2.0}}, b{{3.0}}, c{{2.0}};
  const auto sys = DenseSystem::standard(a, b, c);
  EXPECT_THROW(pole_residue(sys, -1, 0), std::invalid_argument);
  EXPECT_THROW(pole_residue(sys, 0, -1), std::invalid_argument);
  EXPECT_THROW(pole_residue(sys, 1, 0), std::invalid_argument);
  EXPECT_THROW(pole_residue(sys, 0, 1), std::invalid_argument);
}

TEST(Foster, SingleTermIsParallelRc) {
  PoleResidue pr;
  pr.poles = {cd(-1e9, 0.0)};
  pr.residues = {cd(1e12, 0.0)};
  const auto nl = synthesize_foster_rc(pr);
  const auto sys = circuit::assemble_mna(nl);
  // Z(s) = r/(s+p) with C = 1/r, R = r/p.
  for (const double f : {1e7, 1e9}) {
    const cd s(0.0, 2.0 * std::numbers::pi * f);
    const cd z = sys.transfer(s)(0, 0);
    const cd expected = 1e12 / (s + 1e9);
    EXPECT_LT(std::abs(z - expected) / std::abs(expected), 1e-10);
  }
}

TEST(Foster, RejectsNonRcFunctions) {
  PoleResidue complex_pole;
  complex_pole.poles = {cd(-1e8, 1e9)};
  complex_pole.residues = {cd(1.0, 0.0)};
  EXPECT_THROW(synthesize_foster_rc(complex_pole), std::invalid_argument);

  PoleResidue unstable;
  unstable.poles = {cd(1e8, 0.0)};
  unstable.residues = {cd(1.0, 0.0)};
  EXPECT_THROW(synthesize_foster_rc(unstable), std::invalid_argument);

  PoleResidue negative_residue;
  negative_residue.poles = {cd(-1e8, 0.0)};
  negative_residue.residues = {cd(-1.0, 0.0)};
  EXPECT_THROW(synthesize_foster_rc(negative_residue), std::invalid_argument);
}

TEST(Foster, FullRoundTripReduceSynthesizeParse) {
  // The complete macromodeling flow: RC line -> PMTBR -> pole/residue ->
  // Foster netlist -> serialize -> parse -> MNA -> compare against the
  // original full model.
  const auto full = circuit::make_rc_line({.segments = 40});

  PmtbrOptions opts;
  opts.bands = {Band{0.0, 2e9}};
  opts.num_samples = 16;
  opts.fixed_order = 5;
  const auto red = pmtbr(full, opts);

  const auto pr = pole_residue(red.model.system);
  const auto synth_nl = synthesize_foster_rc(pr);
  const std::string text = circuit::netlist_to_string(synth_nl);
  const auto parsed = circuit::parse_netlist_string(text);
  const auto synth_sys = circuit::assemble_mna(parsed);

  for (const double f : {1e6, 1e8, 1e9}) {
    const cd s(0.0, 2.0 * std::numbers::pi * f);
    const cd h_full = full.transfer(s)(0, 0);
    const cd h_synth = synth_sys.transfer(s)(0, 0);
    EXPECT_LT(std::abs(h_full - h_synth) / std::abs(h_full), 1e-3) << "f=" << f;
  }
}

TEST(Writer, RoundTripPreservesElements) {
  circuit::Netlist nl;
  const auto n1 = nl.add_node();
  const auto n2 = nl.add_node();
  nl.add_resistor(n1, n2, 42.0);
  nl.add_capacitor(n2, 0, 3.3e-12);
  const auto l1 = nl.add_inductor(n1, 0, 2e-9);
  const auto l2 = nl.add_inductor(n2, 0, 8e-9);
  nl.add_mutual(l1, l2, 2e-9);  // k = 0.5
  nl.add_port(n1);

  const auto parsed = circuit::parse_netlist_string(circuit::netlist_to_string(nl));
  ASSERT_EQ(parsed.conductances().size(), 1u);
  EXPECT_NEAR(1.0 / parsed.conductances()[0].value, 42.0, 1e-12);
  ASSERT_EQ(parsed.capacitors().size(), 1u);
  EXPECT_NEAR(parsed.capacitors()[0].value, 3.3e-12, 1e-24);
  ASSERT_EQ(parsed.mutuals().size(), 1u);
  EXPECT_NEAR(parsed.mutuals()[0].m, 2e-9, 1e-18);
  EXPECT_EQ(parsed.num_ports(), 1);

  // Transfer functions must agree exactly.
  const auto s1 = circuit::assemble_mna(nl);
  const auto s2 = circuit::assemble_mna(parsed);
  const cd s(0.0, 2.0 * std::numbers::pi * 1e9);
  EXPECT_LT(std::abs(s1.transfer(s)(0, 0) - s2.transfer(s)(0, 0)),
            1e-9 * std::abs(s1.transfer(s)(0, 0)));
}

}  // namespace
}  // namespace pmtbr::mor
