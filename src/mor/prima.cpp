#include "mor/prima.hpp"

#include "util/logging.hpp"

namespace pmtbr::mor {

PrimaResult prima(const DescriptorSystem& sys, const PrimaOptions& opts) {
  PMTBR_REQUIRE(opts.num_moments >= 1, "need at least one block moment");
  PMTBR_CHECK_FINITE(sys.b(), "prima input matrix B");
  DeflatingBasis basis(sys.n());

  // Factor (s0 E - A) once; the Krylov operator is (s0 E - A)^{-1} E.
  const auto lu = sys.factor_real(opts.s0, -1.0);
  MatD block = lu.solve(sys.b());  // R0 = (s0 E - A)^{-1} B
  for (index moment = 0;; ++moment) {
    const index added = basis.extend(block);
    // Stop after the last moment, or when the block fully deflated (Krylov
    // space exhausted); otherwise the next block is (s0 E - A)^{-1} E times
    // the directions this one added.
    if (moment + 1 == opts.num_moments || added == 0) break;
    const index rank = basis.rank();
    block = lu.solve(sparse_times_dense(sys.e(), basis.columns(rank - added, rank)));
  }

  PMTBR_ENSURE(basis.rank() > 0, "PRIMA produced an empty basis");
  log_debug("prima: basis size ", basis.rank(), " (", opts.num_moments, " moments x ",
            sys.num_inputs(), " ports)");
  PrimaResult out;
  out.model.v = basis.matrix();
  out.model.w = out.model.v;
  out.model.system = project_congruence(sys, out.model.v);
  return out;
}

}  // namespace pmtbr::mor
