#include "mor/mpproj.hpp"

#include <cmath>

#include "la/ops.hpp"

namespace pmtbr::mor {

MpprojResult mpproj(const DescriptorSystem& sys, const std::vector<FrequencySample>& samples,
                    const MpprojOptions& opts) {
  PMTBR_REQUIRE(!samples.empty(), "need at least one frequency sample");
  PMTBR_CHECK_FINITE(sys.b(), "mpproj input matrix B");
  DeflatingBasis basis(sys.n(), opts.max_order);
  for (const auto& fs : samples) {
    if (basis.full()) break;
    const la::MatC z = sys.solve_shifted(fs.s, la::to_complex(sys.b()));
    basis.extend(std::abs(fs.s.imag()) == 0.0 ? la::real_part(z) : la::realify_columns(z));
  }

  PMTBR_ENSURE(basis.rank() > 0, "mpproj produced an empty basis");
  MpprojResult out;
  out.model.v = basis.matrix();
  out.model.w = out.model.v;
  out.model.system = project_congruence(sys, out.model.v);
  return out;
}

}  // namespace pmtbr::mor
