#include "signal/transient.hpp"

#include <cmath>

#include "la/lu.hpp"
#include "la/ops.hpp"

namespace pmtbr::signal {

using la::index;
using la::MatD;

// Trapezoidal rule:
//   (E/h - A/2) x_{k+1} = (E/h + A/2) x_k + B (u_k + u_{k+1}) / 2.
TransientResult simulate(const DescriptorSystem& sys, const InputFunction& u,
                         const TransientOptions& opts) {
  PMTBR_REQUIRE(opts.steps >= 1 && opts.t_end > 0, "bad transient options");
  const index n = sys.n();
  const double h = opts.t_end / static_cast<double>(opts.steps);

  const sparse::CsrD rhs_mat = sparse::combine(1.0 / h, sys.e(), 0.5, sys.a());
  const auto lu = sys.factor_real(1.0 / h, -0.5);

  TransientResult out;
  out.times.resize(static_cast<std::size_t>(opts.steps) + 1);
  out.outputs = MatD(opts.steps + 1, sys.num_outputs());

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> uk = u(0.0);
  PMTBR_REQUIRE(static_cast<index>(uk.size()) == sys.num_inputs(), "input size mismatch");

  const auto record = [&](index step) {
    for (index o = 0; o < sys.num_outputs(); ++o) {
      double acc = 0;
      for (index j = 0; j < n; ++j) acc += sys.c()(o, j) * x[static_cast<std::size_t>(j)];
      out.outputs(step, o) = acc;
    }
  };
  out.times[0] = 0.0;
  record(0);

  for (index k = 0; k < opts.steps; ++k) {
    const double t1 = static_cast<double>(k + 1) * h;
    const std::vector<double> u1 = u(t1);
    std::vector<double> rhs = rhs_mat.matvec(x);
    for (index i = 0; i < n; ++i) {
      double acc = 0;
      for (index j = 0; j < sys.num_inputs(); ++j)
        acc += sys.b()(i, j) * 0.5 *
               (uk[static_cast<std::size_t>(j)] + u1[static_cast<std::size_t>(j)]);
      rhs[static_cast<std::size_t>(i)] += acc;
    }
    x = lu.solve(std::move(rhs));
    uk = u1;
    out.times[static_cast<std::size_t>(k) + 1] = t1;
    record(k + 1);
  }
  return out;
}

TransientResult simulate(const mor::DenseSystem& sys, const InputFunction& u,
                         const TransientOptions& opts) {
  PMTBR_REQUIRE(opts.steps >= 1 && opts.t_end > 0, "bad transient options");
  const index n = sys.n();
  const double h = opts.t_end / static_cast<double>(opts.steps);

  MatD lhs(n, n), rhs_mat(n, n);
  for (index i = 0; i < n; ++i)
    for (index j = 0; j < n; ++j) {
      lhs(i, j) = sys.e()(i, j) / h - 0.5 * sys.a()(i, j);
      rhs_mat(i, j) = sys.e()(i, j) / h + 0.5 * sys.a()(i, j);
    }
  const la::LuD lu(lhs);

  TransientResult out;
  out.times.resize(static_cast<std::size_t>(opts.steps) + 1);
  out.outputs = MatD(opts.steps + 1, sys.num_outputs());

  std::vector<double> x(static_cast<std::size_t>(n), 0.0);
  std::vector<double> uk = u(0.0);
  PMTBR_REQUIRE(static_cast<index>(uk.size()) == sys.num_inputs(), "input size mismatch");

  const auto record = [&](index step) {
    for (index o = 0; o < sys.num_outputs(); ++o) {
      double acc = 0;
      for (index j = 0; j < n; ++j) acc += sys.c()(o, j) * x[static_cast<std::size_t>(j)];
      out.outputs(step, o) = acc;
    }
  };
  out.times[0] = 0.0;
  record(0);

  for (index k = 0; k < opts.steps; ++k) {
    const double t1 = static_cast<double>(k + 1) * h;
    const std::vector<double> u1 = u(t1);
    std::vector<double> rhs = la::matvec(rhs_mat, x);
    for (index i = 0; i < n; ++i) {
      double acc = 0;
      for (index j = 0; j < sys.num_inputs(); ++j)
        acc += sys.b()(i, j) * 0.5 *
               (uk[static_cast<std::size_t>(j)] + u1[static_cast<std::size_t>(j)]);
      rhs[static_cast<std::size_t>(i)] += acc;
    }
    x = lu.solve(std::move(rhs));
    uk = u1;
    out.times[static_cast<std::size_t>(k) + 1] = t1;
    record(k + 1);
  }
  return out;
}

InputFunction bank_input(const std::vector<Waveform>& bank) {
  return [bank](double t) {
    std::vector<double> u(bank.size());
    for (std::size_t k = 0; k < bank.size(); ++k) u[k] = bank[k].value(t);
    return u;
  };
}

OutputError compare_outputs(const TransientResult& ref, const TransientResult& test) {
  PMTBR_REQUIRE(ref.outputs.rows() == test.outputs.rows() &&
                    ref.outputs.cols() == test.outputs.cols(),
                "output grids must match");
  OutputError e;
  double sum = 0;
  for (index i = 0; i < ref.outputs.rows(); ++i)
    for (index j = 0; j < ref.outputs.cols(); ++j) {
      const double d = std::abs(ref.outputs(i, j) - test.outputs(i, j));
      e.max_abs = std::max(e.max_abs, d);
      e.max_ref = std::max(e.max_ref, std::abs(ref.outputs(i, j)));
      sum += d * d;
    }
  e.rms = std::sqrt(sum / static_cast<double>(ref.outputs.size()));
  return e;
}

}  // namespace pmtbr::signal
