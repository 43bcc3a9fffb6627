// Bit-for-bit comparison of two PMTBR results; each failure names the field
// that differs.
#pragma once

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "la/matrix.hpp"
#include "mor/pmtbr.hpp"

namespace pmtbr::testing {

inline bool same_bits(const la::MatD& x, const la::MatD& y) {
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

inline bool same_bits(const std::vector<double>& x, const std::vector<double>& y) {
  return x.size() == y.size() && std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
}

// The model (system, V, W, σ), the Hankel estimates and the samples used.
inline void expect_same_model(const mor::PmtbrResult& got, const mor::PmtbrResult& want) {
  const mor::DenseSystem& g = got.model.system;
  const mor::DenseSystem& w = want.model.system;
  EXPECT_TRUE(same_bits(g.e(), w.e()));
  EXPECT_TRUE(same_bits(g.a(), w.a()));
  EXPECT_TRUE(same_bits(g.b(), w.b()));
  EXPECT_TRUE(same_bits(g.c(), w.c()));
  EXPECT_TRUE(same_bits(got.model.v, want.model.v));
  EXPECT_TRUE(same_bits(got.model.w, want.model.w));
  EXPECT_TRUE(same_bits(got.model.singular_values, want.model.singular_values));
  EXPECT_TRUE(same_bits(got.hankel_estimates, want.hankel_estimates));
  ASSERT_EQ(got.samples_used.size(), want.samples_used.size());
  for (std::size_t k = 0; k < got.samples_used.size(); ++k) {
    EXPECT_EQ(got.samples_used[k].s, want.samples_used[k].s);
    EXPECT_EQ(got.samples_used[k].weight, want.samples_used[k].weight);
  }
}

// expect_same_model, and the degradation report.
inline void expect_same_reduction(const mor::PmtbrResult& got, const mor::PmtbrResult& want) {
  expect_same_model(got, want);
  const mor::DegradeReport& gd = got.degradation;
  const mor::DegradeReport& wd = want.degradation;
  EXPECT_EQ(gd.samples_attempted, wd.samples_attempted);
  EXPECT_EQ(gd.samples_ok, wd.samples_ok);
  EXPECT_EQ(gd.samples_dropped, wd.samples_dropped);
  EXPECT_EQ(gd.retries, wd.retries);
  EXPECT_EQ(gd.regularized, wd.regularized);
  EXPECT_EQ(gd.reweights, wd.reweights);
  EXPECT_EQ(gd.coverage, wd.coverage);
  EXPECT_EQ(gd.failures.size(), wd.failures.size());
}

}  // namespace pmtbr::testing
