// Correctness tests for jacc::parallel_reduce: sum/min/max, 1D/2D/3D, on every
// back end, including the fiber-based two-kernel GPU scheme.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <tuple>
#include <vector>

#include "core/jacc.hpp"

namespace jacc {
namespace {

double dot_kernel(index_t i, const array<double>& x, const array<double>& y) {
  return static_cast<double>(x[i]) * static_cast<double>(y[i]);
}

class ReduceAllBackends : public ::testing::TestWithParam<backend> {
protected:
  void SetUp() override { set_backend(GetParam()); }
  void TearDown() override { set_backend(backend::threads); }
};

TEST_P(ReduceAllBackends, SumOfOnes) {
  const index_t n = 1000;
  array<double> x(std::vector<double>(static_cast<std::size_t>(n), 1.0));
  const double s = parallel_reduce(
      n, [](index_t i, const array<double>& v) {
        return static_cast<double>(v[i]);
      }, x);
  EXPECT_DOUBLE_EQ(s, 1000.0);
}

TEST_P(ReduceAllBackends, DotProduct) {
  const index_t n = 777; // not a block multiple
  std::vector<double> xs(static_cast<std::size_t>(n), 2.0);
  std::vector<double> ys(static_cast<std::size_t>(n), 3.0);
  array<double> x(xs), y(ys);
  EXPECT_DOUBLE_EQ(parallel_reduce(n, dot_kernel, x, y),
                   6.0 * static_cast<double>(n));
}

TEST_P(ReduceAllBackends, SumOfIota) {
  const index_t n = 4097;
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::iota(xs.begin(), xs.end(), 0.0);
  array<double> x(xs);
  const double s = parallel_reduce(
      n, [](index_t i, const array<double>& v) {
        return static_cast<double>(v[i]);
      }, x);
  EXPECT_DOUBLE_EQ(s, static_cast<double>(n - 1) * static_cast<double>(n) / 2);
}

TEST_P(ReduceAllBackends, SizeOne) {
  array<double> x{7.5};
  EXPECT_DOUBLE_EQ(parallel_reduce(1, dot_kernel, x, x), 56.25);
}

TEST_P(ReduceAllBackends, SizeZeroReturnsIdentity) {
  array<double> x(0);
  EXPECT_DOUBLE_EQ(parallel_reduce(0, dot_kernel, x, x), 0.0);
}

TEST_P(ReduceAllBackends, MinAndMax) {
  const index_t n = 513;
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] =
        std::cos(static_cast<double>(i)) * 100.0;
  }
  array<double> x(xs);
  auto get = [](index_t i, const array<double>& v) {
    return static_cast<double>(v[i]);
  };
  const double mn = parallel_reduce_min(n, get, x);
  const double mx = parallel_reduce_max(n, get, x);
  EXPECT_DOUBLE_EQ(mn, *std::min_element(xs.begin(), xs.end()));
  EXPECT_DOUBLE_EQ(mx, *std::max_element(xs.begin(), xs.end()));
  EXPECT_LE(mn, mx);
}

TEST_P(ReduceAllBackends, TwoDDot) {
  const index_t rows = 37;
  const index_t cols = 21;
  std::vector<double> xs(static_cast<std::size_t>(rows * cols), 1.5);
  std::vector<double> ys(static_cast<std::size_t>(rows * cols), 2.0);
  array2d<double> x(xs, rows, cols), y(ys, rows, cols);
  const double r = parallel_reduce(
      dims2{rows, cols},
      [](index_t i, index_t j, const array2d<double>& a,
         const array2d<double>& b) {
        return static_cast<double>(a(i, j)) * static_cast<double>(b(i, j));
      },
      x, y);
  EXPECT_DOUBLE_EQ(r, 3.0 * static_cast<double>(rows * cols));
}

TEST_P(ReduceAllBackends, TwoDVisitsEveryPair) {
  // Sum of (i + j*rows) over all (i, j) equals sum of 0..rows*cols-1.
  const index_t rows = 19;
  const index_t cols = 23;
  const double r = parallel_reduce(
      dims2{rows, cols},
      [rows](index_t i, index_t j) {
        return static_cast<double>(i + j * rows);
      });
  const double n = static_cast<double>(rows * cols);
  EXPECT_DOUBLE_EQ(r, (n - 1.0) * n / 2.0);
}

TEST_P(ReduceAllBackends, ThreeDVisitsEveryTriple) {
  // Sum of (i + j*rows + k*rows*cols) over all (i, j, k) equals the sum of
  // 0..rows*cols*depth-1.  Integer-valued terms keep every partial sum
  // exact, so the result is exact on every back end.
  const index_t rows = 13;
  const index_t cols = 11;
  const index_t depth = 9;
  const double r = parallel_reduce(
      dims3{rows, cols, depth},
      [rows, cols](index_t i, index_t j, index_t k) {
        return static_cast<double>(i + j * rows + k * rows * cols);
      });
  const double n = static_cast<double>(rows * cols * depth);
  EXPECT_EQ(r, (n - 1.0) * n / 2.0);
}

TEST_P(ReduceAllBackends, IntegerReduction) {
  const index_t n = 100;
  const auto s = parallel_reduce(n, [](index_t i) { return i; });
  EXPECT_EQ(s, 99 * 100 / 2);
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ReduceAllBackends,
                         ::testing::ValuesIn(all_backends),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Property sweep: every backend must agree with the serial sum to a tight
// relative tolerance (association order differs, so not bitwise).
class ReduceAgreement
    : public ::testing::TestWithParam<std::tuple<backend, index_t>> {};

TEST_P(ReduceAgreement, MatchesSerialWithinTolerance) {
  const auto [b, n] = GetParam();
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    xs[static_cast<std::size_t>(i)] =
        std::sin(0.1 * static_cast<double>(i)) + 0.01;
  }
  auto get = [](index_t i, const array<double>& v) {
    return static_cast<double>(v[i]);
  };

  set_backend(backend::serial);
  double ref;
  {
    array<double> x(xs);
    ref = parallel_reduce(n, get, x);
  }
  set_backend(b);
  double got;
  {
    array<double> x(xs);
    got = parallel_reduce(n, get, x);
  }
  set_backend(backend::threads);
  EXPECT_NEAR(got, ref, 1e-9 * std::max(1.0, std::abs(ref)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ReduceAgreement,
    ::testing::Combine(::testing::ValuesIn(all_backends),
                       ::testing::Values<index_t>(1, 3, 255, 256, 257, 1000,
                                                  65'536)),
    [](const auto& info) {
      return std::string(jacc::to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

TEST(ReduceCharging, GpuReduceChargesTwoKernelsAndD2h) {
  // Paper-fidelity charging (Fig. 3: per-call scratch + two zero fills) is
  // the JACC_MEM_POOL=none contract; the pooled counterpart lives in
  // mem_pool_test.cpp.
  const jaccx::mem::scoped_mode fidelity(jaccx::mem::pool_mode::none);
  scoped_backend sb(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  array<double> x(std::vector<double>(1000, 1.0));
  dev.reset_clock();
  const double s = parallel_reduce(
      1000, [](index_t i, const array<double>& v) {
        return static_cast<double>(v[i]);
      }, x);
  EXPECT_DOUBLE_EQ(s, 1000.0);
  int kernels = 0;
  int d2h = 0;
  int allocs = 0;
  for (const auto& e : dev.tl().events()) {
    if (e.kind == jaccx::sim::event_kind::kernel) {
      ++kernels;
    }
    if (e.kind == jaccx::sim::event_kind::transfer_d2h) {
      ++d2h;
    }
    if (e.kind == jaccx::sim::event_kind::alloc) {
      ++allocs;
    }
  }
  EXPECT_EQ(kernels, 4) << "2 zero-fills + the two-kernel scheme (Fig. 3)";
  EXPECT_EQ(d2h, 1) << "scalar result transfer";
  EXPECT_EQ(allocs, 2) << "partials + result buffers per call";
}

} // namespace
} // namespace jacc
