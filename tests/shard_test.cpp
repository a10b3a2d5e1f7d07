// Tests for the auto-sharding layer (docs/SHARDING.md): plan/decomposition
// semantics, bit-exactness of auto-sharded launches against frozen values
// of the retired hand-sharded front end and serial host references, halo
// exchange at radius 0/1/2, measured rebalancing under skew, shard-buffer
// pool recycling, and the dist_cg placement policies.

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <vector>

#include "core/auto_backend.hpp"
#include "core/jacc.hpp"
#include "dist/dist_cg.hpp"
#include "mem/pool.hpp"

namespace jacc {
namespace {

using jaccx::config_error;
using jaccx::usage_error;
using jaccx::mem::pool_mode;
using jaccx::mem::scoped_mode;

std::vector<double> iota_vec(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

/// Values whose sums are order-sensitive in floating point, so reduction
/// combine-order differences cannot hide.
std::vector<double> harmonic_vec(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = 1.0 / static_cast<double>(i + 1);
  }
  return v;
}

/// RAII reset of the JACC_SHARD test override.
struct shard_mode_guard {
  explicit shard_mode_guard(int mode) { detail::set_shard_mode_for_test(mode); }
  ~shard_mode_guard() { detail::set_shard_mode_for_test(-1); }
};

std::uint64_t total_pool_misses() {
  std::uint64_t m = 0;
  for (const auto& s : jaccx::mem::stats()) {
    m += s.misses;
  }
  return m;
}

// --- plan / decomposition ----------------------------------------------------

TEST(ShardPlan, EqualWeightsMatchStaticChunk) {
  device_set ds(backend::cuda_a100, 3);
  for (int d = 0; d < 3; ++d) {
    const auto got = ds.chunk(1001, d);
    const auto want = jaccx::pool::static_chunk(1001, 3, d);
    EXPECT_EQ(got.begin, want.begin) << "d=" << d;
    EXPECT_EQ(got.end, want.end) << "d=" << d;
  }
}

TEST(ShardPlan, SetWeightsReshapesBoundsAndBumpsGeneration) {
  device_set ds(backend::hip_mi100, 2);
  const auto g0 = ds.plan_generation();
  ds.set_weights({3.0, 1.0});
  EXPECT_GT(ds.plan_generation(), g0);
  EXPECT_EQ(ds.chunk(1000, 0).size(), 750);
  EXPECT_EQ(ds.chunk(1000, 1).size(), 250);
}

TEST(ShardPlan, OffModePinsEverythingToDeviceZero) {
  const shard_mode_guard off(0);
  device_set ds(backend::cuda_a100, 4);
  EXPECT_FALSE(ds.auto_shard());
  EXPECT_EQ(ds.chunk(99, 0).size(), 99);
  for (int d = 1; d < 4; ++d) {
    EXPECT_TRUE(ds.chunk(99, d).empty());
  }
  // Launches still work, just on one device.
  const index_t n = 512;
  array<double> x(sharded(ds), iota_vec(n));
  const device_set_scope scope(ds);
  parallel_for(n, [](index_t i, array<double>& xs) { xs[i] *= 2.0; }, x);
  const double s = parallel_reduce(
      n, [](index_t i, const array<double>& xs) {
        return static_cast<double>(xs[i]);
      },
      x);
  EXPECT_DOUBLE_EQ(s, static_cast<double>(n * (n - 1)));
}

TEST(ShardPlan, GarbageEnvironmentValueRejected) {
  const shard_mode_guard from_env(-1);
  ::setenv("JACC_SHARD", "sometimes", 1);
  EXPECT_THROW(device_set(backend::cuda_a100, 2), config_error);
  ::unsetenv("JACC_SHARD");
}

TEST(ShardPlan, RejectsRealBackendsAndZeroDevices) {
  EXPECT_THROW(device_set(backend::serial, 2), usage_error);
  EXPECT_THROW(device_set(backend::threads, 2), usage_error);
  EXPECT_THROW(device_set(backend::cpu_rome, 2), usage_error);
  EXPECT_THROW(device_set(backend::cuda_a100, 0), usage_error);
}

// --- bit-exactness vs the retired hand-sharded front end --------------------
// The oracles were jaccx::multi's hand-sharded launches.  AXPY is
// element-wise, so a host loop of the same expression is an exact
// replacement; the DOT partials depend on the decomposition and the
// per-device reduce engine, so their sums are frozen as literals.

class ShardVsMulti
    : public ::testing::TestWithParam<std::tuple<backend, int>> {};

TEST_P(ShardVsMulti, AxpyBitExact) {
  const auto [be, ndev] = GetParam();
  const index_t n = 10'007;
  const auto xs0 = harmonic_vec(n);
  const auto ys0 = iota_vec(n);
  std::vector<double> want(static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < want.size(); ++i) {
    want[i] = xs0[i] + 2.0 * ys0[i];
  }

  device_set ds(be, ndev);
  ds.reset_clocks();
  array<double> ax(sharded(ds), xs0);
  array<double> ay(sharded(ds), ys0);
  {
    const device_set_scope scope(ds);
    parallel_for(n,
                 [](index_t i, array<double>& x, const array<double>& y) {
                   x[i] += 2.0 * static_cast<double>(y[i]);
                 },
                 ax, ay);
    ds.sync();
  }
  const auto got = ax.to_host();
  ASSERT_EQ(got.size(), want.size());
  for (index_t i = 0; i < n; ++i) {
    // EXPECT_EQ, not NEAR: the global-index convention must reproduce the
    // old shard-local results to the bit.
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              want[static_cast<std::size_t>(i)])
        << "i=" << i;
  }
}

TEST_P(ShardVsMulti, DotBitExact) {
  const auto [be, ndev] = GetParam();
  const index_t n = 8'191;
  const auto xs0 = harmonic_vec(n);
  // jaccx::multi::parallel_reduce's sums, indexed [a100, mi100][ndev - 1].
  constexpr double frozen[2][4] = {
      {0x1.a51266053027ep+0, 0x1.a51266053027dp+0, 0x1.a51266053027ep+0,
       0x1.a51266053027ep+0},
      {0x1.a51266053027ep+0, 0x1.a51266053027dp+0, 0x1.a51266053027ep+0,
       0x1.a51266053027ep+0}};
  const double want = frozen[be == backend::cuda_a100 ? 0 : 1][ndev - 1];

  device_set ds(be, ndev);
  ds.reset_clocks();
  array<double> ax(sharded(ds), xs0);
  const device_set_scope scope(ds);
  const double got = parallel_reduce(
      n,
      [](index_t i, const array<double>& x) {
        return static_cast<double>(x[i]) * static_cast<double>(x[i]);
      },
      ax);
  // Same decomposition, same per-device reduce engine, same combine order:
  // the sums must be bit-identical even for order-sensitive values.
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsAndCounts, ShardVsMulti,
    ::testing::Combine(::testing::Values(backend::cuda_a100,
                                         backend::hip_mi100),
                       ::testing::Values(1, 2, 3, 4)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == backend::cuda_a100
                             ? "a100_d"
                             : "mi100_d") +
             std::to_string(std::get<1>(info.param));
    });

// --- 2-D / 3-D kernels and reductions vs serial references -------------------

TEST(ShardExec, TwoDGlobalIndicesMatchReference) {
  const index_t rows = 33;
  const index_t cols = 29;
  for (int ndev : {2, 3}) {
    device_set ds(backend::oneapi_max1550, ndev);
    array2d<double> a(sharded(ds), rows, cols);
    const device_set_scope scope(ds);
    parallel_for(dims2{rows, cols},
                 [](index_t i, index_t j, array2d<double>& out, index_t r) {
                   out(i, j) = static_cast<double>(i + j * r);
                 },
                 a, rows);
    ds.sync();
    const auto got = a.to_host();
    for (index_t idx = 0; idx < rows * cols; ++idx) {
      ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(idx)],
                       static_cast<double>(idx))
          << "ndev=" << ndev;
    }
  }
}

TEST(ShardExec, ThreeDGlobalIndicesMatchReference) {
  const index_t rows = 5;
  const index_t cols = 9;
  const index_t depth = 7;
  device_set ds(backend::cuda_a100, 3);
  array3d<double> a(sharded(ds), rows, cols, depth);
  const device_set_scope scope(ds);
  parallel_for(dims3{rows, cols, depth},
               [](index_t i, index_t j, index_t k, array3d<double>& out,
                  index_t r, index_t c) {
                 out(i, j, k) = static_cast<double>(i + j * r + k * r * c);
               },
               a, rows, cols);
  ds.sync();
  const auto got = a.to_host();
  for (index_t idx = 0; idx < rows * cols * depth; ++idx) {
    ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(idx)],
                     static_cast<double>(idx));
  }
}

TEST(ShardReduce, TwoDSumExact) {
  const index_t rows = 41;
  const index_t cols = 23;
  const index_t n = rows * cols;
  device_set ds(backend::cuda_a100, 4);
  array2d<double> a(sharded(ds), iota_vec(n), rows, cols);
  const device_set_scope scope(ds);
  const double s = parallel_reduce(
      dims2{rows, cols},
      [](index_t i, index_t j, const array2d<double>& v) {
        return static_cast<double>(v(i, j));
      },
      a);
  // Integer-valued doubles: every partial sum is exact in any order.
  EXPECT_DOUBLE_EQ(s, static_cast<double>(n * (n - 1) / 2));
}

TEST(ShardReduce, ThreeDSumExact) {
  const index_t rows = 7;
  const index_t cols = 5;
  const index_t depth = 6;
  const index_t n = rows * cols * depth;
  device_set ds(backend::hip_mi100, 2);
  const auto host = iota_vec(n);
  array3d<double> a(sharded(ds), host.data(), rows, cols, depth);
  const device_set_scope scope(ds);
  const double s = parallel_reduce(
      dims3{rows, cols, depth},
      [](index_t i, index_t j, index_t k, const array3d<double>& v) {
        return static_cast<double>(v(i, j, k));
      },
      a);
  EXPECT_DOUBLE_EQ(s, static_cast<double>(n * (n - 1) / 2));
}

TEST(ShardReduce, MinMaxAcrossShardBoundaries) {
  const index_t n = 4'099;
  std::vector<double> host(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    host[static_cast<std::size_t>(i)] =
        static_cast<double>((i * 37) % 101) - 50.0;
  }
  host[1234] = -999.0;
  host[4000] = 999.0;
  device_set ds(backend::cuda_a100, 4);
  array<double> a(sharded(ds), host);
  const device_set_scope scope(ds);
  const double lo = parallel_reduce_min(
      n, [](index_t i, const array<double>& v) {
        return static_cast<double>(v[i]);
      },
      a);
  const double hi = parallel_reduce_max(
      n, [](index_t i, const array<double>& v) {
        return static_cast<double>(v[i]);
      },
      a);
  EXPECT_DOUBLE_EQ(lo, -999.0);
  EXPECT_DOUBLE_EQ(hi, 999.0);
}

// --- halo exchange at radius 1 and 2 -----------------------------------------

TEST(ShardHalo, Radius1StencilMatchesSerial) {
  const index_t n = 256;
  const auto init = iota_vec(n);
  auto serial = init;
  for (int sweep = 0; sweep < 3; ++sweep) {
    auto next = serial;
    for (index_t i = 1; i + 1 < n; ++i) {
      next[static_cast<std::size_t>(i)] =
          (serial[static_cast<std::size_t>(i - 1)] +
           serial[static_cast<std::size_t>(i)] +
           serial[static_cast<std::size_t>(i + 1)]) /
          3.0;
    }
    serial = next;
  }

  for (int ndev : {2, 4}) {
    device_set ds(backend::cuda_a100, ndev);
    array<double> u(sharded(ds), init);
    array<double> next(sharded(ds), init);
    const device_set_scope scope(ds);
    for (int sweep = 0; sweep < 3; ++sweep) {
      parallel_for(hints::stencil(1), n,
                   [n](index_t i, const array<double>& us,
                       array<double>& ns) {
                     if (i == 0 || i == n - 1) {
                       ns[i] = static_cast<double>(us[i]);
                     } else {
                       ns[i] = (static_cast<double>(us[i - 1]) +
                                static_cast<double>(us[i]) +
                                static_cast<double>(us[i + 1])) /
                               3.0;
                     }
                   },
                   u, next);
      std::swap(u, next);
    }
    ds.sync();
    const auto got = u.to_host();
    for (index_t i = 0; i < n; ++i) {
      ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(i)],
                       serial[static_cast<std::size_t>(i)])
          << "ndev=" << ndev << " i=" << i;
    }
  }
}

TEST(ShardHalo, Radius2StencilAndGhostGrowth) {
  // First a radius-1 sweep (ghost sized 1), then a radius-2 sweep on the
  // same arrays: the ghosts must regrow transparently.
  const index_t n = 200;
  const auto init = iota_vec(n);
  auto serial = init;
  {
    auto next = serial;
    for (index_t i = 1; i + 1 < n; ++i) {
      next[static_cast<std::size_t>(i)] =
          (serial[static_cast<std::size_t>(i - 1)] +
           serial[static_cast<std::size_t>(i + 1)]) /
          2.0;
    }
    serial = next;
  }
  {
    auto next = serial;
    for (index_t i = 2; i + 2 < n; ++i) {
      next[static_cast<std::size_t>(i)] =
          (serial[static_cast<std::size_t>(i - 2)] +
           serial[static_cast<std::size_t>(i - 1)] +
           serial[static_cast<std::size_t>(i)] +
           serial[static_cast<std::size_t>(i + 1)] +
           serial[static_cast<std::size_t>(i + 2)]) /
          5.0;
    }
    serial = next;
  }

  device_set ds(backend::cuda_a100, 3);
  array<double> u(sharded(ds), init);
  array<double> next(sharded(ds), init);
  const device_set_scope scope(ds);
  parallel_for(hints::stencil(1), n,
               [n](index_t i, const array<double>& us, array<double>& ns) {
                 ns[i] = (i == 0 || i == n - 1)
                             ? static_cast<double>(us[i])
                             : (static_cast<double>(us[i - 1]) +
                                static_cast<double>(us[i + 1])) /
                                   2.0;
               },
               u, next);
  std::swap(u, next);
  parallel_for(hints::stencil(2), n,
               [n](index_t i, const array<double>& us, array<double>& ns) {
                 if (i < 2 || i >= n - 2) {
                   ns[i] = static_cast<double>(us[i]);
                 } else {
                   ns[i] = (static_cast<double>(us[i - 2]) +
                            static_cast<double>(us[i - 1]) +
                            static_cast<double>(us[i]) +
                            static_cast<double>(us[i + 1]) +
                            static_cast<double>(us[i + 2])) /
                           5.0;
                 }
               },
               u, next);
  std::swap(u, next);
  ds.sync();
  const auto got = u.to_host();
  for (index_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(i)],
                     serial[static_cast<std::size_t>(i)])
        << "i=" << i;
  }
}

TEST(ShardHalo, TwoDSlowDimensionStencil) {
  // Halo along the sharded (slow, j) dimension of a 2-D array.
  const index_t rows = 16;
  const index_t cols = 48;
  std::vector<double> init(static_cast<std::size_t>(rows * cols));
  std::iota(init.begin(), init.end(), 0.0);
  auto serial = init;
  for (index_t j = 1; j + 1 < cols; ++j) {
    for (index_t i = 0; i < rows; ++i) {
      const auto at = [&](index_t jj) {
        return init[static_cast<std::size_t>(i + jj * rows)];
      };
      serial[static_cast<std::size_t>(i + j * rows)] =
          (at(j - 1) + at(j) + at(j + 1)) / 3.0;
    }
  }

  device_set ds(backend::cuda_a100, 3);
  array2d<double> u(sharded(ds), init, rows, cols);
  array2d<double> out(sharded(ds), init, rows, cols);
  const device_set_scope scope(ds);
  parallel_for(hints::stencil(1), dims2{rows, cols},
               [cols](index_t i, index_t j, const array2d<double>& us,
                      array2d<double>& ns) {
                 if (j == 0 || j == cols - 1) {
                   ns(i, j) = static_cast<double>(us(i, j));
                 } else {
                   ns(i, j) = (static_cast<double>(us(i, j - 1)) +
                               static_cast<double>(us(i, j)) +
                               static_cast<double>(us(i, j + 1))) /
                              3.0;
                 }
               },
               u, out);
  ds.sync();
  const auto got = out.to_host();
  for (index_t idx = 0; idx < rows * cols; ++idx) {
    ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(idx)],
                     serial[static_cast<std::size_t>(idx)])
        << "idx=" << idx;
  }
}

TEST(ShardHalo, StencilReductionReadsGhosts) {
  const index_t n = 300;
  const auto init = iota_vec(n);
  double want = 0.0;
  for (index_t i = 1; i + 1 < n; ++i) {
    want += init[static_cast<std::size_t>(i + 1)] -
            init[static_cast<std::size_t>(i - 1)];
  }
  device_set ds(backend::cuda_a100, 4);
  array<double> u(sharded(ds), init);
  const device_set_scope scope(ds);
  const double got = parallel_reduce(
      hints::stencil(1), n,
      [n](index_t i, const array<double>& us) {
        if (i == 0 || i == n - 1) {
          return 0.0;
        }
        return static_cast<double>(us[i + 1]) -
               static_cast<double>(us[i - 1]);
      },
      u);
  EXPECT_DOUBLE_EQ(got, want);
}

// --- measured rebalance under skew -------------------------------------------

TEST(ShardRebalance, SkewShiftsWeightsAndKeepsValuesExact) {
  const index_t n = 1 << 14;
  device_set ds(backend::cuda_a100, 2);
  ds.set_slowdown(0, 2.0);
  array<double> x(sharded(ds), std::vector<double>(
                                   static_cast<std::size_t>(n), 1.0));
  array<double> y(sharded(ds), iota_vec(n));
  const device_set_scope scope(ds);
  const int launches = 4;
  for (int k = 0; k < launches; ++k) {
    parallel_for(n,
                 [](index_t i, array<double>& xs, const array<double>& ys) {
                   xs[i] += 2.0 * static_cast<double>(ys[i]);
                 },
                 x, y);
  }
  ds.sync();
  // The 2x-slow device 0 must have been measured slower and given the
  // smaller share.
  EXPECT_GT(ds.rate(1), ds.rate(0));
  EXPECT_LT(ds.weights()[0], ds.weights()[1]);
  EXPECT_LT(ds.chunk(n, 0).size(), n / 2);
  // Resharding moved cells between devices; every value must survive.
  const auto got = x.to_host();
  for (index_t i = 0; i < n; ++i) {
    ASSERT_DOUBLE_EQ(got[static_cast<std::size_t>(i)],
                     1.0 + 2.0 * launches * static_cast<double>(i))
        << "i=" << i;
  }
}

TEST(ShardRebalance, ManualWeightsDisableRebalance) {
  const index_t n = 1 << 12;
  device_set ds(backend::cuda_a100, 2);
  ds.set_weights({0.5, 0.5});
  ds.set_slowdown(0, 4.0);
  array<double> x(sharded(ds), iota_vec(n));
  const device_set_scope scope(ds);
  for (int k = 0; k < 3; ++k) {
    parallel_for(n, [](index_t i, array<double>& xs) { xs[i] += 1.0; }, x);
  }
  ds.sync();
  EXPECT_DOUBLE_EQ(ds.weights()[0], 0.5);
  EXPECT_DOUBLE_EQ(ds.weights()[1], 0.5);
}

// --- shard buffers ride the mem pool -----------------------------------------

TEST(ShardPool, AutoShardPiecesRecycleSteadyState) {
  const scoped_mode pooled(pool_mode::bucket);
  const index_t n = 8192;
  device_set ds(backend::cuda_a100, 4);
  {
    array<double> warm(sharded(ds), iota_vec(n));
    const device_set_scope scope(ds);
    parallel_for(n, [](index_t i, array<double>& v) { v[i] += 1.0; }, warm);
    ds.sync();
  }
  const std::uint64_t misses_before = total_pool_misses();
  {
    array<double> again(sharded(ds), iota_vec(n));
    const device_set_scope scope(ds);
    parallel_for(n, [](index_t i, array<double>& v) { v[i] += 1.0; }, again);
    ds.sync();
  }
  EXPECT_EQ(total_pool_misses(), misses_before);
  jaccx::mem::drain();
}

// --- dist_cg placement policies ----------------------------------------------

TEST(DistPlacement, RoundRobinMatchesStaticChunk) {
  jaccx::dist::communicator comm(4, "a100");
  jaccx::dist::tridiag_cg solver(comm, 1000);
  for (int r = 0; r < 4; ++r) {
    const auto got = solver.rows_of(r);
    const auto want = jaccx::pool::static_chunk(1000, 4, r);
    EXPECT_EQ(got.begin, want.begin) << "r=" << r;
    EXPECT_EQ(got.end, want.end) << "r=" << r;
  }
}

TEST(DistPlacement, ColdMeasuredRegistryReproducesRoundRobin) {
  clear_achieved_rates();
  jaccx::dist::communicator comm(3, "a100");
  jaccx::dist::tridiag_cg solver(comm, 997,
                                 jaccx::dist::placement::measured());
  for (int r = 0; r < 3; ++r) {
    const auto want = jaccx::pool::static_chunk(997, 3, r);
    EXPECT_EQ(solver.rows_of(r).begin, want.begin) << "r=" << r;
    EXPECT_EQ(solver.rows_of(r).end, want.end) << "r=" << r;
  }
}

TEST(DistPlacement, MeasuredRatesShiftRowsAndSolverStillConverges) {
  clear_achieved_rates();
  note_achieved_rate("a100#0", 40.0, 0.0);
  note_achieved_rate("a100#1", 10.0, 0.0);
  jaccx::dist::communicator comm(2, "a100");
  jaccx::dist::tridiag_cg solver(comm, 1000,
                                 jaccx::dist::placement::measured());
  EXPECT_EQ(solver.rows_of(0).size(), 800);
  EXPECT_EQ(solver.rows_of(1).size(), 200);

  const index_t n = solver.size();
  std::vector<double> b(static_cast<std::size_t>(n), 1.0);
  std::vector<double> x;
  const auto res = solver.solve(b, x);
  EXPECT_TRUE(res.converged);
  // Residual check against the tridiagonal A = [1 4 1].
  for (index_t i = 0; i < n; ++i) {
    const double left = i > 0 ? x[static_cast<std::size_t>(i - 1)] : 0.0;
    const double right = i + 1 < n ? x[static_cast<std::size_t>(i + 1)] : 0.0;
    EXPECT_NEAR(4.0 * x[static_cast<std::size_t>(i)] + left + right, 1.0,
                1e-8);
  }
  clear_achieved_rates();
}

// --- error paths -------------------------------------------------------------

TEST(ShardErrors, UnshardedArrayInScopeRejected) {
  device_set ds(backend::cuda_a100, 2);
  array<double> plain(16);
  const device_set_scope scope(ds);
  EXPECT_THROW(
      parallel_for(16, [](index_t i, array<double>& v) { v[i] = 1.0; },
                   plain),
      usage_error);
}

TEST(ShardErrors, ArrayFromForeignSetRejected) {
  device_set ds1(backend::cuda_a100, 2);
  device_set ds2(backend::cuda_a100, 2);
  array<double> a(sharded(ds1), 64);
  const device_set_scope scope(ds2);
  EXPECT_THROW(
      parallel_for(64, [](index_t i, array<double>& v) { v[i] = 1.0; }, a),
      usage_error);
}

} // namespace
} // namespace jacc
