// Multi-device behaviour of jacc::device_set and sharded arrays (paper
// Sec. VII future work): device instances, decomposition, scatter/gather,
// global-index launches and reductions over 1..8 devices, halo exchange on
// the shard streams, and the overlapping-clock timing semantics.
#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "core/jacc.hpp"
#include "sim/device.hpp"

namespace jacc {
namespace {

using jaccx::usage_error;

std::vector<double> iota_vec(index_t n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 0.0);
  return v;
}

/// Events on `tl` whose name mentions `what` (transfers are recorded as
/// "d2h <name>" / "h2d <name>").
int count_events(const jaccx::sim::timeline& tl, const std::string& what) {
  int c = 0;
  for (const auto& e : tl.events()) {
    c += e.name.find(what) != std::string::npos ? 1 : 0;
  }
  return c;
}

TEST(MultiContext, RejectsRealAndCpuBackends) {
  EXPECT_THROW(device_set(backend::threads, 2), usage_error);
  EXPECT_THROW(device_set(backend::serial, 2), usage_error);
  EXPECT_THROW(device_set(backend::cpu_rome, 2), usage_error);
  EXPECT_THROW(device_set(backend::cuda_a100, 0), usage_error);
}

TEST(MultiContext, DeviceInstancesAreDistinctPeers) {
  device_set ds(backend::cuda_a100, 3);
  EXPECT_EQ(ds.devices(), 3);
  EXPECT_NE(&ds.dev(0), &ds.dev(1));
  EXPECT_NE(&ds.dev(1), &ds.dev(2));
  EXPECT_EQ(ds.dev(0).model().name, "a100");
  EXPECT_EQ(ds.dev(2).model().name, "a100");
  // Index 0 is the shared single-device instance.
  EXPECT_EQ(&ds.dev(0), &jaccx::sim::get_device("a100"));
}

class MultiSharding : public ::testing::TestWithParam<int> {};

TEST_P(MultiSharding, ShardRangesTileTheArray) {
  device_set ds(backend::hip_mi100, GetParam());
  index_t prev_end = 0;
  for (int d = 0; d < ds.devices(); ++d) {
    const auto r = ds.chunk(1001, d);
    EXPECT_EQ(r.begin, prev_end);
    prev_end = r.end;
  }
  EXPECT_EQ(prev_end, 1001);
}

TEST_P(MultiSharding, ScatterGatherRoundTrip) {
  device_set ds(backend::cuda_a100, GetParam());
  const auto host = iota_vec(777);
  const array<double> a(sharded(ds), host);
  EXPECT_EQ(a.to_host(), host);
}

TEST_P(MultiSharding, AxpyMatchesSingleDeviceResult) {
  device_set ds(backend::cuda_a100, GetParam());
  const index_t n = 10'000;
  array<double> x(sharded(ds),
                  std::vector<double>(static_cast<std::size_t>(n), 1.0));
  array<double> y(sharded(ds), iota_vec(n));
  {
    const device_set_scope scope(ds);
    parallel_for(n,
                 [](index_t i, array<double>& xs, const array<double>& ys) {
                   xs[i] += 2.0 * static_cast<double>(ys[i]);
                 },
                 x, y);
    ds.sync();
  }
  // Element g held y = g, so x must be 1 + 2g for every device count.
  const auto out = x.to_host();
  for (index_t g = 0; g < n; ++g) {
    ASSERT_DOUBLE_EQ(out[static_cast<std::size_t>(g)],
                     1.0 + 2.0 * static_cast<double>(g));
  }
}

TEST_P(MultiSharding, ReduceMatchesHostSum) {
  device_set ds(backend::oneapi_max1550, GetParam());
  const index_t n = 4097;
  const auto host = iota_vec(n);
  const array<double> x(sharded(ds), host);
  const device_set_scope scope(ds);
  const double got = parallel_reduce(
      n, [](index_t i, const array<double>& xs) {
        return static_cast<double>(xs[i]);
      },
      x);
  EXPECT_DOUBLE_EQ(got, std::accumulate(host.begin(), host.end(), 0.0));
}

INSTANTIATE_TEST_SUITE_P(DeviceCounts, MultiSharding,
                         ::testing::Values(1, 2, 3, 4, 8),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

/// out[i] = in[i - r] + in[i + r] (0 outside the domain) under a radius-r
/// stencil launch on `ndev` devices.
std::vector<double> reach_sum(int ndev, index_t n, index_t r) {
  device_set ds(backend::cuda_a100, ndev);
  ds.reset_clocks();
  const array<double> in(sharded(ds), iota_vec(n));
  array<double> out(sharded(ds), n);
  const device_set_scope scope(ds);
  parallel_for(hints::stencil(r), n,
               [n, r](index_t i, const array<double>& a, array<double>& b) {
                 b[i] = (i >= r ? static_cast<double>(a[i - r]) : 0.0) +
                        (i + r < n ? static_cast<double>(a[i + r]) : 0.0);
               },
               in, out);
  ds.sync();
  return out.to_host();
}

TEST(MultiHalo, ExchangeMovesBoundaryCells) {
  // Shard 0 owns [0, 5), shard 1 owns [5, 10): every read two cells
  // across the boundary is a ghost the exchange must have delivered.
  const auto got = reach_sum(2, 10, 2);
  for (index_t i = 0; i < 10; ++i) {
    const double want = (i >= 2 ? static_cast<double>(i - 2) : 0.0) +
                        (i + 2 < 10 ? static_cast<double>(i + 2) : 0.0);
    EXPECT_DOUBLE_EQ(got[static_cast<std::size_t>(i)], want) << "i=" << i;
  }
}

TEST(MultiHalo, AsyncExchangeMovesTheSameCellsOnShardStreams) {
  // Data identical on one and three devices...
  EXPECT_EQ(reach_sum(3, 12, 1), reach_sum(1, 12, 1));
  // ...and the halo charges land on the shard streams, not the device
  // clocks; sync() folds the streams back.
  device_set ds(backend::cuda_a100, 3);
  const array<double> in(sharded(ds), iota_vec(12));
  array<double> out(sharded(ds), 12);
  ds.reset_clocks();
  {
    const device_set_scope scope(ds);
    parallel_for(hints::stencil(1), 12,
                 [](index_t i, const array<double>& a, array<double>& b) {
                   b[i] = static_cast<double>(a[i > 0 ? i - 1 : i]);
                 },
                 in, out);
  }
  EXPECT_GT(count_events(ds.shard_stream(0).tl(), "shard.halo"), 0);
  EXPECT_EQ(count_events(ds.dev(0).tl(), "shard.halo"), 0);
  EXPECT_GT(ds.shard_stream(0).now_us(), 0.0);
  ds.sync();
  EXPECT_GE(ds.dev(0).tl().now_us(), ds.shard_stream(0).now_us());
  ds.reset_clocks();
}

TEST(MultiHalo, ShardStreamsAreLabeledPerShard) {
  device_set ds(backend::cuda_a100, 2);
  ds.reset_clocks();
  EXPECT_EQ(ds.shard_stream(0).tl().label(), "a100.shard0");
  EXPECT_EQ(ds.shard_stream(1).tl().label(), "a100.shard1");
  ds.reset_clocks();
}

TEST(MultiHalo, StencilAcrossShardsMatchesSerial) {
  // Three sweeps of a 3-point smoother: 2 and 4 devices reproduce the
  // single-device run bit for bit (ShardHalo.* checks it against a host
  // loop).
  const auto run = [](int ndev) {
    const index_t n = 256;
    device_set ds(backend::cuda_a100, ndev);
    array<double> u(sharded(ds), iota_vec(n));
    array<double> next(sharded(ds), iota_vec(n));
    const device_set_scope scope(ds);
    for (int sweep = 0; sweep < 3; ++sweep) {
      parallel_for(hints::stencil(1), n,
                   [n](index_t i, const array<double>& us,
                       array<double>& ns) {
                     ns[i] = i == 0 || i == n - 1
                                 ? static_cast<double>(us[i])
                                 : (static_cast<double>(us[i - 1]) +
                                    static_cast<double>(us[i]) +
                                    static_cast<double>(us[i + 1])) /
                                       3.0;
                   },
                   u, next);
      std::swap(u, next);
    }
    ds.sync();
    return u.to_host();
  };
  const auto one = run(1);
  EXPECT_EQ(run(2), one);
  EXPECT_EQ(run(4), one);
}

TEST(MultiTiming, DevicesOverlap) {
  // The same total work on 1 vs 4 devices must take ~1/4 the wall time
  // (bandwidth-bound region, one kernel per device, clocks overlap).
  const index_t n = 1 << 20;
  auto run = [&](int ndev) {
    device_set ds(backend::cuda_a100, ndev);
    array<double> x(sharded(ds),
                    std::vector<double>(static_cast<std::size_t>(n), 1.0));
    const array<double> y(sharded(ds),
                          std::vector<double>(static_cast<std::size_t>(n),
                                              2.0));
    ds.reset_clocks(); // exclude the scatter
    const device_set_scope scope(ds);
    parallel_for(n,
                 [](index_t i, array<double>& xs, const array<double>& ys) {
                   xs[i] += 2.0 * static_cast<double>(ys[i]);
                 },
                 x, y);
    return ds.sync();
  };
  const double t1 = run(1);
  const double t4 = run(4);
  EXPECT_LT(t4, t1 / 2.0);
  EXPECT_GT(t4, t1 / 8.0); // launch overheads keep it from perfect scaling
}

TEST(MultiTiming, SyncAlignsClocks) {
  device_set ds(backend::hip_mi100, 2);
  ds.reset_clocks();
  // Unbalanced explicit work on device 0 only.
  ds.dev(0).charge_h2d(1 << 20, "skew");
  EXPECT_GT(ds.dev(0).tl().now_us(), ds.dev(1).tl().now_us());
  const double t = ds.sync();
  EXPECT_DOUBLE_EQ(ds.dev(0).tl().now_us(), t);
  EXPECT_DOUBLE_EQ(ds.dev(1).tl().now_us(), t);
}

TEST(MultiArray, EmptyAndTinyArrays) {
  device_set ds(backend::cuda_a100, 4);
  const array<double> empty(sharded(ds), index_t{0});
  EXPECT_TRUE(empty.to_host().empty());
  // Fewer elements than devices: trailing chunks are empty.
  const array<double> tiny(sharded(ds), std::vector<double>{1.0, 2.0});
  EXPECT_EQ(ds.chunk(2, 0).size(), 1);
  EXPECT_EQ(ds.chunk(2, 3).size(), 0);
  EXPECT_EQ(tiny.to_host(), (std::vector<double>{1.0, 2.0}));
  const device_set_scope scope(ds);
  const double s = parallel_reduce(
      2, [](index_t i, const array<double>& xs) {
        return static_cast<double>(xs[i]);
      },
      tiny);
  EXPECT_DOUBLE_EQ(s, 3.0);
}

} // namespace
} // namespace jacc
