// Correctness tests for jacc::parallel_for on every back end: the same
// kernel source must produce identical results everywhere (the paper's core
// portability claim).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <mutex>
#include <numeric>
#include <ostream>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "sim/device.hpp"

namespace jacc {
namespace {

// Paper-style kernels: free functions, index first, parameters after.
void axpy_kernel(index_t i, double alpha, array<double>& x,
                 const array<double>& y) {
  x[i] += alpha * static_cast<double>(y[i]);
}

void scale2d_kernel(index_t i, index_t j, double s, array2d<double>& a) {
  a(i, j) *= s;
}

void ident3d_kernel(index_t i, index_t j, index_t k, array3d<double>& a,
                    index_t rows, index_t cols) {
  a(i, j, k) = static_cast<double>(i + rows * (j + cols * k));
}

class ParallelForAllBackends : public ::testing::TestWithParam<backend> {
protected:
  void SetUp() override { set_backend(GetParam()); }
  void TearDown() override { set_backend(backend::threads); }
};

TEST_P(ParallelForAllBackends, Axpy1D) {
  const index_t n = 1000;
  std::vector<double> xs(static_cast<std::size_t>(n), 1.0);
  std::vector<double> ys(static_cast<std::size_t>(n));
  std::iota(ys.begin(), ys.end(), 0.0);
  array<double> x(xs), y(ys);
  parallel_for(n, axpy_kernel, 2.0, x, y);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(x.host_data()[i], 1.0 + 2.0 * static_cast<double>(i));
  }
}

TEST_P(ParallelForAllBackends, LambdaKernel) {
  const index_t n = 257; // deliberately not a multiple of any block size
  array<double> a(n);
  parallel_for(n, [](index_t i, array<double>& out) {
    out[i] = static_cast<double>(i * i);
  }, a);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(a.host_data()[i], static_cast<double>(i * i));
  }
}

TEST_P(ParallelForAllBackends, SizeOne) {
  array<double> a(1);
  parallel_for(1, [](index_t i, array<double>& out) { out[i] = 5.0; }, a);
  EXPECT_DOUBLE_EQ(a.host_data()[0], 5.0);
}

TEST_P(ParallelForAllBackends, SizeZeroIsNoop) {
  array<double> a(4);
  parallel_for(0, [](index_t, array<double>& out) { out[0] = 1.0; }, a);
  EXPECT_DOUBLE_EQ(a.host_data()[0], 0.0);
}

TEST_P(ParallelForAllBackends, TwoD) {
  const index_t rows = 33;
  const index_t cols = 17; // not multiples of the 16x16 GPU tile
  std::vector<double> host(static_cast<std::size_t>(rows * cols), 2.0);
  array2d<double> a(host, rows, cols);
  parallel_for(dims2{rows, cols}, scale2d_kernel, 3.0, a);
  for (index_t idx = 0; idx < rows * cols; ++idx) {
    EXPECT_DOUBLE_EQ(a.host_data()[idx], 6.0);
  }
}

TEST_P(ParallelForAllBackends, TwoDIndexIdentity) {
  const index_t rows = 8;
  const index_t cols = 5;
  array2d<double> a(rows, cols);
  parallel_for(dims2{rows, cols},
               [](index_t i, index_t j, array2d<double>& out, index_t r) {
                 out(i, j) = static_cast<double>(i + j * r);
               },
               a, rows);
  for (index_t idx = 0; idx < rows * cols; ++idx) {
    EXPECT_DOUBLE_EQ(a.host_data()[idx], static_cast<double>(idx));
  }
}

TEST_P(ParallelForAllBackends, ThreeD) {
  const index_t rows = 5;
  const index_t cols = 9;
  const index_t depth = 7; // exercise non-divisible 8x8x4 tiles
  array3d<double> a(rows, cols, depth);
  parallel_for(dims3{rows, cols, depth}, ident3d_kernel, a, rows, cols);
  for (index_t idx = 0; idx < rows * cols * depth; ++idx) {
    EXPECT_DOUBLE_EQ(a.host_data()[idx], static_cast<double>(idx));
  }
}

TEST_P(ParallelForAllBackends, ChainedConstructsCompose) {
  const index_t n = 128;
  array<double> a(n);
  parallel_for(n, [](index_t i, array<double>& v) {
    v[i] = static_cast<double>(i);
  }, a);
  parallel_for(n, [](index_t i, array<double>& v) { v[i] *= 2.0; }, a);
  parallel_for(n, [](index_t i, array<double>& v) { v[i] += 1.0; }, a);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_DOUBLE_EQ(a.host_data()[i], 2.0 * static_cast<double>(i) + 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, ParallelForAllBackends,
                         ::testing::ValuesIn(all_backends),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

// Property-style sweep: results must be identical (bitwise, for parallel_for
// — no reduction reordering is involved) across every backend and size.
class ParallelForAgreement
    : public ::testing::TestWithParam<std::tuple<backend, index_t>> {};

TEST_P(ParallelForAgreement, MatchesSerialBitwise) {
  const auto [b, n] = GetParam();
  std::vector<double> init(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    init[static_cast<std::size_t>(i)] =
        std::sin(0.37 * static_cast<double>(i));
  }
  auto body = [](index_t i, array<double>& v) {
    v[i] = std::fma(static_cast<double>(v[i]), 1.0000001, 0.25);
  };

  set_backend(backend::serial);
  array<double> ref(init);
  parallel_for(n, body, ref);

  set_backend(b);
  array<double> got(init);
  parallel_for(n, body, got);
  set_backend(backend::threads);

  for (index_t i = 0; i < n; ++i) {
    ASSERT_EQ(got.host_data()[i], ref.host_data()[i]) << "i=" << i;
  }
}

// Regression tests for the threads decomposition when the slow dimension is
// narrower than the pool: the seed serialized dims2{big, 2} onto two of N
// workers.  These drive the detail helpers with an explicit 4-wide pool so
// they are meaningful regardless of this machine's core count or the
// default pool's width.

TEST(ThreadsDecomposition, WideShort2DUsesAllWorkers) {
  jaccx::pool::thread_pool p(4);
  // Static chunking so "every worker gets a chunk" is deterministic even
  // when JACC_SCHEDULE=dynamic is exported into the test run.
  p.set_schedule({jaccx::pool::schedule_kind::static_chunks, 0});
  const index_t rows = 1'000'000;
  const index_t cols = 2;

  std::atomic<long> checksum{0};
  std::mutex m;
  std::set<std::thread::id> participants;
  detail::threads_for_2d(p, dims2{rows, cols}, [&](index_t i, index_t j) {
    checksum.fetch_add(i + j * rows, std::memory_order_relaxed);
    if ((i & 8191) == 0) {
      std::lock_guard<std::mutex> lock(m);
      participants.insert(std::this_thread::get_id());
    }
  });

  // Exact coverage: sum over the flattened space of its own linear index.
  const long total = rows * cols;
  EXPECT_EQ(checksum.load(), total * (total - 1) / 2);
  // All four workers observe work (each owns a quarter of the flattened
  // space, which spans many multiples of the sampling stride).
  EXPECT_EQ(participants.size(), 4u);
}

TEST(ThreadsDecomposition, WideShort3DUsesAllWorkers) {
  jaccx::pool::thread_pool p(4);
  p.set_schedule({jaccx::pool::schedule_kind::static_chunks, 0});
  const dims3 d{100'000, 2, 2};

  std::atomic<long> checksum{0};
  std::mutex m;
  std::set<std::thread::id> participants;
  detail::threads_for_3d(p, d, [&](index_t i, index_t j, index_t k) {
    checksum.fetch_add(i + d.rows * (j + d.cols * k),
                       std::memory_order_relaxed);
    if ((i & 4095) == 0) {
      std::lock_guard<std::mutex> lock(m);
      participants.insert(std::this_thread::get_id());
    }
  });

  const long total = d.rows * d.cols * d.depth;
  EXPECT_EQ(checksum.load(), total * (total - 1) / 2);
  EXPECT_EQ(participants.size(), 4u);
}

TEST(ThreadsDecomposition, FullyFlattened3DCoversEveryCell) {
  // depth < width and cols*depth < width forces the fully-flattened path.
  jaccx::pool::thread_pool p(8);
  const dims3 d{1000, 2, 2};
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(d.rows * d.cols * d.depth));
  detail::threads_for_3d(p, d, [&](index_t i, index_t j, index_t k) {
    hits[static_cast<std::size_t>(i + d.rows * (j + d.cols * k))].fetch_add(
        1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadsDecomposition, TiledMatchesColumnwise2D) {
  // The same kernel through a 4-wide pool (tiled, cols < width) and a
  // 1-wide pool (columnwise) must write identical arrays.
  const index_t rows = 4097;
  const index_t cols = 3;
  std::vector<double> tiled(static_cast<std::size_t>(rows * cols));
  std::vector<double> columnwise(tiled.size());

  jaccx::pool::thread_pool wide(4);
  detail::threads_for_2d(wide, dims2{rows, cols}, [&](index_t i, index_t j) {
    tiled[static_cast<std::size_t>(i + j * rows)] =
        std::sin(0.1 * static_cast<double>(i)) + static_cast<double>(j);
  });
  jaccx::pool::thread_pool narrow(1);
  detail::threads_for_2d(narrow, dims2{rows, cols},
                         [&](index_t i, index_t j) {
    columnwise[static_cast<std::size_t>(i + j * rows)] =
        std::sin(0.1 * static_cast<double>(i)) + static_cast<double>(j);
  });
  EXPECT_EQ(tiled, columnwise);
}

TEST(ThreadsDecomposition, DynamicScheduleCovers2D) {
  jaccx::pool::thread_pool p(4);
  p.set_schedule({jaccx::pool::schedule_kind::dynamic_chunks, 16});
  const dims2 d{512, 2};
  std::vector<std::atomic<int>> hits(
      static_cast<std::size_t>(d.rows * d.cols));
  detail::threads_for_2d(p, d, [&](index_t i, index_t j) {
    hits[static_cast<std::size_t>(i + j * d.rows)].fetch_add(
        1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParallelForAgreement,
    ::testing::Combine(::testing::ValuesIn(all_backends),
                       ::testing::Values<index_t>(1, 2, 255, 256, 257, 4096,
                                                  10'000)),
    [](const auto& info) {
      return std::string(jacc::to_string(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

// --- per-rank simulated charges, pinned ----------------------------------------
// One warmed 2-D and 3-D parallel_for + parallel_reduce pair on cuda_a100
// and cpu_rome: the device clock, the summed DRAM/cache bytes, indices and
// blocks of every event, the event names and the reduced value, as
// literals.  Launch shapes, visit order, the linearized reduction order
// and every charge name show up here bit for bit.

struct rank_charges {
  double now_us = 0.0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t cache_bytes = 0;
  std::uint64_t indices = 0;
  std::uint64_t blocks = 0;
  std::string events;
  double sum = 0.0;
};

std::ostream& operator<<(std::ostream& os, const rank_charges& c) {
  return os << std::hexfloat << "{" << c.now_us << ", " << c.dram_bytes
            << ", " << c.cache_bytes << ", " << c.indices << ", " << c.blocks
            << ", \"" << c.events << "\", " << c.sum << "}"
            << std::defaultfloat;
}

/// Runs `step` (a for + reduce pair returning the sum) twice — the first
/// warms the pooled reduce workspace and the cache model — and records the
/// second run's charges.
template <class Step>
rank_charges measure_charges(backend be, const Step& step) {
  auto& dev = *backend_device(be);
  step();
  dev.reset_clock();
  rank_charges c;
  c.sum = step();
  c.now_us = dev.tl().now_us();
  for (const auto& e : dev.tl().events()) {
    c.dram_bytes += e.tally.dram_bytes;
    c.cache_bytes += e.tally.cache_bytes;
    c.indices += e.tally.indices;
    c.blocks += e.tally.blocks;
    c.events += e.name + ";";
  }
  return c;
}

rank_charges charges_2d(backend be) {
  const jaccx::mem::scoped_mode pooled(jaccx::mem::pool_mode::bucket);
  const scoped_backend sb(be);
  const index_t rows = 37;
  const index_t cols = 29; // not multiples of the 16x16 block
  array2d<double> a(rows, cols);
  return measure_charges(be, [&] {
    parallel_for(dims2{rows, cols},
                 [](index_t i, index_t j, array2d<double>& x) {
                   x(i, j) += 1.0 / static_cast<double>(1 + i + 3 * j);
                 },
                 a);
    return parallel_reduce(dims2{rows, cols},
                           [](index_t i, index_t j, const array2d<double>& x) {
                             return static_cast<double>(x(i, j));
                           },
                           a);
  });
}

rank_charges charges_3d(backend be) {
  const jaccx::mem::scoped_mode pooled(jaccx::mem::pool_mode::bucket);
  const scoped_backend sb(be);
  const index_t rows = 13;
  const index_t cols = 11;
  const index_t depth = 9; // not multiples of the 8x8x4 block
  array3d<double> a(rows, cols, depth);
  return measure_charges(be, [&] {
    parallel_for(dims3{rows, cols, depth},
                 [](index_t i, index_t j, index_t k, array3d<double>& x) {
                   x(i, j, k) +=
                       1.0 / static_cast<double>(1 + i + 3 * j + 7 * k);
                 },
                 a);
    return parallel_reduce(
        dims3{rows, cols, depth},
        [](index_t i, index_t j, index_t k, const array3d<double>& x) {
          return static_cast<double>(x(i, j, k));
        },
        a);
  });
}

void expect_charges(const rank_charges& got, const rank_charges& want) {
  EXPECT_EQ(got.now_us, want.now_us) << got;
  EXPECT_EQ(got.dram_bytes, want.dram_bytes) << got;
  EXPECT_EQ(got.cache_bytes, want.cache_bytes) << got;
  EXPECT_EQ(got.indices, want.indices) << got;
  EXPECT_EQ(got.blocks, want.blocks) << got;
  EXPECT_EQ(got.events, want.events) << got;
  EXPECT_EQ(got.sum, want.sum) << got;
}

TEST(RankCharges, TwoDOnA100) {
  expect_charges(charges_2d(backend::cuda_a100),
                 {0x1.c06b56fd5e19ep+4, 8, 25808, 3584, 10,
                  "jacc.parallel_for;jacc.parallel_reduce2d;"
                  "jacc.parallel_reduce2d;d2h jacc.reduce.d2h;",
                  0x1.a962f3ab13c96p+5});
}

TEST(RankCharges, ThreeDOnA100) {
  expect_charges(charges_3d(backend::cuda_a100),
                 {0x1.c09f2188c0718p+4, 8, 30944, 5120, 16,
                  "jacc.parallel_for;jacc.parallel_reduce3d;"
                  "jacc.parallel_reduce3d;d2h jacc.reduce.d2h;",
                  0x1.1d51249eea1d6p+6});
}

TEST(RankCharges, TwoDOnRome) {
  expect_charges(charges_2d(backend::cpu_rome),
                 {0x1.c62ff5c6c11a2p+5, 0, 25752, 2146, 93,
                  "jacc.parallel_for;jacc.parallel_reduce2d;",
                  0x1.a962f3ab13c9dp+5});
}

TEST(RankCharges, ThreeDOnRome) {
  expect_charges(charges_3d(backend::cpu_rome),
                 {0x1.ccfd5f56a7ac8p+5, 0, 30888, 2574, 73,
                  "jacc.parallel_for;jacc.parallel_reduce3d;",
                  0x1.1d51249eea1dcp+6});
}

} // namespace
} // namespace jacc
