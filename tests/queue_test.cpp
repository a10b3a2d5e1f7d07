// Tests for jacc::queue / jacc::event: default-queue equivalence with the
// synchronous model, per-queue sim streams and their overlap, cross-queue
// event ordering, stream-ordered memory-pool reuse, and the threads-backend
// async lanes (also the TSan stress target; see scripts/verify.sh).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "sim/device.hpp"

namespace jacc {
namespace {

void axpy(index_t i, double alpha, const array<double>& x, array<double>& y) {
  y[i] = y[i] + alpha * x[i];
}

double dot_term(index_t i, const array<double>& x, const array<double>& y) {
  return x[i] * y[i];
}

std::vector<double> iota_vec(index_t n, double start) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] = start + static_cast<double>(i);
  }
  return v;
}

class QueueTest : public ::testing::Test {
protected:
  void SetUp() override { saved_ = current_backend(); }
  void TearDown() override { set_backend(saved_); }
  backend saved_ = backend::threads;
};

// --- default-queue == synchronous model -------------------------------------

TEST_F(QueueTest, DefaultQueueIsIdZero) {
  EXPECT_EQ(queue::default_queue().id(), 0u);
  EXPECT_TRUE(queue::default_queue().is_default());
  queue q;
  EXPECT_GE(q.id(), 1u);
  EXPECT_FALSE(q.is_default());
}

TEST_F(QueueTest, DefaultQueueBitExactWithSyncCall) {
  set_backend(backend::threads);
  const index_t n = 10'000;
  const auto hx = iota_vec(n, 1.0);
  const auto hy = iota_vec(n, 0.5);

  array<double> x1(hx), y1(hy);
  parallel_for(n, axpy, 2.0, x1, y1);

  array<double> x2(hx), y2(hy);
  const event e = parallel_for(queue::default_queue(), n, axpy, 2.0, x2, y2);
  EXPECT_TRUE(e.complete());
  EXPECT_FALSE(e.valid()); // sync model: no shared state minted

  EXPECT_EQ(y1.to_host(), y2.to_host()); // bit-exact
}

TEST_F(QueueTest, DefaultQueueSimChargesMatchSyncCharges) {
  // The acceptance bar: a default-queue run reproduces the seed's simulated
  // time bit-for-bit.  Run under JACC_MEM_POOL=none in verify.sh too.
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  const index_t n = 1 << 16;
  const auto hx = iota_vec(n, 1.0);

  // Warm the mem pool so both measured runs see identical hit patterns.
  {
    array<double> x(hx), y(hx);
    parallel_for(n, axpy, 2.0, x, y);
  }

  dev.reset_clock();
  {
    array<double> x(hx), y(hx);
    parallel_for(n, axpy, 2.0, x, y);
    std::vector<double> out(static_cast<std::size_t>(n));
    y.copy_to_host(out.data());
  }
  const double sync_us = dev.tl().now_us();

  dev.reset_clock();
  {
    queue& q0 = queue::default_queue();
    array<double> x(hx), y(hx);
    parallel_for(q0, n, axpy, 2.0, x, y);
    std::vector<double> out(static_cast<std::size_t>(n));
    y.copy_to_host(q0, out.data());
  }
  const double queued_us = dev.tl().now_us();

  EXPECT_DOUBLE_EQ(sync_us, queued_us);
  dev.reset_clock();
}

TEST_F(QueueTest, DefaultQueueReduceMatchesSyncReduce) {
  set_backend(backend::threads);
  const index_t n = 4096;
  array<double> x(iota_vec(n, 1.0)), y(iota_vec(n, 2.0));
  const double direct = parallel_reduce(n, dot_term, x, y);
  const double queued =
      parallel_reduce(queue::default_queue(), n, dot_term, x, y);
  EXPECT_DOUBLE_EQ(direct, queued);
}

// --- simulated back ends: per-queue streams ---------------------------------

TEST_F(QueueTest, UserQueueChargesLandOnItsStreamNotTheDeviceClock) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  array<double> x(iota_vec(1 << 14, 1.0)), y(iota_vec(1 << 14, 0.0));
  const double dev_before = dev.tl().now_us();

  queue q;
  const event e = parallel_for(q, 1 << 14, axpy, 3.0, x, y);
  EXPECT_TRUE(e.complete()); // sim ops execute functionally at enqueue
  EXPECT_TRUE(e.valid());
  EXPECT_GT(e.sim_time_us(), 0.0);

  // The kernel charge advanced the queue's stream, not the device clock.
  EXPECT_DOUBLE_EQ(dev.tl().now_us(), dev_before);
  EXPECT_GE(q.now_us(), e.sim_time_us());

  // Results are still visible immediately (functional execution):
  // y[1] = y0[1] + 3 * x[1] = 1.0 + 3 * 2.0.
  EXPECT_DOUBLE_EQ(y.host_data()[1], 7.0);

  q.synchronize(); // folds the stream into the device clock
  EXPECT_GE(dev.tl().now_us(), e.sim_time_us());
  dev.reset_clock();
}

TEST_F(QueueTest, TwoQueuesOverlapInSimulatedTime) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  const index_t n = 1 << 16;
  const auto host = iota_vec(n, 1.0);
  const hints h{.name = "queue_test.kernel", .flops_per_index = 4000.0};

  // Same data in both runs; construction charges are excluded by resetting
  // the clock after the uploads.
  array<double> a(host), b(host), c(host), d(host);

  // Serial: both kernels on the default clock.
  dev.reset_clock();
  parallel_for(h, n, axpy, 2.0, a, b);
  parallel_for(h, n, axpy, 2.0, c, d);
  const double serial_us = dev.tl().now_us();

  // Two queues: kernels charge independent streams and overlap.
  dev.reset_clock();
  {
    queue q1, q2;
    parallel_for(q1, h, n, axpy, 2.0, a, b);
    parallel_for(q2, h, n, axpy, 2.0, c, d);
    synchronize();
  }
  const double overlapped_us = dev.tl().now_us();

  EXPECT_LT(overlapped_us, serial_us * 0.75);
  EXPECT_GT(overlapped_us, serial_us * 0.40); // can't beat perfect 2x
  dev.reset_clock();
}

TEST_F(QueueTest, CrossQueueEventOrdering) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  const index_t n = 1 << 14;
  array<double> x(iota_vec(n, 1.0)), y(iota_vec(n, 0.0));
  const hints h{.name = "queue_test.dep", .flops_per_index = 2000.0};

  queue producer, consumer;
  const event e = parallel_for(producer, h, n, axpy, 1.0, x, y);
  ASSERT_TRUE(e.valid());

  // Before the wait the consumer's clock is behind the producer's event.
  EXPECT_LT(consumer.now_us(), e.sim_time_us());
  consumer.wait(e);
  // After it, nothing enqueued on `consumer` can start before e completed.
  EXPECT_GE(consumer.now_us(), e.sim_time_us());

  const event after = parallel_for(consumer, h, n, axpy, 1.0, x, y);
  EXPECT_GE(after.sim_time_us(), e.sim_time_us());

  synchronize();
  dev.reset_clock();
}

TEST_F(QueueTest, WaitOnCompleteOrNullEventIsNoOp) {
  queue q;
  q.wait(event{}); // null event
  set_backend(backend::threads);
  array<double> a(8);
  const event sync_e = parallel_for(queue::default_queue(), 8,
                                    [](index_t i, array<double>& v) {
                                      v[i] = 1.0;
                                    },
                                    a);
  q.wait(sync_e); // born-complete event
  q.synchronize();
}

TEST_F(QueueTest, QueueScopeRoutesSyncCallsThroughTheQueue) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  const index_t n = 1 << 12;
  array<double> x(iota_vec(n, 1.0)), y(iota_vec(n, 0.0));
  const double dev_before = dev.tl().now_us();

  queue q;
  {
    queue_scope scope(q);
    parallel_for(n, axpy, 2.0, x, y); // plain sync call, redirected
  }
  EXPECT_DOUBLE_EQ(dev.tl().now_us(), dev_before); // charged to q's stream
  EXPECT_GT(q.now_us(), dev_before);
  EXPECT_DOUBLE_EQ(y.host_data()[0], 2.0);

  q.synchronize();
  dev.reset_clock();
}

TEST_F(QueueTest, QueuedReduceIsQueueOrderedButHostBlocking) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  const index_t n = 4096;
  array<double> x(iota_vec(n, 1.0)), y(iota_vec(n, 1.0));
  const double direct = parallel_reduce(n, dot_term, x, y);

  queue q;
  const double before = q.now_us();
  const double queued = parallel_reduce(q, n, dot_term, x, y);
  EXPECT_DOUBLE_EQ(direct, queued);
  EXPECT_GT(q.now_us(), before); // charges landed on the queue's stream

  q.synchronize();
  dev.reset_clock();
}

TEST_F(QueueTest, AsyncArrayCopiesChargeTheQueueStream) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  const index_t n = 1 << 14;
  const auto host = iota_vec(n, 1.0);
  std::vector<double> out(static_cast<std::size_t>(n));

  array<double> a(n);
  const double dev_before = dev.tl().now_us();

  queue q;
  const event up = a.copy_from_host(q, host.data());
  const event down = a.copy_to_host(q, out.data());
  EXPECT_TRUE(up.valid());
  EXPECT_TRUE(down.valid());
  EXPECT_GE(down.sim_time_us(), up.sim_time_us()); // in-order queue
  EXPECT_DOUBLE_EQ(dev.tl().now_us(), dev_before);
  EXPECT_EQ(out, host);

  q.synchronize();
  dev.reset_clock();
}

// --- stream-ordered memory pool ----------------------------------------------

TEST_F(QueueTest, StreamOrderedPoolReuseAcrossQueuesRecordsStall) {
  if (jaccx::mem::mode() != jaccx::mem::pool_mode::bucket) {
    GTEST_SKIP() << "pool disabled (JACC_MEM_POOL=none)";
  }
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  const index_t n = 1 << 15;
  const auto host = iota_vec(n, 1.0);
  const hints h{.name = "queue_test.pool", .flops_per_index = 3000.0};
  const auto stalls_before = [&] {
    for (const auto& s : jaccx::mem::stats()) {
      if (s.label == "a100") {
        return s.stalls;
      }
    }
    return std::uint64_t{0};
  }();

  queue q1, q2;
  {
    // q1 releases its scratch at a late stream time...
    queue_scope scope(q1);
    array<double> scratch(host);
    parallel_for(h, n, axpy, 2.0, scratch, scratch);
  }
  {
    // ...q2 (clock at 0) acquires the same bucket without a sync: the pool
    // hands the block over and charges the implicit wait on q2.
    queue_scope scope(q2);
    array<double> reuse(host);
    parallel_for(h, n, axpy, 2.0, reuse, reuse);
  }
  const auto stalls_after = [&] {
    for (const auto& s : jaccx::mem::stats()) {
      if (s.label == "a100") {
        return s.stalls;
      }
    }
    return std::uint64_t{0};
  }();
  EXPECT_GT(stalls_after, stalls_before);
  // The implicit sync ordered q2 at/after q1's release point.
  EXPECT_GE(q2.now_us(), 0.0);

  synchronize();
  dev.reset_clock();
}

TEST_F(QueueTest, SameQueuePoolReuseDoesNotStall) {
  if (jaccx::mem::mode() != jaccx::mem::pool_mode::bucket) {
    GTEST_SKIP() << "pool disabled (JACC_MEM_POOL=none)";
  }
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();

  const index_t n = 1 << 15;
  const auto host = iota_vec(n, 1.0);
  const auto stalls_of = [&] {
    for (const auto& s : jaccx::mem::stats()) {
      if (s.label == "a100") {
        return s.stalls;
      }
    }
    return std::uint64_t{0};
  };

  queue q;
  {
    // Primer: adopts whatever block is cached (possibly stalling once) and
    // releases it back tagged with q's id.
    queue_scope scope(q);
    array<double> primer(host);
  }
  const auto before = stalls_of();
  {
    queue_scope scope(q);
    array<double> second(host); // same bucket, same queue: plain LIFO hit
  }
  EXPECT_EQ(stalls_of(), before);

  synchronize();
  dev.reset_clock();
}

// --- threads back end: async lanes -------------------------------------------

TEST_F(QueueTest, LanePolicyResolvesFromEnv) {
  // Pure policy (the installed lane count is fixed per process).
  ::setenv("JACC_QUEUES", "8", 1);
  EXPECT_EQ(resolve_queue_lanes(16), 8);
  ::setenv("JACC_QUEUES", "1", 1);
  EXPECT_EQ(resolve_queue_lanes(16), 1);
  ::setenv("JACC_QUEUES", "500", 1);
  EXPECT_EQ(resolve_queue_lanes(128), 64); // absolute ceiling
  // Pool-width clamp: a lane needs a worker to be a lane, so JACC_QUEUES
  // beyond the pool width must not build width-one oversubscribed lanes.
  EXPECT_EQ(resolve_queue_lanes(16), 16);
  ::setenv("JACC_QUEUES", "64", 1);
  EXPECT_EQ(resolve_queue_lanes(8), 8);
  // ...except the floor of two: forcing minimal asynchrony must keep
  // working on a single-core machine (the CI/TSan JACC_QUEUES=2 legs).
  EXPECT_EQ(resolve_queue_lanes(1), 2);
  ::setenv("JACC_QUEUES", "2", 1);
  EXPECT_EQ(resolve_queue_lanes(1), 2);
  ::unsetenv("JACC_QUEUES");
  EXPECT_EQ(resolve_queue_lanes(16), 2); // width heuristic
  EXPECT_EQ(resolve_queue_lanes(2), 1);  // narrow: sync degradation
}

TEST_F(QueueTest, ThreadsQueueRunsWorkAndCompletes) {
  set_backend(backend::threads);
  const index_t n = 50'000;
  const auto hx = iota_vec(n, 1.0);
  const auto hy = iota_vec(n, 0.5);

  array<double> xs(hx), ys(hy);
  parallel_for(n, axpy, 2.0, xs, ys);
  const auto expect = ys.to_host();

  array<double> x(hx), y(hy);
  queue q;
  const event e = parallel_for(q, n, axpy, 2.0, x, y);
  e.wait();
  EXPECT_TRUE(e.complete());
  q.synchronize();
  EXPECT_EQ(y.to_host(), expect);
}

TEST_F(QueueTest, QueuedLaunchCopiesTemporaryHintName) {
  // The hint name is captured as an owned string: a name whose storage dies
  // right after the enqueue must not dangle when the lane task (and its
  // profiler scope) runs later.  Sanitizer legs catch the use-after-free.
  set_backend(backend::threads);
  const index_t n = 20'000;
  const auto hx = iota_vec(n, 1.0);
  const auto hy = iota_vec(n, 0.5);

  array<double> xs(hx), ys(hy);
  parallel_for(n, axpy, 2.0, xs, ys);
  const auto expect = ys.to_host();

  array<double> x(hx), y(hy);
  queue q;
  event e;
  {
    std::string name = "queue_test.temporary_name_";
    name += std::to_string(n);
    e = parallel_for(q, hints{.name = name}, n, axpy, 2.0, x, y);
    name.assign(name.size(), 'x'); // scribble, then destroy, the storage
  }
  e.wait();
  q.synchronize();
  EXPECT_EQ(y.to_host(), expect);
}

TEST_F(QueueTest, ThreadsQueueKeepsSubmissionOrder) {
  set_backend(backend::threads);
  const index_t n = 1000;
  array<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0));

  queue q;
  // Each step depends on the previous one; any reordering breaks the sum.
  for (int step = 0; step < 8; ++step) {
    parallel_for(q, n, [](index_t i, array<double>& v) { v[i] = v[i] + 1.0; },
                 a);
  }
  q.synchronize();
  for (index_t i = 0; i < n; i += 97) {
    EXPECT_DOUBLE_EQ(a.host_data()[i], 8.0);
  }
}

TEST_F(QueueTest, ThreadsQueuedReduceReturnsCorrectValue) {
  set_backend(backend::threads);
  const index_t n = 8192;
  array<double> x(iota_vec(n, 1.0)), y(iota_vec(n, 1.0));
  const double direct = parallel_reduce(n, dot_term, x, y);
  queue q;
  EXPECT_DOUBLE_EQ(parallel_reduce(q, n, dot_term, x, y), direct);
  q.synchronize();
}

TEST_F(QueueTest, TwoQueuesStressFromTwoHostThreads) {
  // The TSan target: two host threads driving two queues (and the shared
  // registry/lanes) concurrently.  Correctness check is per-queue ordering.
  set_backend(backend::threads);
  const index_t n = 20'000;
  constexpr int steps = 16;

  auto worker = [n](array<double>& a) {
    queue q;
    for (int s = 0; s < steps; ++s) {
      parallel_for(q, n,
                   [](index_t i, array<double>& v) { v[i] = v[i] + 1.0; }, a);
    }
    q.synchronize();
  };

  array<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  array<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  std::thread ta([&] { worker(a); });
  std::thread tb([&] { worker(b); });
  ta.join();
  tb.join();

  for (index_t i = 0; i < n; i += 101) {
    EXPECT_DOUBLE_EQ(a.host_data()[i], static_cast<double>(steps));
    EXPECT_DOUBLE_EQ(b.host_data()[i], static_cast<double>(steps));
  }
}

TEST_F(QueueTest, GlobalSynchronizeCoversAllQueues) {
  set_backend(backend::threads);
  const index_t n = 10'000;
  array<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  array<double> b(std::vector<double>(static_cast<std::size_t>(n), 0.0));

  queue q1, q2;
  parallel_for(q1, n, [](index_t i, array<double>& v) { v[i] = 1.0; }, a);
  parallel_for(q2, n, [](index_t i, array<double>& v) { v[i] = 2.0; }, b);
  synchronize(); // all queues
  EXPECT_DOUBLE_EQ(a.host_data()[n - 1], 1.0);
  EXPECT_DOUBLE_EQ(b.host_data()[n - 1], 2.0);
}

// --- overlap acceptance (deterministic, simulated) ---------------------------

TEST_F(QueueTest, FourQueuePipelineBeatsSingleQueue) {
  // Miniature of bench/abl_queue_overlap: chunked h2d+kernel+d2h pipeline,
  // 4 queues vs 1, on the a100 model.  Transfers serialize on the shared
  // link; compute overlaps them, so 4 queues must win clearly.
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  const index_t chunk = 1 << 15;
  const int chunks = 8;
  const auto host = iota_vec(chunk, 1.0);
  // Kernel cost a bit above the three per-chunk transfers on the a100 link
  // (~81us vs ~66us): the link calendar serializes copies across queues, so
  // the kernel must be large enough for other queues' transfers to hide
  // under it (same regime as bench/abl_queue_overlap).
  const hints h{.name = "queue_test.pipeline", .flops_per_index = 24'000.0};

  const auto run = [&](int nqueues) {
    dev.reset_clock();
    dev.cache().reset();
    std::vector<queue> queues(static_cast<std::size_t>(nqueues));
    std::vector<double> out(static_cast<std::size_t>(chunk));
    for (int c = 0; c < chunks; ++c) {
      queue& q = queues[static_cast<std::size_t>(c % nqueues)];
      array<double> x(chunk), y(chunk);
      x.copy_from_host(q, host.data());
      y.copy_from_host(q, host.data());
      parallel_for(q, h, chunk, axpy, 2.0, x, y);
      y.copy_to_host(q, out.data());
    }
    synchronize();
    const double wall = dev.tl().now_us();
    dev.reset_clock();
    return wall;
  };

  const double one_q = run(1);
  const double four_q = run(4);
  EXPECT_LT(four_q, one_q / 1.3) << "expected >= 1.3x overlap win";
}

// --- non-blocking reductions (jacc::future) ----------------------------------

TEST_F(QueueTest, EmptyFutureIsInvalidAndBornReady) {
  future<double> f;
  EXPECT_FALSE(f.valid());
  EXPECT_TRUE(f.ready());
  EXPECT_FALSE(f.done().valid());
  EXPECT_DOUBLE_EQ(f.sim_time_us(), 0.0);
}

TEST_F(QueueTest, FutureGetBitExactWithSyncReduceOnSim) {
  set_backend(backend::cuda_a100);
  const index_t n = 1 << 15;
  const auto hx = iota_vec(n, 1.0);
  const auto hy = iota_vec(n, 0.25);
  const hints h{.name = "queue_test.dot"};

  array<double> x1(hx), y1(hy);
  const double sync = parallel_reduce(h, n, dot_term, x1, y1);

  array<double> x2(hx), y2(hy);
  queue q;
  future<double> f = q.parallel_reduce(h, n, dot_term, x2, y2);
  EXPECT_TRUE(f.valid());
  EXPECT_TRUE(f.ready()); // sim backends compute at enqueue
  EXPECT_GT(f.sim_time_us(), 0.0);
  EXPECT_EQ(f.get(), sync); // same reduction tree: bit-exact
  EXPECT_EQ(f.get(), sync); // get() is repeatable
}

TEST_F(QueueTest, FutureGetMatchesSyncReduceOnThreads) {
  set_backend(backend::threads);
  const index_t n = 10'000;
  // Integer-valued terms with an exactly representable sum: any reduction
  // association gives the identical double, so EXPECT_EQ is safe even if
  // the lane pool is narrower than the main pool.
  const auto hx = iota_vec(n, 1.0);
  const auto hy = iota_vec(n, 2.0);

  array<double> x1(hx), y1(hy);
  const double sync = parallel_reduce(n, dot_term, x1, y1);

  array<double> x2(hx), y2(hy);
  queue q;
  auto f = q.parallel_reduce(n, dot_term, x2, y2);
  EXPECT_TRUE(f.valid());
  const double async_val = f.get();
  EXPECT_TRUE(f.ready()); // get() implies complete
  EXPECT_EQ(async_val, sync);
}

double cell_term(index_t i, index_t j, index_t k, const array3d<double>& a) {
  return static_cast<double>(a(i, j, k));
}

/// A 13x11x9 array holding each cell's linear index, and the exact sum:
/// integer-valued terms make every association order give the same double.
struct cells3d {
  dims3 d{13, 11, 9};
  std::vector<double> host = iota_vec(13 * 11 * 9, 0.0);
  array3d<double> a{host.data(), d.rows, d.cols, d.depth};
  double sum() const {
    double s = 0.0;
    for (const double v : host) {
      s += v;
    }
    return s;
  }
};

TEST_F(QueueTest, ThreeDReduceFutureMatchesSerialSum) {
  set_backend(backend::threads);
  cells3d c;
  queue q;
  auto f = q.parallel_reduce(c.d, cell_term, c.a);
  EXPECT_TRUE(f.valid());
  EXPECT_EQ(f.get(), c.sum());
}

TEST_F(QueueTest, ThreeDReduceInsideQueueScopeMatchesSerialSum) {
  set_backend(backend::threads);
  cells3d c;
  queue q;
  double got = 0.0;
  {
    queue_scope scope(q);
    got = parallel_reduce(c.d, cell_term, c.a);
  }
  EXPECT_EQ(got, c.sum());
  q.synchronize();
}

TEST_F(QueueTest, DefaultQueueReduceReturnsReadyFuture) {
  set_backend(backend::threads);
  const index_t n = 4096;
  const auto hx = iota_vec(n, 1.0);
  array<double> x(hx), y(hx);
  auto f = queue::default_queue().parallel_reduce(n, dot_term, x, y);
  EXPECT_TRUE(f.valid());
  EXPECT_TRUE(f.ready()); // synchronous model: complete on return
  array<double> x2(hx), y2(hx);
  EXPECT_EQ(f.get(), parallel_reduce(n, dot_term, x2, y2));
}

TEST_F(QueueTest, WaitOnFutureOrdersCrossQueueSimWork) {
  set_backend(backend::cuda_a100);
  auto& dev = *backend_device(backend::cuda_a100);
  dev.reset_clock();
  const index_t n = 1 << 14;
  const auto hx = iota_vec(n, 1.0);
  array<double> x(hx), y(hx);
  queue qp("qt.producer"), qc("qt.consumer");
  auto f = qp.parallel_reduce(
      hints{.name = "qt.dot", .flops_per_index = 2000.0}, n, dot_term, x, y);
  EXPECT_GT(f.sim_time_us(), 0.0);
  qc.wait(f); // q.wait(future) = q.wait(future.done())
  const event after = qc.record();
  EXPECT_GE(after.sim_time_us(), f.sim_time_us());
  dev.reset_clock();
}

// --- destruction races (TSan stress targets; see scripts/verify.sh) ----------

TEST_F(QueueTest, FutureOutlivesItsQueue) {
  set_backend(backend::threads);
  const index_t n = 50'000;
  const auto hx = iota_vec(n, 1.0);
  array<double> x(hx), y(hx);
  future<double> f;
  {
    queue q;
    f = q.parallel_reduce(n, dot_term, x, y);
  } // last queue handle dropped; the future still owns slot + event
  array<double> x2(hx), y2(hx);
  EXPECT_EQ(f.get(), parallel_reduce(n, dot_term, x2, y2));
}

TEST_F(QueueTest, LastHandleDroppedWithInFlightWork) {
  set_backend(backend::threads);
  const index_t n = 100'000;
  array<double> a(std::vector<double>(static_cast<std::size_t>(n), 0.0));
  {
    queue q;
    for (int step = 0; step < 8; ++step) {
      parallel_for(
          q, n, [](index_t i, array<double>& v) { v[i] = v[i] + 1.0; }, a);
    }
  } // destructor must neither lose nor race the in-flight chain
  synchronize();
  EXPECT_DOUBLE_EQ(a.host_data()[0], 8.0);
  EXPECT_DOUBLE_EQ(a.host_data()[n - 1], 8.0);
}

TEST_F(QueueTest, SynchronizeConcurrentWithQueueCreation) {
  set_backend(backend::threads);
  const index_t n = 20'000;
  std::atomic<bool> stop{false};
  std::thread syncer([&stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      synchronize();
    }
  });
  for (int round = 0; round < 50; ++round) {
    queue q;
    array<double> v(std::vector<double>(static_cast<std::size_t>(n), 0.0));
    parallel_for(
        q, n, [](index_t i, array<double>& a) { a[i] = 1.0; }, v);
    q.synchronize();
    EXPECT_DOUBLE_EQ(v.host_data()[n - 1], 1.0);
  }
  stop.store(true, std::memory_order_relaxed);
  syncer.join();
}

// --- lane re-initialization --------------------------------------------------

TEST_F(QueueTest, QueueSurvivesLaneReinitCycle) {
  set_backend(backend::threads);
  const char* old_env = std::getenv("JACC_QUEUES");
  const std::string saved_env = old_env != nullptr ? old_env : "";
  const index_t n = 10'000;
  {
    array<double> v(std::vector<double>(static_cast<std::size_t>(n), 0.0));
    queue q; // handle created under the initial lane layout
    parallel_for(
        q, n, [](index_t i, array<double>& a) { a[i] = a[i] + 1.0; }, v);
    q.synchronize();

    ::setenv("JACC_QUEUES", "1", 1);
    initialize(); // quiesces lanes and re-reads the lane policy
    set_backend(backend::threads);
    EXPECT_EQ(queue_lane_count(), 1);
    // The surviving handle's cached lane index is stale; its next
    // submission must re-resolve against the new layout, not index a
    // drained lane.
    parallel_for(
        q, n, [](index_t i, array<double>& a) { a[i] = a[i] + 1.0; }, v);
    q.synchronize();

    ::setenv("JACC_QUEUES", "2", 1);
    initialize();
    set_backend(backend::threads);
    EXPECT_EQ(queue_lane_count(), 2);
    parallel_for(
        q, n, [](index_t i, array<double>& a) { a[i] = a[i] + 1.0; }, v);
    q.synchronize();

    EXPECT_DOUBLE_EQ(v.host_data()[0], 3.0);
    EXPECT_DOUBLE_EQ(v.host_data()[n - 1], 3.0);
  }
  if (old_env != nullptr) {
    ::setenv("JACC_QUEUES", saved_env.c_str(), 1);
  } else {
    ::unsetenv("JACC_QUEUES");
  }
  initialize();
}

} // namespace
} // namespace jacc
