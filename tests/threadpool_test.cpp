// Unit tests for the Base.Threads-style fork/join pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "threadpool/thread_pool.hpp"

namespace jaccx::pool {
namespace {

TEST(ThreadPool, SingleWorkerRunsInline) {
  thread_pool p(1);
  EXPECT_EQ(p.size(), 1u);
  std::vector<int> hits(100, 0);
  p.parallel_for_index(100, [&](index_t i) { hits[i]++; });
  for (int h : hits) {
    EXPECT_EQ(h, 1);
  }
}

TEST(ThreadPool, EveryIndexVisitedExactlyOnce) {
  thread_pool p(4);
  const index_t n = 10007;
  std::vector<std::atomic<int>> hits(n);
  p.parallel_for_index(n, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1, std::memory_order_relaxed);
  });
  for (index_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[static_cast<std::size_t>(i)].load(), 1) << i;
  }
}

TEST(ThreadPool, ZeroIterationsIsNoop) {
  thread_pool p(4);
  bool called = false;
  p.parallel_for_index(0, [&](index_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, FewerIndicesThanWorkers) {
  thread_pool p(8);
  std::vector<std::atomic<int>> hits(3);
  p.parallel_for_index(3, [&](index_t i) {
    hits[static_cast<std::size_t>(i)].fetch_add(1);
  });
  for (auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
  }
}

TEST(ThreadPool, ChunksPartitionTheRange) {
  thread_pool p(4);
  p.set_schedule({schedule_kind::static_chunks, 0}); // chunk count asserted
  std::mutex m;
  std::vector<range> seen;
  p.parallel_chunks(1000, [&](unsigned, range r) {
    std::lock_guard<std::mutex> lock(m);
    seen.push_back(r);
  });
  index_t total = 0;
  for (const auto& r : seen) {
    total += r.size();
  }
  EXPECT_EQ(total, 1000);
  EXPECT_LE(seen.size(), 4u);
}

TEST(ThreadPool, WorkerIdsAreDistinctPerRegion) {
  thread_pool p(4);
  // Static chunking guarantees exactly one chunk per worker; dynamic lets
  // a fast worker claim everything, so pin the schedule.
  p.set_schedule({schedule_kind::static_chunks, 0});
  std::mutex m;
  std::set<unsigned> workers;
  p.parallel_chunks(4000, [&](unsigned w, range) {
    std::lock_guard<std::mutex> lock(m);
    workers.insert(w);
  });
  // Exactly one chunk per worker with static chunking of a large range.
  EXPECT_EQ(workers.size(), 4u);
}

TEST(ThreadPool, ReusableAcrossManyRegions) {
  thread_pool p(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 50; ++round) {
    p.parallel_for_index(100, [&](index_t i) {
      sum.fetch_add(i, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(sum.load(), 50L * (99 * 100 / 2));
}

TEST(ThreadPool, ParallelSumMatchesSerial) {
  thread_pool p(4);
  const index_t n = 1 << 16;
  std::vector<double> xs(static_cast<std::size_t>(n));
  std::iota(xs.begin(), xs.end(), 0.0);

  struct alignas(64) slot {
    double v = 0.0;
  };
  std::vector<slot> partials(p.size());
  p.parallel_chunks(n, [&](unsigned w, range r) {
    double acc = partials[w].v; // fold chunks: a worker may get several
    for (index_t i = r.begin; i < r.end; ++i) {
      acc += xs[static_cast<std::size_t>(i)];
    }
    partials[w].v = acc;
  });
  double total = 0.0;
  for (auto& s : partials) {
    total += s.v;
  }
  EXPECT_DOUBLE_EQ(total, std::accumulate(xs.begin(), xs.end(), 0.0));
}

TEST(ThreadPool, DefaultPoolHonorsEnvWidth) {
  // default_pool is a singleton created on first use; we only check it is
  // usable and has at least one worker.
  auto& p = default_pool();
  EXPECT_GE(p.size(), 1u);
  std::atomic<int> n{0};
  p.parallel_for_index(10, [&](index_t) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 10);
}

TEST(ThreadPool, RegionImmediatelyAfterConstruction) {
  // Pins the barrier's generation/sense logic for epoch 0 -> 1: workers
  // that have not yet reached their first wait must still observe the
  // region, whether they find it by spinning or by parking late.
  for (int round = 0; round < 25; ++round) {
    thread_pool p(4);
    std::atomic<int> hits{0};
    p.parallel_for_index(8, [&](index_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 8);
  }
}

TEST(ThreadPool, BackToBackRegionsStress) {
  // 10k rounds of tiny regions around the pool width: n < width runs
  // inline in the caller, n > width exercises the full fork/join barrier
  // with near-empty chunks, back to back with no pause for workers to
  // finish parking — the hardest case for sense/generation bookkeeping.
  thread_pool p(4);
  const auto w = static_cast<index_t>(p.size());
  const index_t sizes[] = {1, w - 1, w + 1, 4 * w};
  std::atomic<long> sum{0};
  long expected = 0;
  for (int round = 0; round < 10000; ++round) {
    for (const index_t n : sizes) {
      p.parallel_for_index(n, [&](index_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
      expected += n * (n + 1) / 2;
    }
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, BackToBackRegionsStressNoSpin) {
  // Same shape with a zero spin budget, so every wait goes straight to the
  // futex park/wake path.
  thread_pool p(3);
  p.set_spin_budget_us(0);
  std::atomic<long> count{0};
  for (int round = 0; round < 2000; ++round) {
    p.parallel_for_index(7, [&](index_t) {
      count.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(count.load(), 2000L * 7);
}

TEST(ThreadPool, DynamicScheduleVisitsEveryIndexOnce) {
  thread_pool p(4);
  for (const index_t grain : {index_t{1}, index_t{64}, index_t{100000}}) {
    p.set_schedule({schedule_kind::dynamic_chunks, grain});
    const index_t n = 10007;
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    p.parallel_for_index(n, [&](index_t i) {
      hits[static_cast<std::size_t>(i)].fetch_add(1,
                                                  std::memory_order_relaxed);
    });
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
          << "grain=" << grain << " i=" << i;
    }
  }
}

TEST(ThreadPool, DynamicChunksPartitionTheRange) {
  thread_pool p(4);
  p.set_schedule({schedule_kind::dynamic_chunks, 128});
  std::mutex m;
  std::vector<range> seen;
  p.parallel_chunks(1000, [&](unsigned, range r) {
    std::lock_guard<std::mutex> lock(m);
    seen.push_back(r);
  });
  std::sort(seen.begin(), seen.end(),
            [](const range& a, const range& b) { return a.begin < b.begin; });
  index_t expect_begin = 0;
  for (const auto& r : seen) {
    EXPECT_EQ(r.begin, expect_begin);
    EXPECT_GT(r.size(), 0);
    EXPECT_LE(r.size(), 128);
    expect_begin = r.end;
  }
  EXPECT_EQ(expect_begin, 1000);
}

TEST(ThreadPool, DynamicReductionAccumulatesAcrossChunks) {
  // The parallel_reduce pattern: per-worker padded slots, each chunk
  // folded in.  With grain 1 a worker sees many chunks, so this catches
  // any overwrite-instead-of-accumulate regression.
  thread_pool p(4);
  p.set_schedule({schedule_kind::dynamic_chunks, 1});
  const index_t n = 4096;
  struct alignas(64) slot {
    long v = 0;
  };
  std::vector<slot> partials(p.size());
  p.parallel_chunks(n, [&](unsigned w, range r) {
    long acc = partials[w].v;
    for (index_t i = r.begin; i < r.end; ++i) {
      acc += i;
    }
    partials[w].v = acc;
  });
  long total = 0;
  for (const auto& s : partials) {
    total += s.v;
  }
  EXPECT_EQ(total, n * (n - 1) / 2);
}

TEST(ThreadPool, ScheduleRoundTrips) {
  // The construction-time default comes from JACC_SCHEDULE (tests may run
  // under either), so only the explicit setter round-trip is asserted.
  thread_pool p(2);
  const schedule dyn{schedule_kind::dynamic_chunks, 32};
  p.set_schedule(dyn);
  EXPECT_EQ(p.current_schedule(), dyn);
  const schedule st{schedule_kind::static_chunks, 0};
  p.set_schedule(st);
  EXPECT_EQ(p.current_schedule(), st);
}

TEST(ThreadPool, ParseScheduleSpecs) {
  const auto st = parse_schedule("static");
  ASSERT_TRUE(st.has_value());
  EXPECT_EQ(st->kind, schedule_kind::static_chunks);
  EXPECT_EQ(st->grain, 0);

  const auto dyn = parse_schedule("dynamic");
  ASSERT_TRUE(dyn.has_value());
  EXPECT_EQ(dyn->kind, schedule_kind::dynamic_chunks);
  EXPECT_EQ(dyn->grain, 0); // auto

  const auto grained = parse_schedule("dynamic,128");
  ASSERT_TRUE(grained.has_value());
  EXPECT_EQ(grained->kind, schedule_kind::dynamic_chunks);
  EXPECT_EQ(grained->grain, 128);

  EXPECT_FALSE(parse_schedule("").has_value());
  EXPECT_FALSE(parse_schedule("guided").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,0").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,-4").has_value());
  EXPECT_FALSE(parse_schedule("dynamic,12x").has_value());
  EXPECT_FALSE(parse_schedule("static,5").has_value());
}

TEST(ThreadPool, NestedDataParallelWritesDoNotRace) {
  // Disjoint writes per index: the canonical axpy pattern.
  thread_pool p(4);
  const index_t n = 1 << 15;
  std::vector<double> x(static_cast<std::size_t>(n), 1.0);
  std::vector<double> y(static_cast<std::size_t>(n), 2.0);
  p.parallel_for_index(n, [&](index_t i) {
    x[static_cast<std::size_t>(i)] += 2.5 * y[static_cast<std::size_t>(i)];
  });
  for (index_t i = 0; i < n; i += 997) {
    EXPECT_DOUBLE_EQ(x[static_cast<std::size_t>(i)], 6.0);
  }
}

TEST(ThreadPool, ConcurrentExternalCallersCoverEveryIndex) {
  // Two host threads share one pool.  Whichever finds it busy runs its
  // range inline, so every call still covers each index exactly once and
  // nobody waits on a barrier that belongs to the other caller's region.
  thread_pool p(4);
  const index_t n = 512;
  constexpr int rounds = 2000;
  std::atomic<int> arrived{0};
  const auto caller = [&p, &arrived, n](int& bad_calls) {
    // Start together, so the two callers' regions really overlap.
    arrived.fetch_add(1);
    while (arrived.load() < 2) {
    }
    std::vector<int> hits(static_cast<std::size_t>(n), 0);
    const auto check = [&] {
      bad_calls += std::count(hits.begin(), hits.end(), 1) == n ? 0 : 1;
      std::fill(hits.begin(), hits.end(), 0);
    };
    for (int r = 0; r < rounds; ++r) {
      p.parallel_for_index(n, [&](index_t i) {
        hits[static_cast<std::size_t>(i)] += 1;
      });
      check();
      p.parallel_chunks(n, [&](unsigned, range c) {
        for (index_t i = c.begin; i < c.end; ++i) {
          hits[static_cast<std::size_t>(i)] += 1;
        }
      });
      check();
    }
  };
  int bad_a = 0;
  int bad_b = 0;
  std::thread ta([&] { caller(bad_a); });
  std::thread tb([&] { caller(bad_b); });
  ta.join();
  tb.join();
  EXPECT_EQ(bad_a, 0);
  EXPECT_EQ(bad_b, 0);
}

} // namespace
} // namespace jaccx::pool
