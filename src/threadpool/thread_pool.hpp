// Persistent fork/join thread pool: the C++ stand-in for Julia's
// Base.Threads runtime (paper Sec. II and IV).
//
// Semantics match `Threads.@sync Threads.@threads for`: the caller blocks
// until every worker finishes its chunk(s).  Workers are started once and
// wait between parallel regions on a cache-line-padded, sense-reversing
// atomic barrier: the region epoch counter IS the sense.  A waiting worker
// spins for a bounded budget (JACC_SPIN_US, default ~50us on machines with
// enough cores) and then parks on the epoch word via the C++20 atomic
// wait/notify futex path, so back-to-back regions pay no syscall while an
// idle pool burns no CPU.  Region descriptors are published with a single
// release increment of the epoch (no mutex), and the join is an atomic
// countdown the caller spins on before parking, with at most one futex
// wake on the slow path (measured by the abl_dispatch_overhead benchmark).
//
// Work distribution is a policy (JACC_SCHEDULE): `static` splits [0, n)
// into one contiguous chunk per worker; `dynamic[,grain]` has workers claim
// grain-sized chunks off a shared atomic cursor, which fixes load imbalance
// for kernels whose per-index cost varies (CSR SpMV rows, LBM boundary
// work; measured by the abl_imbalance benchmark).  Results are identical
// across schedules: the same index set is visited exactly once either way.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "prof/prof.hpp"
#include "support/aligned_buffer.hpp"
#include "support/span2d.hpp"
#include "threadpool/partition.hpp"

namespace jaccx::pool {

/// How a parallel region's [0, n) index space is handed to workers.
enum class schedule_kind : unsigned char {
  static_chunks,  ///< one contiguous chunk per worker (default)
  dynamic_chunks, ///< workers claim grain-sized chunks off an atomic cursor
};

struct schedule {
  schedule_kind kind = schedule_kind::static_chunks;
  /// Indices claimed per cursor bump under dynamic scheduling; 0 means
  /// auto (n / (8 * width), at least 1).  Ignored for static.
  index_t grain = 0;

  friend bool operator==(const schedule&, const schedule&) = default;
};

/// Parses a JACC_SCHEDULE-style spec: "static", "dynamic", or
/// "dynamic,<grain>" with grain > 0.  Returns nullopt for anything else.
std::optional<schedule> parse_schedule(std::string_view spec);

class thread_pool {
public:
  /// Creates `threads` workers.  0 means use std::thread::hardware_concurrency
  /// (minimum 1).  The calling thread also executes a share of every region,
  /// so the effective parallel width is threads (callers count as worker 0).
  /// The initial schedule comes from JACC_SCHEDULE and the spin budget from
  /// JACC_SPIN_US when set.  `label` names the pool in profiler output
  /// ("pool" for the default pool; queue lanes use "queue.lane<N>") and
  /// prefixes its workers' trace-lane names.
  explicit thread_pool(unsigned threads = 0, std::string label = "pool");

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;
  ~thread_pool();

  /// Number of workers participating in each region (>= 1).
  unsigned size() const { return width_; }

  /// The scheduling policy applied to subsequent regions.  Must not be
  /// changed while a region is in flight.
  schedule current_schedule() const { return sched_; }
  void set_schedule(schedule s) { sched_ = s; }

  /// Microseconds a waiter burns spinning before parking on the futex.
  /// Atomic because idle workers re-read the budget on every wait while
  /// the owner may retune it between regions.
  long spin_budget_us() const {
    return spin_us_.load(std::memory_order_relaxed);
  }
  void set_spin_budget_us(long us) {
    spin_us_.store(us, std::memory_order_relaxed);
  }

  /// Raw fork/join entry point: calls fn(ctx, worker, chunk) with disjoint
  /// chunks covering [0, n) exactly once.  Under static scheduling each
  /// worker receives at most one chunk; under dynamic scheduling a worker
  /// may receive several.  Blocks until all chunks complete.  `fn` must not
  /// throw; kernels with failure modes should record status out-of-band
  /// (E.28 is out of scope for hot loops).  A pool forks one region at a
  /// time: a caller that finds it busy — another host thread's region, or
  /// a nested call from inside a kernel — runs its whole range inline as
  /// worker 0 in one chunk, the same legal distribution as the sub-width
  /// path.  So any number of callers may share a pool; none ever blocks.
  using region_fn = void (*)(void* ctx, unsigned worker, range chunk);
  void run_region(index_t n, region_fn fn, void* ctx);

  /// Runs body(i) for every i in [0, n) under the current schedule.
  template <class Body>
  void parallel_for_index(index_t n, Body&& body) {
    auto trampoline = [](void* c, unsigned, range chunk) {
      auto& b = *static_cast<std::remove_reference_t<Body>*>(c);
      for (index_t i = chunk.begin; i < chunk.end; ++i) {
        b(i);
      }
    };
    run_region(n, trampoline, const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Runs body(worker, chunk) for every chunk handed out.  Used for
  /// reductions, where each worker accumulates into its own
  /// cache-line-padded slot; under dynamic scheduling a worker's slot must
  /// therefore be combined across calls, not overwritten.
  template <class Body>
  void parallel_chunks(index_t n, Body&& body) {
    auto trampoline = [](void* c, unsigned worker, range chunk) {
      auto& b = *static_cast<std::remove_reference_t<Body>*>(c);
      b(worker, chunk);
    };
    run_region(n, trampoline, const_cast<void*>(static_cast<const void*>(&body)));
  }

  /// Profiling snapshot: pool width, schedule, region count, and per-worker
  /// busy/spin/park accounting.  The time counters only advance while
  /// jaccx::prof::enabled(); region and chunk counts always advance (one
  /// relaxed increment per region on the barrier path — noise next to the
  /// barrier itself, and the sub-width inline path skips even that).
  jaccx::prof::pool_stats stats() const;

private:
  /// Per-worker accounting, one cache line each so workers never share.
  struct alignas(cache_line_bytes) worker_counters {
    std::atomic<std::uint64_t> busy_ns{0};
    std::atomic<std::uint64_t> spin_ns{0};
    std::atomic<std::uint64_t> park_ns{0};
    std::atomic<std::uint64_t> parks{0};
    std::atomic<std::uint64_t> chunks{0};
    std::atomic<std::uint64_t> regions{0};
  };

  void worker_loop(unsigned worker);
  /// Returns the number of chunks this worker executed.
  std::uint64_t run_chunks(region_fn fn, void* ctx, index_t n,
                           unsigned worker, schedule s);
  bool spin_while_epoch_is(std::uint64_t seen) const;
  bool spin_until_done(unsigned target) const;

  // Region descriptor: written by the caller between regions, published to
  // workers by the release increment of epoch_ and read after the matching
  // acquire load.  Never touched while a region is in flight.
  region_fn fn_ = nullptr;
  void* ctx_ = nullptr;
  index_t n_ = 0;
  schedule region_sched_{};

  // Barrier state.  Each word gets its own cache line so a worker spinning
  // on epoch_ does not steal the line the finish countdown or the dynamic
  // cursor is bouncing on.
  alignas(cache_line_bytes) std::atomic<std::uint64_t> epoch_{0};
  /// Held by the caller whose region owns the descriptor and barrier.
  alignas(cache_line_bytes) std::atomic<bool> busy_{false};
  alignas(cache_line_bytes) std::atomic<index_t> cursor_{0};
  alignas(cache_line_bytes) std::atomic<unsigned> done_{0};
  alignas(cache_line_bytes) std::atomic<unsigned> parked_{0};
  alignas(cache_line_bytes) std::atomic<std::uint32_t> caller_waiting_{0};
  alignas(cache_line_bytes) std::atomic<bool> shutdown_{false};

  unsigned width_ = 1;
  std::string label_;
  std::atomic<long> spin_us_{0};
  schedule sched_{};
  std::unique_ptr<worker_counters[]> counters_; // width_ entries
  alignas(cache_line_bytes) std::atomic<std::uint64_t> regions_{0};
  std::vector<std::thread> workers_; // width_ - 1 helper threads
};

/// The process-wide pool used by the `threads` back end.  Width is taken
/// from JACC_NUM_THREADS when set, otherwise hardware concurrency.  Created
/// on first use.
thread_pool& default_pool();

} // namespace jaccx::pool
