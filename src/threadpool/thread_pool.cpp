#include "threadpool/thread_pool.hpp"

#include <chrono>
#include <string>

#include "prof/prof.hpp"
#include "support/env.hpp"

namespace jaccx::pool {

namespace {

/// Default spin budget before a waiter parks.  Chosen to cover the typical
/// inter-region gap of a hot solver loop without burning meaningful CPU
/// when the pool goes idle.
constexpr long default_spin_us = 50;

/// Polite busy-wait hint: de-pipelines the spin loop so a hyperthread
/// sibling (or, with the periodic yield below, another runnable thread)
/// can make progress.
inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__) || defined(__arm__)
  asm volatile("yield" ::: "memory");
#endif
}

} // namespace

std::optional<schedule> parse_schedule(std::string_view spec) {
  schedule s;
  const auto comma = spec.find(',');
  const std::string_view head = spec.substr(0, comma);
  if (head == "static") {
    s.kind = schedule_kind::static_chunks;
  } else if (head == "dynamic") {
    s.kind = schedule_kind::dynamic_chunks;
  } else {
    return std::nullopt;
  }
  if (comma != std::string_view::npos) {
    if (s.kind != schedule_kind::dynamic_chunks) {
      return std::nullopt; // a grain only makes sense for dynamic
    }
    const auto grain = parse_long(spec.substr(comma + 1));
    if (!grain || *grain <= 0) {
      return std::nullopt;
    }
    s.grain = static_cast<index_t>(*grain);
  }
  return s;
}

thread_pool::thread_pool(unsigned threads, std::string label)
    : label_(std::move(label)) {
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) {
      threads = 1;
    }
  }
  width_ = threads;

  // Spinning is only productive when every worker can actually run at
  // once; on an oversubscribed machine a spinning caller just steals the
  // core its workers need, so park immediately there.
  const unsigned cores = std::thread::hardware_concurrency();
  long spin = (cores != 0 && width_ > cores) ? 0 : default_spin_us;
  if (const auto us = get_env_long("JACC_SPIN_US"); us && *us >= 0) {
    spin = *us;
  }
  spin_us_.store(spin, std::memory_order_relaxed);
  if (const auto spec = get_env("JACC_SCHEDULE")) {
    if (const auto s = parse_schedule(*spec)) {
      sched_ = *s;
    }
  }

  counters_ = std::make_unique<worker_counters[]>(width_);

  workers_.reserve(width_ - 1);
  for (unsigned w = 1; w < width_; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }

  jaccx::prof::register_pool(this, [this] { return stats(); });
}

thread_pool::~thread_pool() {
  shutdown_.store(true, std::memory_order_seq_cst);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  epoch_.notify_all();
  for (auto& t : workers_) {
    t.join();
  }
  // Freezes a final stats snapshot in the profiler; must come after the
  // joins so every worker's accounting is complete.
  jaccx::prof::unregister_pool(this);
}

jaccx::prof::pool_stats thread_pool::stats() const {
  jaccx::prof::pool_stats s;
  s.label = label_;
  s.width = width_;
  const schedule sc = sched_;
  if (sc.kind == schedule_kind::static_chunks) {
    s.schedule = "static";
  } else {
    s.schedule = "dynamic";
    if (sc.grain > 0) {
      s.schedule += "," + std::to_string(sc.grain);
    }
  }
  s.regions = regions_.load(std::memory_order_relaxed);
  s.workers.reserve(width_);
  for (unsigned w = 0; w < width_; ++w) {
    const worker_counters& c = counters_[w];
    jaccx::prof::pool_worker_stat ws;
    ws.worker = w;
    ws.busy_ns = c.busy_ns.load(std::memory_order_relaxed);
    ws.spin_ns = c.spin_ns.load(std::memory_order_relaxed);
    ws.park_ns = c.park_ns.load(std::memory_order_relaxed);
    ws.parks = c.parks.load(std::memory_order_relaxed);
    ws.chunks = c.chunks.load(std::memory_order_relaxed);
    ws.regions = c.regions.load(std::memory_order_relaxed);
    s.workers.push_back(ws);
  }
  return s;
}

bool thread_pool::spin_while_epoch_is(std::uint64_t seen) const {
  const long budget = spin_us_.load(std::memory_order_relaxed);
  if (budget <= 0) {
    return epoch_.load(std::memory_order_seq_cst) != seen;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(budget);
  int polls = 0;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (epoch_.load(std::memory_order_seq_cst) != seen) {
        return true;
      }
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    if ((++polls & 7) == 0) {
      std::this_thread::yield();
    }
  }
}

bool thread_pool::spin_until_done(unsigned target) const {
  const long budget = spin_us_.load(std::memory_order_relaxed);
  if (budget <= 0) {
    return done_.load(std::memory_order_seq_cst) == target;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(budget);
  int polls = 0;
  for (;;) {
    for (int i = 0; i < 64; ++i) {
      if (done_.load(std::memory_order_seq_cst) == target) {
        return true;
      }
      cpu_relax();
    }
    if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    if ((++polls & 7) == 0) {
      std::this_thread::yield();
    }
  }
}

std::uint64_t thread_pool::run_chunks(region_fn fn, void* ctx, index_t n,
                                      unsigned worker, schedule s) {
  if (s.kind == schedule_kind::static_chunks) {
    const range r = static_chunk(n, width_, worker);
    if (!r.empty()) {
      fn(ctx, worker, r);
      return 1;
    }
    return 0;
  }
  const index_t grain = s.grain;
  std::uint64_t claimed = 0;
  for (;;) {
    const index_t begin = cursor_.fetch_add(grain, std::memory_order_relaxed);
    if (begin >= n) {
      return claimed;
    }
    const index_t end = begin + grain < n ? begin + grain : n;
    fn(ctx, worker, range{begin, end});
    ++claimed;
  }
}

void thread_pool::run_region(index_t n, region_fn fn, void* ctx) {
  JACCX_ASSERT(n >= 0);
  if (n == 0) {
    return;
  }
  // Fewer indices than workers: forking costs more than the region.  The
  // caller runs the whole range as worker 0 in one chunk, which is a legal
  // distribution under either schedule.  The same goes for a caller that
  // finds the pool busy with another region: the descriptor and barrier
  // below belong to the flag's holder.
  if (width_ == 1 || n < static_cast<index_t>(width_) ||
      busy_.exchange(true, std::memory_order_acquire)) {
    fn(ctx, 0, range{0, n});
    return;
  }

  schedule s = sched_;
  if (s.kind == schedule_kind::dynamic_chunks && s.grain <= 0) {
    const index_t auto_grain = n / (8 * static_cast<index_t>(width_));
    s.grain = auto_grain > 0 ? auto_grain : 1;
  }

  // Publish the region: descriptor stores happen-before the release
  // increment of epoch_, which is the start signal workers acquire.
  fn_ = fn;
  ctx_ = ctx;
  n_ = n;
  region_sched_ = s;
  done_.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
  epoch_.fetch_add(1, std::memory_order_seq_cst);
  // Wake parked workers only when someone is actually parked; the seq_cst
  // ordering against the parked_ increment in worker_loop guarantees a
  // worker either observes the new epoch before sleeping or is counted
  // here and woken.
  if (parked_.load(std::memory_order_seq_cst) != 0) {
    epoch_.notify_all();
  }

  regions_.fetch_add(1, std::memory_order_relaxed);
  const bool instrument = jaccx::prof::enabled();
  std::uint64_t t_busy0 = 0;
  if (instrument) [[unlikely]] {
    t_busy0 = jaccx::prof::now_ns();
  }

  // The caller is worker 0 and executes chunks in place.
  const std::uint64_t claimed = run_chunks(fn, ctx, n, 0, s);

  std::uint64_t t_busy1 = 0;
  if (instrument) [[unlikely]] {
    t_busy1 = jaccx::prof::now_ns();
    worker_counters& c = counters_[0];
    c.busy_ns.fetch_add(t_busy1 - t_busy0, std::memory_order_relaxed);
    c.chunks.fetch_add(claimed, std::memory_order_relaxed);
    c.regions.fetch_add(1, std::memory_order_relaxed);
    jaccx::prof::emit_pool_slice(jaccx::prof::construct::pool_busy, 0,
                                 t_busy0, t_busy1, claimed);
  }

  // Join: atomic countdown, spin first, park on the slow path.  The
  // acquire-reads of done_ synchronize with every worker's release
  // increment, so all kernel writes are visible once the count is full.
  const unsigned target = width_ - 1;
  if (done_.load(std::memory_order_seq_cst) != target &&
      !spin_until_done(target)) {
    caller_waiting_.store(1, std::memory_order_seq_cst);
    for (;;) {
      const unsigned d = done_.load(std::memory_order_seq_cst);
      if (d == target) {
        break;
      }
      done_.wait(d, std::memory_order_seq_cst);
    }
    caller_waiting_.store(0, std::memory_order_relaxed);
  }
  if (instrument) [[unlikely]] {
    // Caller-side join wait (spin + park) books as spin time: from the
    // caller's view it is all "waiting for the barrier".
    counters_[0].spin_ns.fetch_add(jaccx::prof::now_ns() - t_busy1,
                                   std::memory_order_relaxed);
  }
  busy_.store(false, std::memory_order_release);
}

void thread_pool::worker_loop(unsigned worker) {
  std::uint64_t seen = 0;
  bool labeled = false;
  for (;;) {
    // Sampled once per region; a mode flip mid-wait books that one wait to
    // the old mode, which is fine for accounting.
    const bool instrument = jaccx::prof::enabled();
    std::uint64_t t_wait0 = 0;
    if (instrument) [[unlikely]] {
      t_wait0 = jaccx::prof::now_ns();
      if (!labeled) {
        jaccx::prof::label_this_thread(label_ + ".worker." +
                                       std::to_string(worker));
        labeled = true;
      }
    }
    if (!spin_while_epoch_is(seen)) {
      std::uint64_t t_park0 = 0;
      if (instrument) [[unlikely]] {
        t_park0 = jaccx::prof::now_ns();
      }
      // Park.  parked_ is incremented before the epoch re-check inside
      // wait(); combined with the caller's seq_cst epoch increment this
      // makes "sleep forever while a region is pending" impossible.
      parked_.fetch_add(1, std::memory_order_seq_cst);
      while (epoch_.load(std::memory_order_seq_cst) == seen) {
        epoch_.wait(seen, std::memory_order_seq_cst);
      }
      parked_.fetch_sub(1, std::memory_order_relaxed);
      if (instrument) [[unlikely]] {
        const std::uint64_t t_park1 = jaccx::prof::now_ns();
        worker_counters& c = counters_[worker];
        c.spin_ns.fetch_add(t_park0 - t_wait0, std::memory_order_relaxed);
        c.park_ns.fetch_add(t_park1 - t_park0, std::memory_order_relaxed);
        c.parks.fetch_add(1, std::memory_order_relaxed);
        jaccx::prof::emit_pool_slice(jaccx::prof::construct::pool_park,
                                     worker, t_park0, t_park1, 0);
      }
    } else if (instrument) [[unlikely]] {
      counters_[worker].spin_ns.fetch_add(jaccx::prof::now_ns() - t_wait0,
                                          std::memory_order_relaxed);
    }
    // The epoch moves at most one step past `seen` while this worker has
    // not finished the current region, so the new epoch is exactly seen+1.
    ++seen;
    if (shutdown_.load(std::memory_order_acquire)) {
      return;
    }

    std::uint64_t t_busy0 = 0;
    if (instrument) [[unlikely]] {
      t_busy0 = jaccx::prof::now_ns();
    }
    const std::uint64_t claimed =
        run_chunks(fn_, ctx_, n_, worker, region_sched_);
    if (instrument) [[unlikely]] {
      const std::uint64_t t_busy1 = jaccx::prof::now_ns();
      worker_counters& c = counters_[worker];
      c.busy_ns.fetch_add(t_busy1 - t_busy0, std::memory_order_relaxed);
      c.chunks.fetch_add(claimed, std::memory_order_relaxed);
      c.regions.fetch_add(1, std::memory_order_relaxed);
      jaccx::prof::emit_pool_slice(jaccx::prof::construct::pool_busy, worker,
                                   t_busy0, t_busy1, claimed);
    }

    // seq_cst (not acq_rel) so this increment is ordered against the
    // caller's caller_waiting_ store / done_ load pair: either the caller
    // sees the full count before parking or the last finisher sees the
    // waiting flag and issues the wake.
    const unsigned finished = done_.fetch_add(1, std::memory_order_seq_cst) + 1;
    if (finished == width_ - 1 &&
        caller_waiting_.load(std::memory_order_seq_cst) != 0) {
      done_.notify_one();
    }
  }
}

thread_pool& default_pool() {
  static thread_pool pool([] {
    const auto n = get_env_long("JACC_NUM_THREADS");
    if (n && *n > 0) {
      return static_cast<unsigned>(*n);
    }
    return 0u; // hardware concurrency
  }());
  return pool;
}

} // namespace jaccx::pool
