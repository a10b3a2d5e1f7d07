// jaccx::serve — a multi-tenant job scheduler over the queue/lane pool.
//
// ROADMAP item 5, the "millions of users" scenario made concrete: N
// concurrent solver/LBM jobs are submitted as work items to one shared
// scheduler that owns the execution slots (jacc::queue per slot), instead
// of each caller building private queues and fighting over the machine.
// The shape follows the original JACC OpenACC runtime (arXiv:2110.14340):
// asynchronous kernel-level scheduling behind a simple submission API.
//
//   jaccx::serve::scheduler sched({.slots = 4});
//   auto a = sched.open_tenant("alice", /*weight=*/2.0);
//   auto b = sched.open_tenant("bob");
//   auto h = sched.submit(a, [&](jacc::queue& q) {
//     jacc::parallel_for(q, n, kernel, xs, ys);
//   });
//   h.wait();
//   sched.drain();
//
// Scheduling model
//   * Strict priority classes (high > normal > low): a ready high job
//     always dispatches before a ready normal one.
//   * Within a class, weighted fair queueing by virtual time: each tenant
//     accumulates vtime = Σ measured_job_us / weight, and the tenant with
//     the smallest vtime dispatches next, so long-run slot time divides
//     proportionally to weight and no tenant starves.  A tenant going
//     idle forfeits unused credit (its vtime is clamped up to the global
//     virtual clock when it becomes active again).
//   * Jobs of one tenant dispatch in submission order.
//
// Execution model
//   * `threads` back end: one worker thread per slot, each owning a
//     labeled queue ("serve.s<k>") pinned round-robin to the dispatcher
//     lanes — the capped lane pool (lanes never exceed the worker-pool
//     width, docs/ASYNC.md) bounds oversubscription.  Worker concurrency
//     is clamped to the lane count: with one lane queue ops degrade to
//     synchronous calls on the shared default pool, which admits only one
//     runner at a time.  The worker-thread count is fixed at construction;
//     the number of jobs running at once follows the lane count current at
//     dispatch, so a mid-serving jacc::initialize() that drops to one lane
//     also drops to one running job.
//   * simulated back ends: devices execute functionally at enqueue and are
//     not thread-safe, so one runner thread executes jobs in submission
//     order, but each job is bound to its *tenant's* slot queue
//     (tenant index mod slots) — per-tenant sim streams — so independent
//     tenants' charges overlap in simulated time exactly as concurrent
//     CUDA streams would.
//   * serial: one worker thread per slot running the loops inline.
//
// Admission control (long-running servers): with a memory budget set,
// a job is admitted only while live + cached pool bytes plus the byte
// hints of every in-flight job stay under the budget; otherwise it parks
// on a deferred FIFO and re-enters admission when a job completes or the
// pool reports memory pressure (mem::add_pressure_callback — fired by the
// trim-and-retry allocation path).  When nothing is running and nothing
// else is ready, the head deferred job is force-admitted after a
// trim-to-budget so the server always makes progress; the pool's
// trim-once-and-retry on std::bad_alloc is the backstop underneath.
//
// Env rows (docs/SERVING.md; explicit options fields win over env):
//   JACC_SERVE_SLOTS        execution slots (default: lane count on
//                           threads, 4 otherwise)
//   JACC_SERVE_MEM_MB       admission budget in MiB (0 = no admission
//                           control, the default)
//   JACC_SERVE_MAX_PENDING  max queued+deferred jobs before submissions
//                           are rejected (0 = unbounded, the default)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/graph.hpp"
#include "core/queue.hpp"
#include "prof/prof.hpp"

namespace jaccx::serve {

namespace detail {
struct scheduler_state;
struct tenant_state;
struct job_state;
} // namespace detail

/// Strict dispatch classes: a ready higher-class job always beats a ready
/// lower-class one.  Fairness (weights) applies within a class.
enum class priority : int { low = 0, normal = 1, high = 2 };

struct options {
  /// Execution slots (concurrent jobs the scheduler aims for).  0 = auto:
  /// the dispatcher lane count on `threads`, 4 otherwise.
  int slots = 0;
  /// Admission budget in bytes against mem::live_bytes() +
  /// mem::cached_bytes() + in-flight byte hints.  0 = no admission control.
  std::uint64_t mem_budget_bytes = 0;
  /// Queued + deferred jobs beyond which submissions are rejected
  /// (overload shedding).  0 = unbounded.
  std::size_t max_pending = 0;
};

enum class job_status : int {
  queued,   ///< admitted, waiting for a slot
  deferred, ///< parked by admission control
  running,
  done,
  failed,   ///< the job body threw; error() carries the message
  rejected, ///< shed at submission (max_pending)
};

/// Cheap shared handle to one submitted job.
class job_handle {
public:
  job_handle() = default;
  explicit operator bool() const { return s_ != nullptr; }

  job_status status() const;
  /// Blocks until the job reaches done, failed, or rejected.
  void wait() const;
  /// True once the job finished in any terminal state.
  bool terminal() const;
  /// Submission -> slot-pickup latency (0 until the job starts).
  double queue_wait_us() const;
  /// True when admission control parked this job at least once.
  bool was_deferred() const;
  /// The exception message for a failed job ("" otherwise).
  std::string error() const;

private:
  friend class scheduler;
  std::shared_ptr<detail::job_state> s_;
};

/// Cheap shared handle to one tenant, minted by scheduler::open_tenant.
class tenant {
public:
  tenant() = default;
  explicit operator bool() const { return s_ != nullptr; }
  const std::string& name() const;
  double weight() const;
  priority prio() const;

private:
  friend class scheduler;
  std::shared_ptr<detail::tenant_state> s_;
};

class scheduler {
public:
  explicit scheduler(options opt = {});
  /// Drains outstanding jobs, stops the workers, unregisters the prof
  /// source and the pool pressure callback.
  ~scheduler();
  scheduler(const scheduler&) = delete;
  scheduler& operator=(const scheduler&) = delete;

  /// Registers a tenant.  `weight` scales its fair share within its
  /// priority class (2.0 = twice the slot time of a weight-1.0 peer).
  tenant open_tenant(std::string name, double weight = 1.0,
                     priority p = priority::normal);

  /// Submits a job: a callable issuing work on the queue it is handed
  /// (use the jacc::parallel_* overloads taking a queue, or graph
  /// launches).  `bytes_hint` is the job's expected peak pool footprint,
  /// consulted by admission control.  Returns immediately.
  job_handle submit(const tenant& t, std::function<void(jacc::queue&)> work,
                    std::uint64_t bytes_hint = 0);

  /// Submits a pre-captured graph as a job: replays g.launch(q) on the
  /// slot queue.  The caller must not submit the SAME graph again while a
  /// previous replay of it may still be running (one replay of a given
  /// graph at a time — graphs from different submissions may interleave
  /// freely).
  job_handle submit(const tenant& t, jacc::graph g,
                    std::uint64_t bytes_hint = 0);

  /// Blocks until every submitted job reached a terminal state.
  void drain();

  /// Live per-tenant and per-slot counters (also registered as prof's
  /// serve source, so JACC_PROFILE=summary prints them at finalize).
  prof::serve_stats stats() const;

  int slots() const;
  /// Worker threads started at construction (see the execution model
  /// above: 1 on simulated back ends, min(slots, lanes) on threads).  On
  /// threads, fewer may run jobs at once after a re-init shrank the lanes.
  int workers() const;

private:
  std::shared_ptr<detail::scheduler_state> s_;
};

} // namespace jaccx::serve
