// jacc::queue — stream-ordered asynchronous execution as a front-end
// concept (paper Sec. VII: "more efficient exploitation of available
// resources").
//
// A queue is an in-order lane of work.  Operations enqueued on the same
// queue execute in submission order; operations on different queues may
// overlap.  The default queue is the synchronous model the paper describes:
// everything issued on it completes before the call returns, which keeps
// every pre-queue JACC program bit-identical.
//
//   jacc::queue q1, q2;                      // two user queues
//   auto e = jacc::parallel_for(q1, n, f, dx);
//   q2.wait(e);                              // cross-queue dependency
//   jacc::parallel_for(q2, n, g, dx);
//   jacc::synchronize();                     // all queues
//
// Backend mapping:
//   simulated back ends   each (queue, device) pair owns a jaccx::sim::stream
//                         ("a100.q1", ...): work executes functionally at
//                         enqueue time but is charged to the stream's clock,
//                         so H2D/kernel/D2H issued on different queues
//                         overlap in simulated time exactly as CUDA streams
//                         would (and appear as per-queue Chrome-trace lanes);
//   threads               queues map round-robin onto JACC_QUEUES async
//                         lanes, each a dispatcher thread driving a private
//                         slice of the worker budget; with one lane (or on
//                         serial) enqueues degrade to synchronous calls and
//                         the returned events are born complete.
//
// Queues are cheap shared handles (copy = same queue).  Thread safety: a
// queue may be used from multiple threads; per-queue order then follows
// submission order.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "core/backend.hpp"
#include "core/event.hpp"
#include "core/future.hpp"
#include "core/launch_desc.hpp"
#include "mem/pool.hpp"

namespace jaccx::pool {
class thread_pool;
}
namespace jaccx::sim {
class device;
class stream;
class timeline;
}

namespace jacc {

class queue;
class graph;

namespace detail {

struct queue_impl;
struct queue_access;
struct capture_builder;

/// The queue installed by the innermost live queue_scope / queue_bind on
/// this thread; null means the plain synchronous model.
queue* active_queue();

/// Allocation context for jaccx::mem: the active queue's id plus its
/// simulated stream-clock position on `dev` (device default clock when no
/// queue is active).  This is what makes pool reuse stream-ordered.  May
/// lazily create the queue's stream on `dev` — acquire paths only.
jaccx::mem::queue_ctx alloc_ctx(jaccx::sim::device* dev);

/// Release-path variant of alloc_ctx for noexcept contexts (array
/// destructors): looks up the active queue's stream on `dev` but never
/// creates one, falling back to the device's default clock, so it cannot
/// allocate.
jaccx::mem::queue_ctx release_ctx(jaccx::sim::device* dev) noexcept;

/// Applies the implicit sync a stream-ordered pool performs when a block
/// released on one queue is reused on another: advances the current charge
/// target on `dev` to the releasing queue's release time.
void note_pool_stall(jaccx::sim::device* dev, double ready_us);

/// True when work for `q` on the threads back end should run on an async
/// lane (q is not the default queue and more than one lane is configured).
bool queue_is_async(const queue& q);

/// Hands a type-erased task to q's lane dispatcher.  The task receives the
/// lane's private worker pool; `done` is marked complete after it runs.
void queue_submit(queue& q,
                  std::function<void(jaccx::pool::thread_pool*)> task,
                  std::shared_ptr<event_state> done);

/// The sim stream charges for (q, dev) land on; created on first use.
jaccx::sim::stream* queue_stream(const queue& q, jaccx::sim::device& dev);

/// Mints the completed event for a sim-backend enqueue that just ran under
/// a queue_bind, carrying the stream's completion timestamp.
event finish_sim_op(queue& q, jaccx::sim::device& dev, bool is_copy);

/// Counts an enqueue that degraded to a synchronous call (serial backend,
/// or threads with a single lane).
void note_sync_op(queue& q, bool is_copy);

/// Drains and destroys the threads async lanes (waiting for any task in
/// flight, asserting the deques are empty) and marks the lane configuration
/// unresolved, so the next async submission re-reads JACC_QUEUES against
/// the pool width of that moment.  Called by jacc::finalize() before the
/// mem-pool drain (lane tasks may hold pool blocks and may dispatch nested
/// sync work through the default pool) and by jacc::initialize() so a
/// re-initialization picks up a changed environment.  Safe to call with no
/// lanes built; live queue handles survive and re-resolve their lane on the
/// next submission.
void quiesce_lanes();

// --- graph capture plumbing (jacc::graph, core/graph.{hpp,cpp}) -------------

/// What a captured node replays as.  Kernels and copies run under the
/// queue's stream on simulated back ends; host nodes run bare (no charge);
/// wait nodes replay a recorded cross-queue edge; mem_acquire/mem_release
/// replay a pool acquire/release (core/scratch.hpp), so scratch-allocating
/// DAGs replay allocation-free out of the stream-ordered cache.
enum class capture_kind : std::uint8_t {
  kernel,
  copy,
  host,
  wait,
  mem_acquire,
  mem_release,
};

/// A pre-baked replay body: one raw function-pointer call into
/// shared-ownership state.  Compared to std::function this drops the
/// second indirection on the replay hot loop and makes the "tight loop
/// over pre-baked nodes" contract explicit.  `pl` is the worker-pool
/// override, exactly as in enqueue_common's Runner.
struct replay_body {
  void (*fn)(void* state, jaccx::pool::thread_pool* pl) = nullptr;
  std::shared_ptr<void> state;

  void operator()(jaccx::pool::thread_pool* pl) const { fn(state.get(), pl); }
  explicit operator bool() const { return fn != nullptr; }
};

template <class F>
replay_body make_replay_body(F&& f) {
  using Fn = std::decay_t<F>;
  replay_body b;
  b.state = std::make_shared<Fn>(std::forward<F>(f));
  b.fn = [](void* state, jaccx::pool::thread_pool* pl) {
    (*static_cast<Fn*>(state))(pl);
  };
  return b;
}

/// One relaxed load: is `q` currently recording into a capture?  The hot
/// enqueue paths gate on this exactly like prof::enabled().
bool queue_capturing(const queue& q);

struct fusable_kernel; // core/fuse.hpp

/// Records one node on capturing queue `q` and returns its placeholder
/// event (born complete, carrying the capture marker).  Defined in
/// graph.cpp.
event capture_append(queue& q, capture_kind kind, std::string name,
                     replay_body body);

/// As above, additionally attaching the fused-execution payload a 1D
/// elementwise kernel capture builds (core/fuse.hpp), so the post-capture
/// peephole fuser can merge this node with its neighbors.
event capture_append(queue& q, capture_kind kind, std::string name,
                     replay_body body,
                     std::shared_ptr<fusable_kernel> fusable);

/// queue::wait(e) while capturing: a marker event from the same capture
/// becomes a recorded edge (no-op within one queue, a wait node across
/// queues); external events are resolved at capture time.
void capture_wait(queue& q, const event& e);

/// queue::record() while capturing: a marker for the queue's current
/// recorded position (invalid event when nothing was recorded yet).
event capture_record(queue& q);

/// Enqueues a host callback on `q`: inline on the default queue and on
/// simulated back ends (the value feeding it is final at enqueue there), a
/// lane task under threads async, a recorded host node during capture.
/// Host callbacks charge no simulated time.
event enqueue_host(queue& q, std::string_view name,
                   std::function<void(jaccx::pool::thread_pool*)> body);

/// RAII: while alive, `q` is the thread's active queue and (when dev is a
/// simulated device and q is a real user queue) every charge on dev lands
/// on q's stream.  Null queue/device degrade to plain TLS bookkeeping.
class queue_bind {
public:
  queue_bind(queue* q, jaccx::sim::device* dev);
  ~queue_bind();
  queue_bind(const queue_bind&) = delete;
  queue_bind& operator=(const queue_bind&) = delete;

private:
  queue* prev_active_ = nullptr;
  jaccx::sim::device* dev_ = nullptr;
  jaccx::sim::timeline* prev_clock_ = nullptr;
};

/// Shared enqueue shape for every queued operation.  `run(pool)` performs
/// the operation synchronously on the calling thread (pool = worker pool
/// override, null = default).  Returns the completion handle:
///   default queue   -> run inline, trivially-complete event (sync model)
///   capturing       -> recorded as a graph node, nothing runs
///   simulated       -> run under the queue's stream, event carries the
///                      stream completion time
///   threads + lanes -> task submitted to the queue's lane
///   otherwise       -> run inline (async degrades to sync)
/// `name` labels the recorded node during capture (ignored otherwise).
template <class Runner>
event enqueue_common(queue& q, backend b, bool is_copy, std::string_view name,
                     Runner&& run);

} // namespace detail

/// One in-order execution lane.  Copy = another handle to the same queue.
class queue {
public:
  /// Creates a fresh user queue (id >= 1).
  queue();

  /// Creates a labeled user queue: its simulated streams are named
  /// "<model>.<label>" instead of "<model>.q<id>" (per-lane Chrome-trace
  /// naming; the dist layer uses "rank<r>").
  explicit queue(std::string label);

  /// The process-wide default queue (id 0): the synchronous model.
  static queue& default_queue();

  std::uint64_t id() const;
  bool is_default() const { return id() == 0; }

  /// Blocks until everything enqueued on this queue has completed, and
  /// aligns the queue's simulated streams with their device clocks.
  void synchronize();

  /// Orders all later work on this queue after `e` (which may come from
  /// another queue).  Under simulated back ends this advances the queue's
  /// stream clock on the event's device; under threads lanes it enqueues a
  /// blocking dependency task.  Complete/null events are a no-op.
  void wait(const event& e);

  /// Orders all later work on this queue after the reduction behind `f`
  /// completes — the no-host-round-trip half of a future (the value half
  /// is f.get()).
  template <class T>
  void wait(const future<T>& f) {
    wait(f.done());
  }

  /// Marks this queue's current position (cudaEventRecord): the returned
  /// event completes once everything submitted so far has finished.  On
  /// simulated back ends it is born complete carrying the stream clock; on
  /// the default queue it is the invalid (trivially complete) event.
  event record();

  /// Starts recording this queue's submissions into a jacc::graph
  /// (cudaStreamBeginCapture).  Until end_capture, enqueues on this queue
  /// record nodes instead of running; the front-end dispatch work (capture
  /// policy, hint resolution, descriptor building) is done once here and
  /// never again on replay.  Multi-queue DAGs use jacc::capture_scope.
  /// Throws jaccx::usage_error on the default queue or when a capture is
  /// already recording here.
  void begin_capture();

  /// Finishes recording and returns the immutable, replayable graph.
  /// Throws jaccx::usage_error when no capture is recording on this queue
  /// or when the capture was started by a capture_scope (end it there).
  graph end_capture();

  /// True while a capture is recording this queue's submissions.
  bool capturing() const;

  /// Non-blocking sum-reduction on this queue over the shape `s` (an
  /// extent, dims2 or dims3): runs after everything already submitted here
  /// and returns a jacc::future<R> instead of blocking the host.  On
  /// simulated back ends the value is final immediately (functional
  /// execution at enqueue) and only the *charges* land on the queue's
  /// stream; on threads async lanes the host genuinely continues while the
  /// lane computes.  The free jacc::parallel_reduce(q, ...) overloads are
  /// these calls plus .get().
  template <detail::launch_shape S, class F, class... Args>
  auto parallel_reduce(const hints& h, S s, F&& f, Args&&... args);

  template <class S, class F, class... Args>
    requires detail::kernel_for<S, F, Args...>
  auto parallel_reduce(S s, F&& f, Args&&... args);

  /// Simulated-clock position of this queue on the current backend's
  /// device (0 under real back ends).  Diagnostics and tests.
  double now_us() const;

private:
  friend struct detail::queue_access;
  explicit queue(std::shared_ptr<detail::queue_impl> impl)
      : impl_(std::move(impl)) {}

  std::shared_ptr<detail::queue_impl> impl_;
};

namespace detail {

/// Internal accessor so queue.cpp (and only it) reaches the impl.
struct queue_access {
  static queue_impl* impl(const queue& q) { return q.impl_.get(); }
  static std::shared_ptr<queue_impl> impl_ptr(const queue& q) {
    return q.impl_;
  }
  static queue wrap(std::shared_ptr<queue_impl> impl) {
    return queue(std::move(impl));
  }
};

template <class Runner>
event enqueue_common(queue& q, backend b, bool is_copy, std::string_view name,
                     Runner&& run) {
  if (q.is_default()) {
    // The sync model, untouched: no stream, no TLS, no event state.
    run(static_cast<jaccx::pool::thread_pool*>(nullptr));
    return event{};
  }
  if (queue_capturing(q)) [[unlikely]] {
    return capture_append(q, is_copy ? capture_kind::copy : capture_kind::kernel,
                          std::string(name),
                          make_replay_body(std::forward<Runner>(run)));
  }
  if (jaccx::sim::device* dev = backend_device(b); dev != nullptr) {
    queue_bind bind(&q, dev);
    run(static_cast<jaccx::pool::thread_pool*>(nullptr));
    return finish_sim_op(q, *dev, is_copy);
  }
  if (b == backend::threads && queue_is_async(q)) {
    auto st = std::make_shared<event_state>();
    queue_submit(q, std::forward<Runner>(run), st);
    return event_access::make(std::move(st));
  }
  run(static_cast<jaccx::pool::thread_pool*>(nullptr));
  note_sync_op(q, is_copy);
  return event{};
}

} // namespace detail

/// RAII: routes every jacc construct (and jacc::array charge) issued on
/// this thread through `q` while alive.  Under simulated back ends the
/// current backend's device charges land on q's stream for the whole scope.
class queue_scope {
public:
  explicit queue_scope(queue& q)
      : bind_(&q, backend_device(current_backend())) {}

private:
  detail::queue_bind bind_;
};

/// Lane configuration for the threads back end.  `resolve_queue_lanes` is
/// the pure policy (JACC_QUEUES env beats the width heuristic: 2 lanes when
/// the pool is at least 4 wide, else 1); `queue_lane_count/width` report
/// the installed configuration, resolving it on first call.
int resolve_queue_lanes(unsigned pool_width);
int queue_lane_count();
unsigned queue_lane_width();

} // namespace jacc
