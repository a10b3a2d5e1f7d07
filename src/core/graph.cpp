// jacc::graph capture & replay engine (see graph.hpp for the model).
//
// Capture: each recording queue's impl carries an atomic builder pointer;
// the enqueue hot paths check it with one relaxed load and, when set,
// append a pre-baked node instead of running.  Placeholder events minted
// during capture are born complete and carry (capture_id, node index), so
// queue::wait can turn them into recorded edges.
//
// Replay: one pass over the immutable node list.
//   simulated back ends  every kernel/copy body re-runs under its queue's
//                        stream via queue_bind, so the charge path — and
//                        therefore model time — is identical to eager
//                        issue; recorded wait edges advance the consumer
//                        stream to the producer node's completion time.
//   serial / 1-lane      a tight inline loop: one indirect call per node,
//                        no descriptor building, no capture policy, no
//                        routing — the dispatch work was done at capture.
//   threads async lanes  ONE lane task per captured queue runs that
//                        queue's nodes in order (N nodes cost one
//                        submission round-trip), with per-replay completion
//                        events realizing recorded cross-queue edges.
#include "core/graph.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/fuse.hpp"
#include "core/parallel_for.hpp"
#include "core/queue_impl.hpp"
#include "prof/prof.hpp"
#include "sim/device.hpp"
#include "sim/stream.hpp"
#include "support/error.hpp"
#include "threadpool/thread_pool.hpp"

namespace jacc {
namespace detail {

namespace {
std::atomic<std::uint64_t> g_capture_ids{0};
} // namespace

/// One recorded node.  `dep` (wait nodes only) indexes the producer node.
struct graph_node {
  capture_kind kind = capture_kind::kernel;
  int slot = 0;             ///< which captured queue issued it
  std::int64_t dep = -1;    ///< producer node for wait edges
  bool needs_event = false; ///< some wait node depends on this one
  std::string name;
  replay_body body;
  /// Fused-execution payload for 1D elementwise kernel captures
  /// (core/fuse.hpp); null for everything else.  Consumed by the
  /// post-capture chain fuser, inert on the replay paths.
  std::shared_ptr<fusable_kernel> fusable;
};

/// Mutable state while a capture is recording.  `mu` guards the node list
/// (captures may record from several host threads, like queues).
struct capture_builder {
  std::uint64_t id = 0;
  backend captured_backend{};
  bool scope_owned = false; ///< started by capture_scope; end there
  std::mutex mu;
  std::vector<graph_node> nodes;
  std::vector<std::shared_ptr<queue_impl>> slots;

  int slot_of(const queue_impl* qi) const {
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (slots[s].get() == qi) {
        return static_cast<int>(s);
      }
    }
    return -1;
  }
};

/// The immutable replayable recording.
struct graph_impl {
  std::uint64_t capture_id = 0;
  backend captured_backend{};
  std::vector<graph_node> nodes;
  std::vector<std::shared_ptr<queue_impl>> slots;
  std::vector<std::vector<std::uint32_t>> per_slot; ///< node ids, in order
  /// Per-slot op counts, charged to the queue counters on every replay so
  /// prof's queue table stays truthful under replay.
  std::vector<std::uint64_t> slot_kernels, slot_copies, slot_waits;
  std::atomic<std::uint64_t> replays{0};
};

std::shared_ptr<capture_builder> capture_begin(
    std::initializer_list<queue*> qs, bool scope_owned) {
  if (qs.size() == 0) {
    jaccx::throw_usage_error("graph capture needs at least one queue");
  }
  auto b = std::make_shared<capture_builder>();
  b->id = 1 + g_capture_ids.fetch_add(1, std::memory_order_relaxed);
  b->captured_backend = current_backend();
  b->scope_owned = scope_owned;
  for (queue* q : qs) {
    if (q == nullptr || queue_access::impl(*q) == nullptr || q->is_default()) {
      jaccx::throw_usage_error(
          "graph capture requires non-default user queues");
    }
    if (b->slot_of(queue_access::impl(*q)) >= 0) {
      jaccx::throw_usage_error("graph capture lists a queue twice");
    }
    b->slots.push_back(queue_access::impl_ptr(*q));
  }
  // Install under every queue's mutex, taken in address order so two
  // concurrent begins over overlapping queue sets cannot deadlock; a
  // conflict throws before anything was installed.
  std::vector<queue_impl*> order;
  order.reserve(b->slots.size());
  for (const auto& sp : b->slots) {
    order.push_back(sp.get());
  }
  std::sort(order.begin(), order.end());
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(order.size());
  for (queue_impl* qi : order) {
    locks.emplace_back(qi->mu);
  }
  for (queue_impl* qi : order) {
    if (qi->cap_owner != nullptr) {
      jaccx::throw_usage_error("queue is already recording a graph capture");
    }
  }
  for (queue_impl* qi : order) {
    qi->cap_owner = b;
    qi->cap.store(b.get(), std::memory_order_release);
  }
  return b;
}

namespace {

/// Detaches the builder from its queues (capture over, recording stops).
void capture_detach(capture_builder& b) {
  for (const auto& qi : b.slots) {
    const std::lock_guard lock(qi->mu);
    if (qi->cap_owner.get() == &b) {
      qi->cap.store(nullptr, std::memory_order_release);
      qi->cap_owner.reset();
    }
  }
}

/// Shared state of one fused chain node: the joined name (the replay hint
/// string_view points into it), the fused accounting, and the member
/// kernels' per-index bodies in original submission order.
struct fused_chain {
  std::string name;
  index_t n = 0;
  double flops = 0.0;
  double bytes = 0.0;
  std::vector<std::function<void(index_t)>> parts;
};

/// The JACC_FUSE=graph|all peephole pass (docs/FUSION.md).  Merges maximal
/// runs of *consecutive* nodes that are 1D elementwise kernels with a
/// fusable payload, on the same slot, over the same index space, into one
/// pre-baked node that runs all member bodies per index in submission
/// order.  Consecutive-in-the-global-list is the legality test: ANY
/// intervening node — a copy, a host node, another queue's kernel, a wait
/// edge — breaks the chain, which is exactly what makes cross-queue edges
/// and non-elementwise hazards block fusion.  RAW between members (a later
/// member reading an array an earlier member wrote) is allowed — per-index
/// the statements run in order, so the dataflow matches the unfused sweeps
/// for elementwise kernels.  A node some wait edge depends on always ends
/// its chain, so the merged node's completion coincides with the recorded
/// edge's producer and the dep can be remapped soundly.
void fuse_chains(graph_impl& g) {
  std::vector<graph_node> old = std::move(g.nodes);
  g.nodes.clear();
  g.nodes.reserve(old.size());
  std::vector<char> has_waiter(old.size(), 0);
  for (const graph_node& nd : old) {
    if (nd.kind == capture_kind::wait && nd.dep >= 0) {
      has_waiter[static_cast<std::size_t>(nd.dep)] = 1;
    }
  }
  std::vector<std::int64_t> remap(old.size(), -1);
  std::vector<std::size_t> chain;

  const auto flush = [&] {
    if (chain.empty()) {
      return;
    }
    const auto out = static_cast<std::int64_t>(g.nodes.size());
    for (const std::size_t m : chain) {
      remap[m] = out;
    }
    if (chain.size() == 1) {
      g.nodes.push_back(std::move(old[chain[0]]));
      chain.clear();
      return;
    }
    auto fc = std::make_shared<fused_chain>();
    fc->n = old[chain[0]].fusable->n;
    std::vector<fuse_footprint> fps;
    for (const std::size_t m : chain) {
      if (!fc->name.empty()) {
        fc->name += '+';
      }
      fc->name += old[m].name;
      fc->flops += old[m].fusable->flops_per_index;
      fps.insert(fps.end(), old[m].fusable->footprints.begin(),
                 old[m].fusable->footprints.end());
      fc->parts.push_back(old[m].fusable->per_index);
    }
    fc->bytes = fused_hint_bytes(fps);
    graph_node fused;
    fused.kind = capture_kind::kernel;
    fused.slot = old[chain[0]].slot;
    fused.name = fc->name;
    fused.body = make_replay_body(
        [fc, b = g.captured_backend](jaccx::pool::thread_pool* pl) {
          hints h;
          h.name = fc->name;
          h.flops_per_index = fc->flops;
          h.bytes_per_index = fc->bytes;
          h.elementwise = true;
          execute_for<1>(b, pl, launch_desc::of(h, fc->n), [&](index_t i) {
            for (const auto& p : fc->parts) {
              p(i);
            }
          });
        });
    g.nodes.push_back(std::move(fused));
    chain.clear();
  };

  for (std::size_t i = 0; i < old.size(); ++i) {
    graph_node& nd = old[i];
    const bool fusable_node = nd.kind == capture_kind::kernel &&
                              nd.fusable != nullptr &&
                              nd.fusable->per_index != nullptr;
    const bool extends = fusable_node && !chain.empty() &&
                         old[chain.back()].slot == nd.slot &&
                         old[chain.back()].fusable->n == nd.fusable->n;
    if (!extends) {
      flush();
    }
    if (fusable_node) {
      chain.push_back(i);
      if (has_waiter[i]) {
        flush();
      }
      continue;
    }
    if (nd.kind == capture_kind::wait) {
      nd.dep = remap[static_cast<std::size_t>(nd.dep)];
      JACCX_ASSERT(nd.dep >= 0 && "wait edge on a not-yet-emitted node");
    }
    remap[i] = static_cast<std::int64_t>(g.nodes.size());
    g.nodes.push_back(std::move(nd));
  }
  flush();
}

} // namespace

graph capture_finish(std::shared_ptr<capture_builder> b) {
  capture_detach(*b);
  auto g = std::make_shared<graph_impl>();
  g->capture_id = b->id;
  g->captured_backend = b->captured_backend;
  g->nodes = std::move(b->nodes);
  g->slots = std::move(b->slots);
  // Scratch lifetimes must close inside the capture: an unbalanced
  // acquire would leak one pool block per replay.
  std::int64_t mem_balance = 0;
  for (const graph_node& nd : g->nodes) {
    if (nd.kind == capture_kind::mem_acquire) {
      ++mem_balance;
    } else if (nd.kind == capture_kind::mem_release) {
      --mem_balance;
    }
  }
  if (mem_balance != 0) {
    jaccx::throw_usage_error(
        "graph capture has unbalanced scratch acquire/release nodes");
  }
  if (jacc::fuse_graph()) {
    fuse_chains(*g);
  }
  const std::size_t nslots = g->slots.size();
  g->per_slot.resize(nslots);
  g->slot_kernels.assign(nslots, 0);
  g->slot_copies.assign(nslots, 0);
  g->slot_waits.assign(nslots, 0);
  for (std::size_t i = 0; i < g->nodes.size(); ++i) {
    graph_node& nd = g->nodes[i];
    const auto s = static_cast<std::size_t>(nd.slot);
    g->per_slot[s].push_back(static_cast<std::uint32_t>(i));
    switch (nd.kind) {
    case capture_kind::kernel:
      ++g->slot_kernels[s];
      break;
    case capture_kind::copy:
      ++g->slot_copies[s];
      break;
    case capture_kind::host:
      break;
    case capture_kind::wait:
      ++g->slot_waits[s];
      g->nodes[static_cast<std::size_t>(nd.dep)].needs_event = true;
      break;
    case capture_kind::mem_acquire:
    case capture_kind::mem_release:
      // Pool traffic, not queue work: neither a kernel nor a copy in the
      // per-queue counters.
      break;
    }
  }
  return graph_access::make(std::move(g));
}

void capture_abort(std::shared_ptr<capture_builder> b) noexcept {
  capture_detach(*b);
  // Nodes (and any future slots their bodies lease) die with the builder.
}

event capture_append(queue& q, capture_kind kind, std::string name,
                     replay_body body) {
  queue_impl* qi = queue_access::impl(q);
  capture_builder* b = qi->cap.load(std::memory_order_acquire);
  JACCX_ASSERT(b != nullptr && "capture_append on a non-capturing queue");
  std::int64_t idx;
  {
    const std::lock_guard lock(b->mu);
    idx = static_cast<std::int64_t>(b->nodes.size());
    graph_node nd;
    nd.kind = kind;
    nd.slot = b->slot_of(qi);
    nd.name = std::move(name);
    nd.body = std::move(body);
    b->nodes.push_back(std::move(nd));
  }
  auto st = std::make_shared<event_state>();
  st->queue_id = qi->id;
  st->capture_id = b->id;
  st->capture_node = idx;
  st->complete.store(true, std::memory_order_release);
  return event_access::make(std::move(st));
}

event capture_append(queue& q, capture_kind kind, std::string name,
                     replay_body body,
                     std::shared_ptr<fusable_kernel> fusable) {
  queue_impl* qi = queue_access::impl(q);
  capture_builder* b = qi->cap.load(std::memory_order_acquire);
  JACCX_ASSERT(b != nullptr && "capture_append on a non-capturing queue");
  std::int64_t idx;
  {
    const std::lock_guard lock(b->mu);
    idx = static_cast<std::int64_t>(b->nodes.size());
    graph_node nd;
    nd.kind = kind;
    nd.slot = b->slot_of(qi);
    nd.name = std::move(name);
    nd.body = std::move(body);
    nd.fusable = std::move(fusable);
    b->nodes.push_back(std::move(nd));
  }
  auto st = std::make_shared<event_state>();
  st->queue_id = qi->id;
  st->capture_id = b->id;
  st->capture_node = idx;
  st->complete.store(true, std::memory_order_release);
  return event_access::make(std::move(st));
}

void capture_wait(queue& q, const event& e) {
  const auto& st = event_access::state(e);
  if (st == nullptr) {
    return; // null events are trivially complete, in capture too
  }
  queue_impl* qi = queue_access::impl(q);
  capture_builder* b = qi->cap.load(std::memory_order_acquire);
  JACCX_ASSERT(b != nullptr && "capture_wait on a non-capturing queue");
  if (st->capture_id == b->id && st->capture_node >= 0) {
    const std::lock_guard lock(b->mu);
    const int my_slot = b->slot_of(qi);
    const auto dep = static_cast<std::size_t>(st->capture_node);
    if (b->nodes[dep].slot == my_slot) {
      return; // same queue: submission order already covers it
    }
    graph_node nd;
    nd.kind = capture_kind::wait;
    nd.slot = my_slot;
    nd.dep = st->capture_node;
    nd.name = "queue.wait";
    b->nodes.push_back(std::move(nd));
    return;
  }
  // An event from outside the capture (another capture's marker included —
  // its capture_id differs).  It is resolved at record time: wait here so
  // the graph is recorded as starting strictly after it; replays assume
  // the dependency still holds (the caller re-establishes it if not).
  st->wait();
}

event capture_record(queue& q) {
  queue_impl* qi = queue_access::impl(q);
  capture_builder* b = qi->cap.load(std::memory_order_acquire);
  JACCX_ASSERT(b != nullptr && "capture_record on a non-capturing queue");
  const std::lock_guard lock(b->mu);
  const int my_slot = b->slot_of(qi);
  for (std::size_t i = b->nodes.size(); i-- > 0;) {
    if (b->nodes[i].slot == my_slot) {
      auto st = std::make_shared<event_state>();
      st->queue_id = qi->id;
      st->capture_id = b->id;
      st->capture_node = static_cast<std::int64_t>(i);
      st->complete.store(true, std::memory_order_release);
      return event_access::make(std::move(st));
    }
  }
  return event{}; // nothing recorded on this queue yet
}

} // namespace detail

void queue::begin_capture() {
  detail::capture_begin({this}, /*scope_owned=*/false);
  // The builder's ownership lives in the queue impl (cap_owner); the
  // returned shared_ptr is deliberately dropped.
}

graph queue::end_capture() {
  if (impl_ == nullptr || is_default()) {
    jaccx::throw_usage_error("end_capture on the default queue");
  }
  std::shared_ptr<detail::capture_builder> b;
  {
    const std::lock_guard lock(impl_->mu);
    b = impl_->cap_owner;
  }
  if (b == nullptr) {
    jaccx::throw_usage_error("end_capture without begin_capture");
  }
  if (b->scope_owned) {
    jaccx::throw_usage_error(
        "capture was started by a capture_scope; end it there");
  }
  if (b->slots[0].get() != impl_.get()) {
    jaccx::throw_usage_error("end_capture on a non-primary capture queue");
  }
  return detail::capture_finish(std::move(b));
}

bool queue::capturing() const { return detail::queue_capturing(*this); }

std::size_t graph::node_count() const {
  return impl_ != nullptr ? impl_->nodes.size() : 0;
}

std::uint64_t graph::replays() const {
  return impl_ != nullptr
             ? impl_->replays.load(std::memory_order_relaxed)
             : 0;
}

event graph::launch() {
  if (impl_ == nullptr) {
    jaccx::throw_usage_error("launch on an empty jacc::graph");
  }
  queue primary = detail::queue_access::wrap(impl_->slots[0]);
  return launch(primary);
}

event graph::launch(queue& q) {
  detail::graph_impl* g = impl_.get();
  if (g == nullptr) {
    jaccx::throw_usage_error("launch on an empty jacc::graph");
  }
  if (detail::queue_access::impl(q) == nullptr || q.is_default()) {
    jaccx::throw_usage_error("graph::launch requires a non-default queue");
  }
  if (detail::queue_capturing(q)) {
    jaccx::throw_usage_error(
        "graph::launch on a capturing queue (nested graphs not supported)");
  }
  const backend b = current_backend();
  if (b != g->captured_backend) {
    jaccx::throw_usage_error(
        "graph replayed under a different backend than it was captured on");
  }
  g->replays.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t kernel_count = 0;
  for (const std::uint64_t k : g->slot_kernels) {
    kernel_count += k;
  }
  // One span per replay (all three replay paths return through this scope),
  // carrying the node and kernel-node counts into the trace and summary.
  const jaccx::prof::graph_replay_scope replay_scope(g->nodes.size(),
                                                     kernel_count);

  // Slot 0 is substituted by the launch queue; secondary captured queues
  // replay as themselves.  Per-queue counters are bulk-added from the
  // per-slot node counts — no per-node accounting on the replay path.
  for (std::size_t s = 0; s < g->slots.size(); ++s) {
    detail::queue_impl* qi =
        s == 0 ? detail::queue_access::impl(q) : g->slots[s].get();
    qi->launches.fetch_add(g->slot_kernels[s], std::memory_order_relaxed);
    qi->copies.fetch_add(g->slot_copies[s], std::memory_order_relaxed);
    qi->waits.fetch_add(g->slot_waits[s], std::memory_order_relaxed);
  }
  // The queue-handle table is only needed by the paths that route work per
  // slot; the inline loop below never touches it (it is a heap allocation
  // per replay, visible at this bench's nanosecond scale).
  const auto make_qs = [&] {
    std::vector<queue> qs;
    qs.reserve(g->slots.size());
    qs.push_back(q);
    for (std::size_t s = 1; s < g->slots.size(); ++s) {
      qs.push_back(detail::queue_access::wrap(g->slots[s]));
    }
    return qs;
  };

  if (jaccx::sim::device* dev = backend_device(b); dev != nullptr) {
    std::vector<queue> qs = make_qs();
    // Same charge path as eager issue: each body runs under its queue's
    // stream, so model time per node is identical; recorded edges advance
    // the consumer stream exactly as queue::wait would have.
    std::vector<double> done(g->nodes.size(), 0.0);
    for (std::size_t i = 0; i < g->nodes.size(); ++i) {
      const detail::graph_node& nd = g->nodes[i];
      queue& nq = qs[static_cast<std::size_t>(nd.slot)];
      switch (nd.kind) {
      case detail::capture_kind::wait: {
        jaccx::sim::timeline& tl = detail::queue_stream(nq, *dev)->tl();
        const double behind =
            done[static_cast<std::size_t>(nd.dep)] - tl.now_us();
        if (behind > 0.0) {
          tl.record("queue.wait", jaccx::sim::event_kind::kernel, behind);
        }
        done[i] = tl.now_us();
        break;
      }
      case detail::capture_kind::host: {
        nd.body(nullptr); // host work charges nothing
        done[i] = detail::queue_stream(nq, *dev)->now_us();
        break;
      }
      default: {
        const detail::queue_bind bind(&nq, dev);
        nd.body(nullptr);
        done[i] = detail::queue_stream(nq, *dev)->now_us();
        break;
      }
      }
    }
    auto st = std::make_shared<detail::event_state>();
    st->dev = dev;
    st->queue_id = q.id();
    st->sim_done_us = detail::queue_stream(q, *dev)->now_us();
    st->complete.store(true, std::memory_order_release);
    return detail::event_access::make(std::move(st));
  }

  if (b == backend::threads && detail::queue_is_async(q)) {
    std::vector<queue> qs = make_qs();
    // One lane task per captured queue replays that queue's nodes in
    // order: a whole chain costs one submission round-trip instead of one
    // per node.  Recorded cross-queue edges block on per-replay producer
    // events; deps always point at earlier-recorded nodes, so chains on
    // distinct lanes cannot cycle.
    auto prod = std::make_shared<
        std::vector<std::shared_ptr<detail::event_state>>>(g->nodes.size());
    for (std::size_t i = 0; i < g->nodes.size(); ++i) {
      if (g->nodes[i].needs_event) {
        (*prod)[i] = std::make_shared<detail::event_state>();
      }
    }
    std::shared_ptr<detail::event_state> primary_done;
    std::vector<std::shared_ptr<detail::event_state>> others;
    for (std::size_t s = 0; s < qs.size(); ++s) {
      if (g->per_slot[s].empty() && s != 0) {
        continue;
      }
      auto es = std::make_shared<detail::event_state>();
      detail::queue_submit(
          qs[s],
          [gimpl = impl_, s, prod](jaccx::pool::thread_pool* pl) {
            for (const std::uint32_t idx : gimpl->per_slot[s]) {
              const detail::graph_node& nd = gimpl->nodes[idx];
              if (nd.kind == detail::capture_kind::wait) {
                if (const auto& pe =
                        (*prod)[static_cast<std::size_t>(nd.dep)]) {
                  pe->wait();
                }
              } else {
                nd.body(pl);
              }
              if (const auto& pe = (*prod)[idx]) {
                pe->mark_complete();
              }
            }
          },
          es);
      if (s == 0) {
        primary_done = std::move(es);
      } else {
        others.push_back(std::move(es));
      }
    }
    if (!others.empty()) {
      // The returned event completes when every chain has: a fence task on
      // the primary queue joins the secondary chains.
      auto fence = std::make_shared<detail::event_state>();
      detail::queue_submit(
          qs[0],
          [others](jaccx::pool::thread_pool*) {
            for (const auto& e : others) {
              e->wait();
            }
          },
          fence);
      return detail::event_access::make(std::move(fence));
    }
    return detail::event_access::make(std::move(primary_done));
  }

  // Serial / single-lane threads: the tight inline loop the roadmap item
  // names — one indirect call per pre-baked node.
  for (const detail::graph_node& nd : g->nodes) {
    if (nd.body) {
      nd.body(nullptr);
    }
  }
  return event{};
}

} // namespace jacc
