// jacc::parallel_reduce — the paper's second construct (Sec. III, Fig. 2).
//
//   res = jacc::parallel_reduce(n, f, args...)           sum of f(i, args...)
//   res = jacc::parallel_reduce(dims2{M,N}, f, args...)  sum of f(i, j, ...)
//   res = jacc::parallel_reduce(dims3{M,N,K}, f, ...)    sum of f(i, j, k, ...)
//
// plus 1D min/max variants (a JACC.jl extension).  Like parallel_for, every
// form lowers to one launch_desc and one rank-generic body,
// reduce_execute<Rank>, with a single backend switch.  The result is returned on
// the host; under simulated GPU back ends that implies the same two-kernel
// shared-memory tree reduction + scalar D2H transfer the paper's Fig. 3
// shows — which is exactly why DOT trails AXPY on every GPU in Figs. 8/9.
//
// Under JACC_MEM_POOL=none the GPU path allocates its partials/result
// buffers per call, as both JACC.jl and the paper's hand-written comparator
// do (CUDA.zeros in Fig. 3); that allocation traffic is part of the
// measured small-size overhead.  Under the default bucket mode the scratch
// persists per (device, element size) — no per-call allocation, and the
// two zero-fill kernels are skipped (see mem/workspace.hpp).
#pragma once

#include <array>
#include <cstring>
#include <limits>
#include <type_traits>

#include "core/parallel_for.hpp"
#include "mem/pool.hpp"
#include "mem/workspace.hpp"

namespace jacc {

/// Built-in reduction operators.  A reducer supplies an identity and a
/// binary combine; both are used on every backend so results agree across
/// targets (up to floating-point association order).
struct plus_reducer {
  template <class R>
  static constexpr R identity() {
    return R{};
  }
  template <class R>
  R operator()(R a, R b) const {
    return a + b;
  }
};

struct min_reducer {
  template <class R>
  static constexpr R identity() {
    return std::numeric_limits<R>::max();
  }
  template <class R>
  R operator()(R a, R b) const {
    return b < a ? b : a;
  }
};

struct max_reducer {
  template <class R>
  static constexpr R identity() {
    return std::numeric_limits<R>::lowest();
  }
  template <class R>
  R operator()(R a, R b) const {
    return a < b ? b : a;
  }
};

namespace detail {

/// Number of lanes per block in the generic GPU reduction: 512, the same
/// fixed power-of-two JACC.jl and the paper's Fig. 3 native code use; the
/// tree loop below requires the power of two.
inline constexpr std::int64_t reduce_block = 512;

/// Zero-fill kernel standing in for CUDA.zeros / AMDGPU.zeros /
/// oneAPI.zeros: real work on real devices, so it is charged as a kernel.
template <class R>
void fill_zero_sim(jaccx::sim::device& dev, jaccx::sim::device_span<R> s) {
  const std::int64_t n = s.size();
  const auto cfg =
      gpu_config<1>(dev, launch_desc::of(hints{.name = "jacc.zeros"}, n));
  jaccx::sim::launch(dev, cfg, [s, n](jaccx::sim::kernel_ctx& ctx) {
    const index_t i = ctx.global_x();
    if (i < n) {
      s[i] = R{};
    }
  });
}

/// Two-kernel shared-memory tree reduction on a simulated GPU.  `eval(idx)`
/// produces the element value for linear index idx in [0, n).
template <class R, class Op, class Eval>
R reduce_sim_gpu(jaccx::sim::device& dev, const hints& h, index_t n, Op op,
                 const Eval& eval) {
  const std::int64_t blocks = jaccx::sim::ceil_div(n, reduce_block);
  const bool pooled = jaccx::mem::pooling();
  jaccx::sim::device_buffer<R> partials;
  jaccx::sim::device_buffer<R> result;
  jaccx::sim::device_span<R> ps;
  jaccx::sim::device_span<R> rs;
  if (pooled) {
    // Persistent workspace: no per-call allocation, and no fill kernels —
    // the first kernel overwrites every partial slot it owns and the
    // combine kernel reads only those; the tail was zeroed at growth.
    const auto ws =
        jaccx::mem::device_reduce_workspace(dev, sizeof(R), blocks);
    ps = jaccx::sim::device_span<R>(static_cast<R*>(ws.partials), blocks,
                                    &dev);
    rs = jaccx::sim::device_span<R>(static_cast<R*>(ws.result), 1, &dev);
  } else {
    partials =
        jaccx::sim::device_buffer<R>(dev, blocks, "jacc.reduce.partials");
    result = jaccx::sim::device_buffer<R>(dev, 1, "jacc.reduce.result");
    ps = partials.span();
    rs = result.span();
    // JACC.jl materializes its scratch with <vendor>.zeros, paying two fill
    // kernels per reduction just like the hand-written Fig. 3 code.
    fill_zero_sim(dev, ps);
    fill_zero_sim(dev, rs);
  }

  jaccx::sim::launch_config cfg;
  cfg.grid = jaccx::sim::dim3{blocks};
  cfg.block = jaccx::sim::dim3{reduce_block};
  cfg.shmem_bytes = static_cast<std::size_t>(reduce_block) * sizeof(R);
  cfg.name = h.name;
  cfg.flavor.via_jacc = true;
  cfg.flavor.is_reduce = true;
  cfg.flops_per_index = h.flops_per_index;

  jaccx::sim::launch_cooperative(dev, cfg, [&](jaccx::sim::kernel_ctx& ctx) {
    R* sh = ctx.shared_mem<R>();
    const std::int64_t ti = ctx.thread_idx.x;
    const index_t i = ctx.global_x();
    sh[ti] = i < n ? eval(i) : Op::template identity<R>();
    ctx.sync_threads();
    for (std::int64_t s = reduce_block / 2; s > 0; s >>= 1) {
      if (ti < s) {
        sh[ti] = op(sh[ti], sh[ti + s]);
      }
      ctx.sync_threads();
    }
    if (ti == 0) {
      ps[ctx.block_idx.x] = sh[0];
    }
  });

  jaccx::sim::launch_config cfg2 = cfg;
  cfg2.grid = jaccx::sim::dim3{1};
  cfg2.flops_per_index = 0.0;
  jaccx::sim::launch_cooperative(dev, cfg2, [&](jaccx::sim::kernel_ctx& ctx) {
    R* sh = ctx.shared_mem<R>();
    const std::int64_t ti = ctx.thread_idx.x;
    R v = Op::template identity<R>();
    for (std::int64_t k = ti; k < blocks; k += reduce_block) {
      v = op(v, static_cast<R>(ps[k]));
    }
    sh[ti] = v;
    ctx.sync_threads();
    for (std::int64_t s = reduce_block / 2; s > 0; s >>= 1) {
      if (ti < s) {
        sh[ti] = op(sh[ti], sh[ti + s]);
      }
      ctx.sync_threads();
    }
    if (ti == 0) {
      rs[0] = sh[0];
    }
  });

  R out{};
  if (pooled) {
    std::memcpy(&out, rs.data(), sizeof(R));
    dev.charge_d2h(sizeof(R), "jacc.reduce.d2h");
  } else {
    result.copy_to_host(&out, "jacc.reduce.d2h");
  }
  return out;
}

/// Real thread-pool reduction: one cache-line-padded partial per worker,
/// each chunk of the flattened (i fastest) range folded into its worker's
/// slot — 2D/3D chunks walked row-stepped with walk_flat_2d/3d, one div/mod
/// per chunk instead of per element.  Under dynamic scheduling a worker
/// receives several chunks, so each chunk folds into the slot rather than
/// overwriting it; the slot stays worker-private either way.  Under
/// JACC_MEM_POOL=bucket the slot array is the persistent mem scratch
/// (leased for the whole reduction); under none it is the seed's per-call
/// vector.
template <class R, int Rank, class Op, class At>
R reduce_threads(jaccx::pool::thread_pool& pool, const launch_desc& d, Op op,
                 const At& at) {
  static_assert(sizeof(R) <= jaccx::cache_line_bytes);
  const auto fold = [&](R acc, jaccx::pool::range chunk) {
    if constexpr (Rank == 1) {
      for (index_t i = chunk.begin; i < chunk.end; ++i) {
        acc = op(acc, at(i, 0, 0));
      }
    } else if constexpr (Rank == 2) {
      jaccx::pool::walk_flat_2d(chunk, d.rows, [&](index_t i, index_t j) {
        acc = op(acc, at(i, j, 0));
      });
    } else {
      jaccx::pool::walk_flat_3d(chunk, d.rows, d.cols,
                                [&](index_t i, index_t j, index_t k) {
        acc = op(acc, at(i, j, k));
      });
    }
    return acc;
  };
  const unsigned width = pool.size();
  if (jaccx::mem::pooling()) {
    jaccx::mem::host_scratch_lease lease(static_cast<std::size_t>(width) *
                                         jaccx::cache_line_bytes);
    auto* base = static_cast<std::byte*>(lease.data());
    const auto slot = [base](unsigned w) -> R* {
      return reinterpret_cast<R*>(base +
                                  std::size_t{w} * jaccx::cache_line_bytes);
    };
    for (unsigned w = 0; w < width; ++w) {
      *slot(w) = Op::template identity<R>();
    }
    pool.parallel_chunks(d.count(),
                         [&](unsigned worker, jaccx::pool::range chunk) {
      *slot(worker) = fold(*slot(worker), chunk);
    });
    R out = Op::template identity<R>();
    for (unsigned w = 0; w < width; ++w) {
      out = op(out, *slot(w));
    }
    return out;
  }
  struct alignas(jaccx::cache_line_bytes) slot_t {
    R value;
  };
  std::vector<slot_t> partials(width, slot_t{Op::template identity<R>()});
  pool.parallel_chunks(d.count(),
                       [&](unsigned worker, jaccx::pool::range chunk) {
    partials[worker].value = fold(partials[worker].value, chunk);
  });
  R out = Op::template identity<R>();
  for (const auto& s : partials) {
    out = op(out, s.value);
  }
  return out;
}

/// The linearized index mapping of the simulated reductions (i fastest,
/// then j, then k — the mapping parallel_for's GPU launches use).
template <int Rank>
std::array<index_t, 3> decode_linear(const launch_desc& d, index_t idx) {
  if constexpr (Rank == 1) {
    return {idx, 0, 0};
  } else if constexpr (Rank == 2) {
    return {idx % d.rows, idx / d.rows, 0};
  } else {
    return {idx % d.rows, (idx / d.rows) % d.cols, idx / (d.rows * d.cols)};
  }
}

/// Result type of a Rank-D reduction kernel.
template <int Rank, class F, class... Args>
using reduce_result_t = std::remove_cvref_t<decltype(call_at<Rank>(
    std::declval<F&>(), index_t{}, index_t{}, index_t{},
    std::declval<Args&>()...))>;

/// The one parallel_reduce execution body: a single backend switch for
/// every rank.  The real CPU back ends walk the range in column-major order
/// (serial: nested loops; threads: row-stepped chunks), the simulated ones
/// the linearized index space; visit order (i fastest) is the same, so sums
/// associate alike.  An empty range returns the identity.  `pl` overrides
/// the worker pool on the threads backend (queue lanes); null = default.
template <int Rank, class Op, class F, class... Args>
auto reduce_execute(backend b, jaccx::pool::thread_pool* pl,
                    const launch_desc& d, Op op, F& f, Args&... args) {
  using R = reduce_result_t<Rank, F, Args...>;
  static_assert(std::is_arithmetic_v<R>,
                "parallel_reduce kernels must return an arithmetic value");
  if (d.empty()) {
    return Op::template identity<R>();
  }
  const jaccx::prof::kernel_scope prof_scope(
      jaccx::prof::construct::parallel_reduce, d.h.name,
      static_cast<std::uint64_t>(d.count()), d.h.flops_per_index,
      d.h.bytes_per_index, to_string(b));
  const auto at = [&](index_t i, index_t j, index_t k) -> R {
    return call_at<Rank>(f, i, j, k, args...);
  };
  const auto linear = [&](index_t idx) -> R {
    const auto x = decode_linear<Rank>(d, idx);
    return at(x[0], x[1], x[2]);
  };
  switch (b) {
  case backend::serial: {
    R acc = Op::template identity<R>();
    serial_visit<Rank>(d, [&](index_t i, index_t j, index_t k) {
      acc = op(acc, at(i, j, k));
    });
    return acc;
  }
  case backend::threads:
    return reduce_threads<R, Rank>(
        pl != nullptr ? *pl : jaccx::pool::default_pool(), d, op, at);
  case backend::cpu_rome: {
    auto cfg = cpu_config(d.h);
    cfg.flavor.is_reduce = true;
    R acc = Op::template identity<R>();
    jaccx::sim::cpu_parallel_range(*backend_device(b), cfg, d.count(),
                                   [&](index_t idx) {
      acc = op(acc, linear(idx));
    });
    return acc;
  }
  case backend::cuda_a100:
  case backend::hip_mi100:
  case backend::oneapi_max1550:
    return reduce_sim_gpu<R>(*backend_device(b), d.h, d.count(), op, linear);
  }
  return Op::template identity<R>();
}

/// Sharded reduction (device_set_scope): stage the array arguments against
/// the set's plan, then let each device tree-reduce its chunk of the
/// slowest dimension (linearized, i fastest, global indices) and combine
/// the partials on the host in device order.  Staging, partitioning and
/// combine order are those of the sharded parallel_for.
template <int Rank, class Op, class F, class... Args>
auto shard_reduce(device_set& ds, const launch_desc& d, Op op, F& f,
                  Args&... args) {
  using R = reduce_result_t<Rank, F, Args...>;
  static_assert(std::is_arithmetic_v<R>,
                "parallel_reduce kernels must return an arithmetic value");
  if (d.empty()) {
    return Op::template identity<R>();
  }
  const index_t radius = shard_stage_args(ds, d.h, args...);
  const jaccx::prof::kernel_scope prof_scope(
      jaccx::prof::construct::parallel_reduce, d.h.name,
      static_cast<std::uint64_t>(d.count()), d.h.flops_per_index,
      d.h.bytes_per_index, to_string(ds.target()));
  R total = Op::template identity<R>();
  shard_each<Rank>(
      ds, d, radius,
      [&](jaccx::sim::device& dev, const launch_desc& local, index_t slow0) {
        total = op(total, reduce_sim_gpu<R>(
                              dev, d.h, local.count(), op, [&](index_t idx) {
                                auto x = decode_linear<Rank>(local, idx);
                                x[Rank - 1] += slow0;
                                return call_at<Rank>(f, x[0], x[1], x[2],
                                                     args...);
                              }));
      },
      args...);
  return total;
}

/// The synchronous body outside any queue: sharded under a device_set
/// scope, else the current backend's reduce_execute.
template <int Rank, class Op, class F, class... Args>
auto reduce_here(const launch_desc& d, Op op, F& f, Args&... args) {
  if (device_set* ds = active_shard_set(); ds != nullptr) [[unlikely]] {
    return shard_reduce<Rank>(*ds, d, op, f, args...);
  }
  return reduce_execute<Rank>(current_backend(), nullptr, d, op, f, args...);
}

/// Default hint names, one per rank, as trace and profiler rows show them.
inline constexpr std::string_view reduce_names[] = {
    "jacc.parallel_reduce", "jacc.parallel_reduce2d", "jacc.parallel_reduce3d"};

} // namespace detail

// --- queue members: non-blocking (future-returning) reductions --------------
// The member forms are the primitive: they return a jacc::future<R> whose
// event orders later work (q.wait(f)) and whose slot carries the value
// (f.get()).  On simulated back ends the value is final at enqueue and the
// charges (kernels + scalar D2H) land on the queue's stream; on threads
// async lanes the host genuinely continues while the lane computes.  The
// free parallel_reduce(q, ...) overloads below are these calls plus .get().

template <detail::launch_shape S, class F, class... Args>
auto queue::parallel_reduce(const hints& h, S s, F&& f, Args&&... args) {
  constexpr int Rank = detail::rank_of<S>;
  using R = detail::reduce_result_t<Rank, F, Args...>;
  const detail::launch_desc d = detail::launch_desc::of(h, s);
  JACCX_ASSERT(d.rows >= 0 && d.cols >= 0 && d.depth >= 0);
  const backend b = current_backend();
  if (is_default()) {
    // The sync model: compute in place, future born ready.
    return detail::make_ready_future<R>(
        detail::reduce_execute<Rank>(b, nullptr, d, plus_reducer{}, f, args...));
  }
  const bool capturing = detail::queue_capturing(*this);
  if (capturing || (b == backend::threads && detail::queue_is_async(*this))) {
    // Deferred: the hint name is re-owned (a temporary at the call site
    // must not dangle on the lane thread or across replays) and args follow
    // the async_arg_t policy: arrays by reference, copyables by value.
    auto fs = std::make_shared<detail::future_state<R>>();
    auto task = [fs, d, b, name = std::string(h.name),
                 fn = std::decay_t<F>(std::forward<F>(f)),
                 tup = std::tuple<detail::async_arg_t<Args&&>...>(
                     std::forward<Args>(args)...)](
                    jaccx::pool::thread_pool* pl) mutable {
      detail::launch_desc desc = d;
      desc.h.name = name;
      std::apply(
          [&](auto&... as) {
            *fs->value() = detail::reduce_execute<Rank>(b, pl, desc,
                                                        plus_reducer{}, fn,
                                                        as...);
          },
          tup);
    };
    if (capturing) [[unlikely]] {
      // Recorded reduction: the future's pooled result slot is leased for
      // the graph's lifetime and rewritten by every replay; its event is
      // the capture marker (get() returns the most recent replay's value).
      fs->e = detail::capture_append(*this, detail::capture_kind::kernel,
                                     std::string(h.name),
                                     detail::make_replay_body(std::move(task)));
    } else {
      auto es = std::make_shared<detail::event_state>();
      fs->e = detail::event_access::make(es);
      detail::queue_submit(*this, std::move(task), std::move(es));
    }
    return detail::future_access<R>::make(std::move(fs));
  }
  if (jaccx::sim::device* dev = backend_device(b); dev != nullptr) {
    auto fs = std::make_shared<detail::future_state<R>>();
    {
      const detail::queue_bind bind(this, dev);
      *fs->value() = detail::reduce_execute<Rank>(b, nullptr, d,
                                                  plus_reducer{}, f, args...);
    }
    fs->e = detail::finish_sim_op(*this, *dev, /*is_copy=*/false);
    return detail::future_access<R>::make(std::move(fs));
  }
  detail::note_sync_op(*this, /*is_copy=*/false);
  return detail::make_ready_future<R>(
      detail::reduce_execute<Rank>(b, nullptr, d, plus_reducer{}, f, args...));
}

template <class S, class F, class... Args>
  requires detail::kernel_for<S, F, Args...>
auto queue::parallel_reduce(S s, F&& f, Args&&... args) {
  return parallel_reduce(
      hints{.name = detail::reduce_names[detail::rank_of<S> - 1]}, s,
      std::forward<F>(f), std::forward<Args>(args)...);
}

// --- queued overloads (host-blocking forms) ---------------------------------
// Queue-ordered but host-blocking: the member future plus an immediate
// .get().  Kept because "run after this queue's pipeline and hand me the
// number" is the common closing step; counters and charges are identical to
// the future form.

/// Sum-reduction on a queue, with hints, over an extent, dims2 or dims3.
template <detail::launch_shape S, class F, class... Args>
auto parallel_reduce(queue& q, const hints& h, S s, F&& f, Args&&... args) {
  if (detail::queue_capturing(q)) [[unlikely]] {
    // The value does not exist at record time, so returning it here would
    // silently hand back zero.  Capturable form: q.parallel_reduce(...)
    // futures, read via future::then or after a replay.
    jaccx::throw_usage_error(
        "host-blocking parallel_reduce is not capturable; use the "
        "future-returning queue::parallel_reduce inside graph capture");
  }
  return q.parallel_reduce(h, s, std::forward<F>(f),
                           std::forward<Args>(args)...)
      .get();
}

/// Sum-reduction on a queue.
template <class S, class F, class... Args>
  requires detail::kernel_for<S, F, Args...>
auto parallel_reduce(queue& q, S s, F&& f, Args&&... args) {
  return parallel_reduce(
      q, hints{.name = detail::reduce_names[detail::rank_of<S> - 1]}, s,
      std::forward<F>(f), std::forward<Args>(args)...);
}

// --- synchronous overloads (the paper's API) --------------------------------
// Inside a queue_scope these route to the scope's queue; inside a
// device_set_scope to the sharded reduction.

/// Sum-reduction with hints: the sum over the shape `s` (an extent, dims2
/// or dims3) of f(i[, j[, k]], args...).  The index space is linearized
/// with i fastest, so simulated-GPU lanes access column-major arrays
/// coalesced, as the paper's multidimensional mapping does.
template <detail::launch_shape S, class F, class... Args>
auto parallel_reduce(const hints& h, S s, F&& f, Args&&... args) {
  if (queue* q = detail::active_queue(); q != nullptr) [[unlikely]] {
    return parallel_reduce(*q, h, s, std::forward<F>(f),
                           std::forward<Args>(args)...);
  }
  const detail::launch_desc d = detail::launch_desc::of(h, s);
  JACCX_ASSERT(d.rows >= 0 && d.cols >= 0 && d.depth >= 0);
  return detail::reduce_here<detail::rank_of<S>>(d, plus_reducer{}, f,
                                                 args...);
}

/// Sum-reduction: `res = JACC.parallel_reduce(SIZE, dot, dx, dy)`, or over
/// `(M, N)` / `(M, N, K)` with dims2 / dims3.
template <class S, class F, class... Args>
  requires detail::kernel_for<S, F, Args...>
auto parallel_reduce(S s, F&& f, Args&&... args) {
  return parallel_reduce(
      hints{.name = detail::reduce_names[detail::rank_of<S> - 1]}, s,
      std::forward<F>(f), std::forward<Args>(args)...);
}

/// 1D min/max reductions (JACC.jl extension).
template <class F, class... Args>
auto parallel_reduce_min(index_t n, F&& f, Args&&... args) {
  return detail::reduce_here<1>(
      detail::launch_desc::of(hints{.name = "jacc.parallel_reduce_min"}, n),
      min_reducer{}, f, args...);
}

template <class F, class... Args>
auto parallel_reduce_max(index_t n, F&& f, Args&&... args) {
  return detail::reduce_here<1>(
      detail::launch_desc::of(hints{.name = "jacc.parallel_reduce_max"}, n),
      max_reducer{}, f, args...);
}

} // namespace jacc
