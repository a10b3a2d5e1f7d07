// jacc::parallel_for — the paper's primary construct (Sec. III, Fig. 2).
//
// Canonical forms (each also takes a leading `jacc::hints`):
//
//   jacc::parallel_for(n, f, args...)            calls f(i, args...)
//   jacc::parallel_for(dims2{M, N}, f, args...)  calls f(i, j, args...)
//   jacc::parallel_for(dims3{M,N,K}, f, args...) calls f(i, j, k, args...)
//   jacc::parallel_for(q, ..., f, args...)       enqueues on jacc::queue q
//                                                and returns a jacc::event
//
// Indices are 0-based (Julia's are 1-based; everything else matches the
// paper).  The kernel function is defined separately and passed with its
// parameters, exactly as JACC prescribes.  Synchronous calls are the
// paper's model: each completes before returning.  Queue calls are the
// stream-ordered extension (queue.hpp); on the default queue they are
// exactly the synchronous calls.
//
// Internally every public overload lowers to one detail::launch_desc and
// one rank-generic execution body, execute_for<Rank>, whose single backend
// switch serves 1D, 2D and 3D alike; the shape argument's type picks Rank.
// Only what truly differs by rank is spelled per rank: the GPU block shape,
// the threads decomposition and the cpu_rome range call.
//
// Back-end mapping (paper Sec. IV):
//   serial/threads      coarse chunks; 2D/3D decompose over the slowest
//                       (column-major) dimension while it covers the pool
//                       width, else tile the flattened iteration space
//   cpu_rome            same structure on the simulated Rome cost model
//   GPU back ends       fine-grained: 1 thread per index; 1D blocks of up to
//                       max_block_dim_x, 2D blocks of 16x16, 3D of 8x8x4,
//                       with thread x mapped to the fastest index for
//                       coalescing
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/array.hpp"
#include "core/backend.hpp"
#include "core/fuse.hpp"
#include "core/launch_desc.hpp"
#include "core/queue.hpp"
#include "prof/prof.hpp"
#include "sim/launch.hpp"
#include "threadpool/thread_pool.hpp"

namespace jacc {
namespace detail {

/// How a queued launch captures its trailing kernel arguments: copyable
/// types (scalars, views, jacc::array2d/3d shells) are copied into the
/// task; move-only lvalues (jacc::array) are held by reference and must
/// outlive completion — the natural contract for device data that the
/// queue's synchronize point already guards.  Rvalues are moved in.
template <class A>
using async_arg_t = std::conditional_t<
    std::is_lvalue_reference_v<A> &&
        !std::is_copy_constructible_v<std::remove_cvref_t<A>>,
    std::remove_reference_t<A>&, std::remove_cvref_t<A>>;

// --- fusable-argument classification (graph chain fuser, core/fuse.hpp) -----
// Keyed on the *stored* tuple element type from async_arg_t: values
// (scalars, scalar_bindings, views) are fusable — the elementwise hint is
// the caller's promise that they alias no array storage — and may expose
// footprints via a `jacc_fuse_footprints(out)` member; reference-stored
// move-only types are opaque and block fusion unless specialized below.

template <class U>
struct fuse_arg_traits {
  static constexpr bool fusable = true;
  static void add_footprints(const U& v,
                             std::vector<fuse_footprint>& out) {
    if constexpr (requires { v.jacc_fuse_footprints(out); }) {
      v.jacc_fuse_footprints(out);
    }
  }
};

template <class U>
struct fuse_arg_traits<U&> {
  static constexpr bool fusable = false;
  static void add_footprints(const U&, std::vector<fuse_footprint>&) {}
};

/// A mutable 1D array: conservatively read+write (the fused hint model
/// never undercharges a kernel that only reads it).
template <class T>
struct fuse_arg_traits<array<T>&> {
  static constexpr bool fusable = std::is_arithmetic_v<T>;
  static void add_footprints(const array<T>& a,
                             std::vector<fuse_footprint>& out) {
    out.push_back({a.host_data(), static_cast<double>(sizeof(T)), true, true});
  }
};

template <class T>
struct fuse_arg_traits<const array<T>&> {
  static constexpr bool fusable = std::is_arithmetic_v<T>;
  static void add_footprints(const array<T>& a,
                             std::vector<fuse_footprint>& out) {
    out.push_back({a.host_data(), static_cast<double>(sizeof(T)), true, false});
  }
};

/// Builds the chain-fuser payload for a captured 1D elementwise kernel:
/// nullptr when any stored argument is opaque.  The payload shares the
/// captured argument tuple with the replay body, so instance updates via
/// jacc::binding rebind both paths at once.
template <class F, class... As>
std::shared_ptr<fusable_kernel>
make_fusable_payload(const launch_desc& d, const F& fn,
                     const std::shared_ptr<std::tuple<As...>>& tup) {
  if constexpr ((fuse_arg_traits<As>::fusable && ...)) {
    auto k = std::make_shared<fusable_kernel>();
    k->n = d.rows;
    k->flops_per_index = d.h.flops_per_index;
    std::apply(
        [&](const auto&... as) {
          (fuse_arg_traits<As>::add_footprints(as, k->footprints), ...);
        },
        *tup);
    k->per_index = [fn, tup](index_t i) {
      std::apply([&](auto&... as) { fn(i, as...); }, *tup);
    };
    return k;
  } else {
    return nullptr;
  }
}

/// Calls f with the first Rank of (i, j, k), then the kernel arguments.
template <int Rank, class F, class... Args>
decltype(auto) call_at(F& f, index_t i, index_t j, index_t k,
                       Args&... args) {
  if constexpr (Rank == 1) {
    return f(i, args...);
  } else if constexpr (Rank == 2) {
    return f(i, j, args...);
  } else {
    return f(i, j, k, args...);
  }
}

/// Serial visit of the launch range in column-major order (i fastest);
/// unused dimensions have a compile-time trip count of 1.
template <int Rank, class Visit>
void serial_visit(const launch_desc& d, const Visit& visit) {
  for (index_t k = 0; k < (Rank == 3 ? d.depth : 1); ++k) {
    for (index_t j = 0; j < (Rank >= 2 ? d.cols : 1); ++j) {
      for (index_t i = 0; i < d.rows; ++i) {
        visit(i, j, k);
      }
    }
  }
}

/// GPU launch shape (paper Fig. 6): one thread per index, thread x on the
/// fastest index; blocks of up to max_threads_per_block in 1D, 16x16 in
/// 2D and 8x8x4 in 3D, each side clipped to its extent (at least 1).
template <int Rank>
jaccx::sim::launch_config gpu_config(const jaccx::sim::device& dev,
                                     const launch_desc& d) {
  const std::int64_t tiles[3][3] = {
      {dev.model().max_threads_per_block, 1, 1}, {16, 16, 1}, {8, 8, 4}};
  const std::int64_t* tile = tiles[Rank - 1];
  const index_t ext[3] = {d.rows > 0 ? d.rows : 1, d.cols > 0 ? d.cols : 1,
                          d.depth > 0 ? d.depth : 1};
  std::int64_t blk[3];
  for (int a = 0; a < 3; ++a) {
    blk[a] = ext[a] < tile[a] ? ext[a] : tile[a];
  }
  jaccx::sim::launch_config cfg;
  cfg.block = jaccx::sim::dim3{blk[0], blk[1], blk[2]};
  cfg.grid = jaccx::sim::dim3{jaccx::sim::ceil_div(ext[0], blk[0]),
                              jaccx::sim::ceil_div(ext[1], blk[1]),
                              jaccx::sim::ceil_div(ext[2], blk[2])};
  cfg.name = d.h.name;
  cfg.flavor.via_jacc = true;
  cfg.flops_per_index = d.h.flops_per_index;
  return cfg;
}

/// One simulated-GPU launch over `d`.  `slow0` offsets the slowest index
/// (a shard's first owned plane), so kernels always see global indices.
template <int Rank, class F, class... Args>
void sim_gpu_for(jaccx::sim::device& dev, const launch_desc& d, index_t slow0,
                 F& f, Args&... args) {
  jaccx::sim::launch(dev, gpu_config<Rank>(dev, d),
                     [&](jaccx::sim::kernel_ctx& ctx) {
    index_t ix[3] = {ctx.global_x(), Rank >= 2 ? ctx.global_y() : 0,
                     Rank == 3 ? ctx.global_z() : 0};
    if (ix[0] < d.rows && ix[1] < d.cols && ix[2] < d.depth) {
      ix[Rank - 1] += slow0;
      call_at<Rank>(f, ix[0], ix[1], ix[2], args...);
    }
  });
}

inline jaccx::sim::cpu_region_config cpu_config(const hints& h) {
  jaccx::sim::cpu_region_config cfg;
  cfg.name = h.name;
  cfg.flavor.via_jacc = true;
  cfg.flops_per_index = h.flops_per_index;
  return cfg;
}

/// Threads-backend 2D decomposition.  Coarse column-wise chunks (paper
/// Sec. IV: parallel over j, contiguous i within each worker) while there
/// are at least as many columns as workers; narrower grids tile the
/// flattened iteration space instead, so a 1'000'000 x 2 grid still feeds
/// every worker rather than at most two.
template <class F, class... Args>
void threads_for_2d(jaccx::pool::thread_pool& pool, dims2 d, F&& f,
                    Args&&... args) {
  if (d.cols >= static_cast<index_t>(pool.size())) {
    pool.parallel_for_index(d.cols, [&](index_t j) {
      for (index_t i = 0; i < d.rows; ++i) {
        f(i, j, args...);
      }
    });
    return;
  }
  pool.parallel_chunks(d.rows * d.cols, [&](unsigned, jaccx::pool::range r) {
    jaccx::pool::walk_flat_2d(r, d.rows, [&](index_t i, index_t j) {
      f(i, j, args...);
    });
  });
}

/// Threads-backend 3D decomposition: over depth planes while depth covers
/// the pool, then over flattened (j, k) columns, then over the fully
/// flattened space for extreme shapes like {1e6, 2, 2}.
template <class F, class... Args>
void threads_for_3d(jaccx::pool::thread_pool& pool, dims3 d, F&& f,
                    Args&&... args) {
  const auto width = static_cast<index_t>(pool.size());
  if (d.depth >= width) {
    pool.parallel_for_index(d.depth, [&](index_t k) {
      for (index_t j = 0; j < d.cols; ++j) {
        for (index_t i = 0; i < d.rows; ++i) {
          f(i, j, k, args...);
        }
      }
    });
    return;
  }
  if (d.cols * d.depth >= width) {
    pool.parallel_chunks(d.cols * d.depth,
                         [&](unsigned, jaccx::pool::range r) {
      jaccx::pool::walk_flat_2d(r, d.cols, [&](index_t j, index_t k) {
        for (index_t i = 0; i < d.rows; ++i) {
          f(i, j, k, args...);
        }
      });
    });
    return;
  }
  pool.parallel_chunks(d.rows * d.cols * d.depth,
                       [&](unsigned, jaccx::pool::range r) {
    jaccx::pool::walk_flat_3d(r, d.rows, d.cols,
                              [&](index_t i, index_t j, index_t k) {
      f(i, j, k, args...);
    });
  });
}

/// The one parallel_for execution body: a single backend switch for every
/// rank.  `pl` overrides the worker pool on the threads backend (queue
/// lanes hand their private pool in); null means the default pool.
template <int Rank, class F, class... Args>
void execute_for(backend b, jaccx::pool::thread_pool* pl,
                 const launch_desc& d, F&& f, Args&&... args) {
  const jaccx::prof::kernel_scope prof_scope(
      jaccx::prof::construct::parallel_for, d.h.name,
      static_cast<std::uint64_t>(d.count()), d.h.flops_per_index,
      d.h.bytes_per_index, to_string(b));
  switch (b) {
  case backend::serial:
    serial_visit<Rank>(d, [&](index_t i, index_t j, index_t k) {
      call_at<Rank>(f, i, j, k, args...);
    });
    return;
  case backend::threads: {
    auto& pool = pl != nullptr ? *pl : jaccx::pool::default_pool();
    if constexpr (Rank == 1) {
      pool.parallel_for_index(d.rows, [&](index_t i) { f(i, args...); });
    } else if constexpr (Rank == 2) {
      threads_for_2d(pool, d.as_2d(), f, args...);
    } else {
      threads_for_3d(pool, d.as_3d(), f, args...);
    }
    return;
  }
  case backend::cpu_rome: {
    auto& dev = *backend_device(b);
    const auto cfg = cpu_config(d.h);
    if constexpr (Rank == 1) {
      jaccx::sim::cpu_parallel_range(dev, cfg, d.rows,
                                     [&](index_t i) { f(i, args...); });
    } else if constexpr (Rank == 2) {
      jaccx::sim::cpu_parallel_range_2d(
          dev, cfg, d.rows, d.cols,
          [&](index_t i, index_t j) { f(i, j, args...); });
    } else {
      jaccx::sim::cpu_parallel_range_3d(
          dev, cfg, d.rows, d.cols, d.depth,
          [&](index_t i, index_t j, index_t k) { f(i, j, k, args...); });
    }
    return;
  }
  case backend::cuda_a100:
  case backend::hip_mi100:
  case backend::oneapi_max1550:
    sim_gpu_for<Rank>(*backend_device(b), d, 0, f, args...);
    return;
  }
}

} // namespace detail
} // namespace jacc

// The sharding engine reuses the launch helpers above, so it must land
// after them (core/shard.hpp documents it is not standalone).
#include "core/shard.hpp"

namespace jacc {
namespace detail {

/// Runs a deferred (queued or captured) launch from its closure: the
/// descriptor's name view is re-pointed at the closure-owned copy on every
/// run — the closure may have moved since capture — and the captured
/// trailing args are unpacked.
template <int Rank, class F, class Tuple>
void run_deferred_for(backend b, jaccx::pool::thread_pool* pl, launch_desc d,
                      const std::string& name, F& fn, Tuple& tup) {
  d.h.name = name;
  std::apply([&](auto&... as) { execute_for<Rank>(b, pl, d, fn, as...); },
             tup);
}

/// Graph capture of a parallel_for: the whole front end — capture policy,
/// hint resolution, descriptor building, name ownership — runs once, here,
/// and the recorded node body is the residue.  The serial and threads 1D
/// shapes (the dispatch-overhead benchmark's subject) get specialized
/// bodies that skip even the backend switch on replay: a plain loop (or
/// pool fan-out) guarded by the usual one-load prof gate.  Every other
/// shape pre-bakes the generic runner, whose sim charge path is identical
/// to eager issue.
template <int Rank, class F, class... Args>
event capture_for(queue& q, backend b, const launch_desc& d, F&& f,
                  Args&&... args) {
  std::string name(d.h.name);
  auto fn = std::decay_t<F>(std::forward<F>(f));
  auto tup = std::make_shared<std::tuple<async_arg_t<Args&&>...>>(
      std::forward<Args>(args)...);
  // The fused-execution payload shares `tup` with the replay body below;
  // built before `fn` is moved out (per_index takes its own copy).
  std::shared_ptr<fusable_kernel> fusable;
  if constexpr (Rank == 1) {
    if (d.h.elementwise) {
      fusable = make_fusable_payload(d, fn, tup);
    }
  }
  replay_body body;
  if constexpr (Rank == 1) {
    if (b == backend::serial) {
      body = make_replay_body(
          [n = d.rows, hf = d.h.flops_per_index, hb = d.h.bytes_per_index,
           name, fn = std::move(fn),
           tup](jaccx::pool::thread_pool*) mutable {
            const auto run = [&] {
              std::apply(
                  [&](auto&... as) {
                    for (index_t i = 0; i < n; ++i) {
                      fn(i, as...);
                    }
                  },
                  *tup);
            };
            if (jaccx::prof::enabled()) [[unlikely]] {
              const jaccx::prof::kernel_scope ks(
                  jaccx::prof::construct::parallel_for, name,
                  static_cast<std::uint64_t>(n), hf, hb,
                  to_string(backend::serial));
              run();
            } else {
              run();
            }
          });
    } else if (b == backend::threads) {
      body = make_replay_body(
          [n = d.rows, hf = d.h.flops_per_index, hb = d.h.bytes_per_index,
           name, fn = std::move(fn),
           tup](jaccx::pool::thread_pool* pl) mutable {
            auto& pool = pl != nullptr ? *pl : jaccx::pool::default_pool();
            const auto run = [&] {
              std::apply(
                  [&](auto&... as) {
                    pool.parallel_for_index(n,
                                            [&](index_t i) { fn(i, as...); });
                  },
                  *tup);
            };
            if (jaccx::prof::enabled()) [[unlikely]] {
              const jaccx::prof::kernel_scope ks(
                  jaccx::prof::construct::parallel_for, name,
                  static_cast<std::uint64_t>(n), hf, hb,
                  to_string(backend::threads));
              run();
            } else {
              run();
            }
          });
    }
  }
  if (!body) {
    body = make_replay_body(
        [d, b, name, fn = std::move(fn),
         tup](jaccx::pool::thread_pool* pl) mutable {
          run_deferred_for<Rank>(b, pl, d, name, fn, *tup);
        });
  }
  if (fusable != nullptr) {
    return capture_append(q, capture_kind::kernel, std::move(name),
                          std::move(body), std::move(fusable));
  }
  return capture_append(q, capture_kind::kernel, std::move(name),
                        std::move(body));
}

} // namespace detail

// --- queued overloads: enqueue on `q`, return a jacc::event -----------------

/// parallel_for on a queue, with accounting hints: f(i[, j[, k]], args...)
/// over the shape `s` (an extent, dims2 or dims3).  On the default queue it
/// runs in place — the sync model verbatim, full reference semantics.
template <detail::launch_shape S, class F, class... Args>
event parallel_for(queue& q, const hints& h, S s, F&& f, Args&&... args) {
  constexpr int Rank = detail::rank_of<S>;
  const detail::launch_desc d = detail::launch_desc::of(h, s);
  JACCX_ASSERT(d.rows >= 0 && d.cols >= 0 && d.depth >= 0);
  if (d.empty()) {
    return event{};
  }
  const backend b = current_backend();
  if (q.is_default()) {
    detail::execute_for<Rank>(b, nullptr, d, std::forward<F>(f),
                              std::forward<Args>(args)...);
    return event{};
  }
  if (detail::queue_capturing(q)) [[unlikely]] {
    return detail::capture_for<Rank>(q, b, d, std::forward<F>(f),
                                     std::forward<Args>(args)...);
  }
  // Queued runner: kernel copied, hint name owned (a caller's temporary
  // is safe even when the task runs later on a lane thread), trailing args
  // captured per async_arg_t; lanes hand their pool in (null elsewhere).
  return detail::enqueue_common(
      q, b, /*is_copy=*/false, h.name,
      [d, b, name = std::string(h.name),
       fn = std::decay_t<F>(std::forward<F>(f)),
       tup = std::tuple<detail::async_arg_t<Args&&>...>(
           std::forward<Args>(args)...)](
          jaccx::pool::thread_pool* pl) mutable {
        detail::run_deferred_for<Rank>(b, pl, d, name, fn, tup);
      });
}

/// parallel_for on a queue: f(i[, j[, k]], args...) over `s`.
template <class S, class F, class... Args>
  requires detail::kernel_for<S, F, Args...>
event parallel_for(queue& q, S s, F&& f, Args&&... args) {
  return parallel_for(q, hints{}, s, std::forward<F>(f),
                      std::forward<Args>(args)...);
}

// --- synchronous overloads (the paper's API) --------------------------------
// Inside a queue_scope these route to the scope's queue; inside a
// device_set_scope to the sharding engine; otherwise they are the direct
// execution body, unchanged from the pre-queue model.

/// parallel_for with accounting hints: f(i[, j[, k]], args...) over `s`;
/// i is the fast (column-major) index.
template <detail::launch_shape S, class F, class... Args>
void parallel_for(const hints& h, S s, F&& f, Args&&... args) {
  if (queue* q = detail::active_queue(); q != nullptr) [[unlikely]] {
    parallel_for(*q, h, s, std::forward<F>(f), std::forward<Args>(args)...);
    return;
  }
  constexpr int Rank = detail::rank_of<S>;
  const detail::launch_desc d = detail::launch_desc::of(h, s);
  JACCX_ASSERT(d.rows >= 0 && d.cols >= 0 && d.depth >= 0);
  if (d.empty()) {
    return;
  }
  if (device_set* ds = detail::active_shard_set(); ds != nullptr)
      [[unlikely]] {
    detail::shard_execute_for<Rank>(*ds, d, std::forward<F>(f),
                                    std::forward<Args>(args)...);
    return;
  }
  detail::execute_for<Rank>(current_backend(), nullptr, d, std::forward<F>(f),
                            std::forward<Args>(args)...);
}

/// parallel_for: `JACC.parallel_for(N, f, args...)`, `((M, N), ...)` or
/// `((M, N, K), ...)` — f(i[, j[, k]], args...) over `s`.
template <class S, class F, class... Args>
  requires detail::kernel_for<S, F, Args...>
void parallel_for(S s, F&& f, Args&&... args) {
  parallel_for(hints{}, s, std::forward<F>(f), std::forward<Args>(args)...);
}

} // namespace jacc
