// Launch descriptors shared by every jacc dispatch front end.
//
// Each construct's public surface (hinted/unhinted x sync/queued) takes a
// shape -- an integer extent, dims2 or dims3 -- whose type fixes the launch
// rank at compile time, and lowers it to one internal shape,
// detail::launch_desc: an iteration range plus the accounting hints.  The
// one rank-generic execution body per construct (parallel_for.hpp,
// parallel_reduce.hpp, shard.hpp) consumes it, so adding a queue, a rank
// or a hint touches the descriptor once.
#pragma once

#include <concepts>
#include <string_view>

#include "support/span2d.hpp"

namespace jacc {

using jaccx::index_t;

/// Optional accounting hints: a kernel name for traces, a flops-per-index
/// estimate for the simulator's roofline term, and a bytes-per-index
/// estimate for profiler bandwidth columns.  Purely observational — they
/// never change results.
struct hints {
  std::string_view name = "jacc.parallel_for";
  double flops_per_index = 0.0;
  double bytes_per_index = 0.0;
  /// Promise that the kernel touches its array arguments only at the
  /// launch index, and only through those arguments (no captured aliases,
  /// no neighbor access).  Opt-in: it marks a 1D launch as a candidate for
  /// the graph-level chain fuser (core/fuse.hpp); never changes results.
  bool elementwise = false;
  /// Stencil reach along the slowest (partitioned) dimension: the kernel at
  /// index i may read array elements up to `stencil_radius` slow-dimension
  /// units away.  Under a device_set scope the auto-sharding layer infers
  /// the halo width from this and exchanges ghost cells before the launch;
  /// single-device execution ignores it entirely.
  index_t stencil_radius = 0;

  /// `hints::stencil(r)` — the shorthand the sharding layer documents for
  /// marking a radius-r stencil launch.
  static hints stencil(index_t r) {
    return hints{.name = "jacc.stencil", .stencil_radius = r};
  }
  /// Copy of these hints with a stencil radius attached (for call sites
  /// that already carry a name and accounting estimates).
  hints with_stencil(index_t r) const {
    hints h = *this;
    h.stencil_radius = r;
    return h;
  }
};

struct dims2 {
  index_t rows = 0; ///< M: the fast, column-major index (i)
  index_t cols = 0; ///< N: the slow index (j)
};

struct dims3 {
  index_t rows = 0;
  index_t cols = 0;
  index_t depth = 0;
};

namespace detail {

/// A launch shape: any integer extent (1-D), dims2 or dims3.
template <class S>
concept launch_shape =
    std::integral<S> || std::same_as<S, dims2> || std::same_as<S, dims3>;

template <launch_shape S>
inline constexpr int rank_of = std::integral<S> ? 1
                               : std::same_as<S, dims2> ? 2
                                                        : 3;

/// A Rank-D kernel: f(i[, j[, k]], args...) is a valid call.
template <int Rank, class F, class... Args>
concept index_invocable =
    (Rank == 1 && std::invocable<F&, index_t, Args&...>) ||
    (Rank == 2 && std::invocable<F&, index_t, index_t, Args&...>) ||
    (Rank == 3 && std::invocable<F&, index_t, index_t, index_t, Args&...>);

/// The unhinted front ends' constraint: a shape plus a kernel of its rank.
template <class S, class F, class... Args>
concept kernel_for =
    launch_shape<S> && index_invocable<rank_of<S>, F, Args...>;

/// The one internal launch shape every public overload lowers to.  Unused
/// trailing dimensions are 1 so count() is always the product.
struct launch_desc {
  hints h;
  index_t rows = 0;
  index_t cols = 1;
  index_t depth = 1;

  index_t count() const { return rows * cols * depth; }
  bool empty() const { return rows == 0 || cols == 0 || depth == 0; }
  dims2 as_2d() const { return dims2{rows, cols}; }
  dims3 as_3d() const { return dims3{rows, cols, depth}; }
  /// Extent of a Rank-D launch's slowest dimension: the one shards split.
  template <int Rank>
  index_t slow() const {
    return Rank == 1 ? rows : Rank == 2 ? cols : depth;
  }
  /// This launch with its slowest dimension cut to `n` (one shard's chunk).
  template <int Rank>
  launch_desc with_slow(index_t n) const {
    launch_desc l = *this;
    (Rank == 1 ? l.rows : Rank == 2 ? l.cols : l.depth) = n;
    return l;
  }

  static launch_desc of(const hints& h, index_t n) {
    return launch_desc{h, n, 1, 1};
  }
  static launch_desc of(const hints& h, dims2 d) {
    return launch_desc{h, d.rows, d.cols, 1};
  }
  static launch_desc of(const hints& h, dims3 d) {
    return launch_desc{h, d.rows, d.cols, d.depth};
  }
};

} // namespace detail
} // namespace jacc
