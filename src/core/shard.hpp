// jacc::shard — the auto-sharding execution engine (docs/SHARDING.md).
//
// When a device_set_scope is live, the synchronous parallel_for /
// parallel_reduce front ends route here instead of the single-device
// bodies: every sharded array argument is brought up to date with the
// set's plan (reshard / halo growth), halos are exchanged asynchronously
// on the per-shard streams when the launch declares a stencil radius, and
// the kernel then runs once per device over that device's contiguous chunk
// of the slowest dimension — with GLOBAL indices, the runtime applying the
// shard offset.  After each launch the set records the device's measured
// throughput, and the plan rebalances between launches when the measured
// imbalance exceeds the threshold.
//
// One rank-generic loop, shard_each<Rank>, serves 1-D, 2-D and 3-D
// launches: each device gets its chunk as a local launch_desc plus the
// global offset of its first slowest-dimension index.
//
// NOT a standalone header: parallel_for.hpp includes it after the launch
// helpers (sim_gpu_for) it reuses, and parallel_reduce.hpp builds the
// sharded reduction on the same loop.
#pragma once

#include <cstdint>
#include <type_traits>
#include <vector>

#include "core/array.hpp"
#include "core/device_set.hpp"
#include "core/launch_desc.hpp"
#include "sim/launch.hpp"
#include "sim/stream.hpp"
#include "support/error.hpp"

namespace jacc::detail {

/// Any jacc array shape (1/2/3-D), via the tag base — so the catch-all
/// below cannot out-compete a derived-to-base match.
template <class A>
concept shardable_array =
    std::is_base_of_v<array_marker, std::remove_cvref_t<A>>;

// --- per-argument visitors: arrays participate, everything else passes ------
// Kernels take arrays by const& (the programming model writes elements
// through const arrays via element_ref already), so the visitors strip
// const here: plan currency, ghost refresh and piece binding are runtime
// bookkeeping, not logical mutation of the array's value.

template <class A>
decltype(auto) shard_mutable(A& a) {
  return const_cast<std::remove_cvref_t<A>&>(a);
}

template <class A>
void shard_prepare_arg(device_set& ds, index_t radius, A& a) {
  if constexpr (shardable_array<A>) {
    auto& m = shard_mutable(a);
    if (!m.is_sharded()) {
      jaccx::throw_usage_error(
          "arrays used inside a device_set scope must use sharded "
          "placement (jacc::sharded) so every device owns its chunk");
    }
    if (m.shard_set() != &ds) {
      jaccx::throw_usage_error(
          "sharded array belongs to a different device_set than the "
          "active scope");
    }
    m.shard_sync(radius);
  } else {
    (void)ds;
    (void)radius;
    (void)a;
  }
}

template <class A>
void shard_halo_arg(index_t radius, std::uint64_t* boundary_bytes, A& a) {
  if constexpr (shardable_array<A>) {
    shard_mutable(a).shard_halo_async(radius, boundary_bytes);
  } else {
    (void)radius;
    (void)boundary_bytes;
    (void)a;
  }
}

template <class A>
void shard_bind_arg(int d, A& a) {
  if constexpr (shardable_array<A>) {
    shard_mutable(a).shard_bind(d);
  } else {
    (void)d;
    (void)a;
  }
}

template <class A>
void shard_unbind_arg(A& a) {
  if constexpr (shardable_array<A>) {
    shard_mutable(a).shard_unbind();
  } else {
    (void)a;
  }
}

/// The launch-wide preamble shared by for and reduce: plan/halo currency
/// for every array argument, then the async exchange when a stencil is
/// declared.  Returns the stencil radius.
///
/// Halo cost model (docs/MODEL.md): the ghost traffic of EVERY array in
/// the launch is packed into one message per neighbour pair — the way a
/// tuned stencil code batches all its fields into a single exchange — and
/// the pair's full-duplex hop is charged once per side on the shard
/// streams (the left shard's stream pays the send as d2h, the right
/// shard's stream pays the receive as h2d; the opposite direction rides
/// the same overlapped step, exactly like dist::exchange).  Per-transfer
/// fixed latency is therefore paid once per boundary per launch, not once
/// per array per direction.
template <class... Args>
index_t shard_stage_args(device_set& ds, const hints& h, Args&... args) {
  const index_t radius = h.stencil_radius;
  (shard_prepare_arg(ds, radius, args), ...);
  if (radius > 0 && ds.devices() > 1) {
    std::vector<std::uint64_t> boundary_bytes(
        static_cast<std::size_t>(ds.devices() - 1), 0);
    (shard_halo_arg(radius, boundary_bytes.data(), args), ...);
    for (int d = 0; d + 1 < ds.devices(); ++d) {
      const std::uint64_t bytes =
          boundary_bytes[static_cast<std::size_t>(d)];
      if (bytes == 0) {
        continue;
      }
      {
        const jaccx::sim::stream_scope on(ds.shard_stream(d));
        ds.dev(d).charge_d2h(bytes, "shard.halo");
      }
      {
        const jaccx::sim::stream_scope on(ds.shard_stream(d + 1));
        ds.dev(d + 1).charge_h2d(bytes, "shard.halo");
      }
    }
  }
  return radius;
}

/// The per-device loop shared by sharded for and reduce: chunks the slowest
/// launch dimension under the set's current weights, binds every array to
/// its local piece, waits for that device's halo stream when ghosts were
/// exchanged, and runs body(dev, local, slow0) — the chunk's descriptor
/// and the global index of its first slow plane, so kernels keep global
/// indices.  Devices advance concurrently (each on its own clock);
/// ds.sync() is the wall-time barrier.
template <int Rank, class Body, class... Args>
void shard_each(device_set& ds, const launch_desc& d, index_t radius,
                const Body& body, Args&... args) {
  static_assert(Rank == 1 || Rank == 2 || Rank == 3);
  for (int dv = 0; dv < ds.devices(); ++dv) {
    const auto owned = ds.chunk(d.slow<Rank>(), dv);
    if (owned.empty()) {
      continue;
    }
    auto& dev = ds.dev(dv);
    if (radius > 0) {
      // The kernel may read ghosts: its device clock must not start the
      // launch before this shard's halo stream has delivered them.
      jaccx::sim::join(dev, {&ds.shard_stream(dv)});
    }
    (shard_bind_arg(dv, args), ...);
    const double t0 = dev.tl().now_us();
    const launch_desc local = d.with_slow<Rank>(owned.size());
    body(dev, local, owned.begin);
    (shard_unbind_arg(args), ...);
    ds.note_launch(dv, dev.tl().now_us() - t0, local.count(), d.h);
  }
  ds.maybe_rebalance();
}

/// Sharded parallel_for body: one prof scope covers the whole launch, and
/// each device runs one simulated-GPU launch over its chunk.
template <int Rank, class F, class... Args>
void shard_execute_for(device_set& ds, const launch_desc& d, F&& f,
                       Args&&... args) {
  const index_t radius = shard_stage_args(ds, d.h, args...);
  const jaccx::prof::kernel_scope prof_scope(
      jaccx::prof::construct::parallel_for, d.h.name,
      static_cast<std::uint64_t>(d.count()), d.h.flops_per_index,
      d.h.bytes_per_index, to_string(ds.target()));
  shard_each<Rank>(
      ds, d, radius,
      [&](jaccx::sim::device& dev, const launch_desc& local, index_t slow0) {
        sim_gpu_for<Rank>(dev, local, slow0, f, args...);
      },
      args...);
}

} // namespace jacc::detail
