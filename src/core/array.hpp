// jacc::array — the JACC.Array analogue (paper Sec. III).
//
// JACC.Array is the unified, backend-transparent memory type: on
// Base.Threads it is a plain Julia Array, on CUDA a CuArray, and so on, and
// constructing one from host data performs the host->device copy.  Here:
//
//   * under the real back ends (serial/threads) an array is plain aligned
//     host memory with zero-overhead access;
//   * under a simulated back end the array is bound to that backend's device
//     at construction (charging allocation + H2D), and every element access
//     made while a kernel is running is routed through the device's cache
//     model via a proxy reference.
//
// An array is bound to the backend that was current when it was built,
// mirroring how a CuArray cannot be consumed by an AMDGPU kernel.
#pragma once

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/backend.hpp"
#include "core/device_set.hpp"
#include "core/event.hpp"
#include "core/queue.hpp"
#include "mem/pool.hpp"
#include "mem/typed_buffer.hpp"
#include "prof/prof.hpp"
#include "sim/device.hpp"
#include "support/aligned_buffer.hpp"
#include "support/span2d.hpp"
#include "threadpool/thread_pool.hpp"

namespace jacc {

using jaccx::index_t;

/// Tag selecting uninitialized construction — the CuArray{T}(undef, n)
/// analogue: storage is acquired (and charged) but not filled, so every
/// element must be written before it is read.  Pairs with the caching
/// allocator: recycled scratch need not be zeroed just to be overwritten.
struct uninit_t {
  explicit uninit_t() = default;
};
inline constexpr uninit_t uninit{};

/// Placement tag selecting sharded construction: the array's storage is
/// split contiguously across a device_set's devices along its slowest
/// dimension (docs/SHARDING.md): `jacc::array<double> a(jacc::sharded(ds),
/// n)`.
struct sharded_t {
  device_set* set = nullptr;
};
inline sharded_t sharded(device_set& ds) { return sharded_t{&ds}; }

namespace detail {

/// Host arrays at or above this size zero-fill / copy through the PR-1
/// worker pool on the threads back end, so pages are first-touched by the
/// workers that will process them (NUMA first-touch placement).
inline constexpr std::uint64_t parallel_init_min_bytes = 256u * 1024u;

} // namespace detail

namespace detail {

/// Tracked-when-simulated element reference.  Converting to T counts a
/// read, assigning counts a write; with a null device it degrades to a plain
/// load/store the optimizer sees through.
template <class T>
class element_ref {
public:
  element_ref(T* p, jaccx::sim::device* dev) : p_(p), dev_(dev) {}

  operator T() const {
    if (dev_ != nullptr) {
      dev_->track(p_, sizeof(T));
    }
    return *p_;
  }

  T operator=(T v) const {
    if (dev_ != nullptr) {
      dev_->track(p_, sizeof(T));
    }
    *p_ = v;
    return v;
  }

  T operator=(const element_ref& o) const { return *this = static_cast<T>(o); }

  T operator+=(T v) const { return *this = static_cast<T>(*this) + v; }
  T operator-=(T v) const { return *this = static_cast<T>(*this) - v; }
  T operator*=(T v) const { return *this = static_cast<T>(*this) * v; }
  T operator/=(T v) const { return *this = static_cast<T>(*this) / v; }

private:
  T* p_;
  jaccx::sim::device* dev_;
};

/// Tag base marking every jacc array shape, so the sharding layer's
/// argument visitors can constrain on "is a jacc array" without naming the
/// template (a generic catch-all overload would otherwise win resolution
/// against a derived-to-base conversion).
struct array_marker {};

/// One device's slice of a sharded array: the owned linear element range
/// [lo, hi) plus `ghost` slow-units of halo on each side, all in one
/// pool-backed buffer laid out [left ghost | owned | right ghost].
template <class T>
struct shard_piece {
  jaccx::mem::pooled_buffer<T> buf;
  index_t lo = 0; ///< first owned linear element
  index_t hi = 0; ///< one past the last owned linear element
};

/// Decomposition state of a sharded array.  Ownership is along the slowest
/// dimension (1D: i, 2D: j, 3D: k), so every piece is a contiguous linear
/// element range and the same machinery serves every rank.
template <class T>
struct shard_state {
  device_set* set = nullptr;
  index_t slow_extent = 0; ///< extent of the partitioned dimension
  index_t slow_stride = 1; ///< elements per slow unit (1, rows, rows*cols)
  index_t ghost = 0;       ///< halo width per side, in slow units
  std::uint64_t generation = 0; ///< the set's plan this layout was built for
  int bound = -1; ///< piece routing kernel access, -1 = host-side mode
  std::vector<shard_piece<T>> pieces;
};

/// Storage + device binding shared by the 1/2/3-D array shapes.
template <class T>
class array_base : public array_marker {
public:
  explicit array_base(index_t count)
      : dev_(backend_device(current_backend())) {
    acquire(count);
    fill_default();
    note_construct(/*h2d=*/false);
  }

  array_base(const T* host, index_t count)
      : dev_(backend_device(current_backend())) {
    acquire(count);
    copy_in(host);
    if (dev_ != nullptr) {
      dev_->charge_h2d(bytes(), "jacc.array");
    }
    note_construct(/*h2d=*/true);
  }

  array_base(uninit_t, index_t count)
      : dev_(backend_device(current_backend())) {
    acquire(count);
    note_construct(/*h2d=*/false);
  }

  /// Sharded construction: storage splits across `ds` along the slowest
  /// dimension under the set's current weights.  `host` may be null
  /// (zero-initialized); otherwise each device is charged the H2D of its
  /// own shard.
  array_base(device_set& ds, const T* host, index_t count,
             index_t slow_extent, index_t slow_stride) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "sharded arrays move shards with memcpy");
    JACCX_ASSERT(count >= 0 && slow_stride > 0 &&
                 count == slow_extent * slow_stride);
    count_ = count;
    shard_ = std::make_unique<shard_state<T>>();
    auto& st = *shard_;
    st.set = &ds;
    st.slow_extent = slow_extent;
    st.slow_stride = slow_stride;
    st.generation = ds.plan_generation();
    st.pieces = shard_make_pieces(0);
    for (auto& p : st.pieces) {
      if (host != nullptr) {
        if (p.hi > p.lo) {
          const auto b =
              static_cast<std::uint64_t>(p.hi - p.lo) * sizeof(T);
          std::memcpy(p.buf.data(), host + p.lo,
                      static_cast<std::size_t>(b));
          p.buf.owner()->charge_h2d(b, "shard.scatter");
        }
      } else {
        p.buf.fill_untracked(T{});
      }
    }
    note_construct(/*h2d=*/host != nullptr);
  }

  array_base(const array_base&) = delete;
  array_base& operator=(const array_base&) = delete;
  array_base(array_base&& other) noexcept
      : dev_(std::exchange(other.dev_, nullptr)),
        blk_(std::exchange(other.blk_, jaccx::mem::block{})),
        data_(std::exchange(other.data_, nullptr)),
        count_(std::exchange(other.count_, 0)),
        shard_(std::move(other.shard_)) {}
  array_base& operator=(array_base&& other) noexcept {
    if (this != &other) {
      release();
      dev_ = std::exchange(other.dev_, nullptr);
      blk_ = std::exchange(other.blk_, jaccx::mem::block{});
      data_ = std::exchange(other.data_, nullptr);
      count_ = std::exchange(other.count_, 0);
      shard_ = std::move(other.shard_);
    }
    return *this;
  }
  ~array_base() { release(); }

  index_t size() const { return count_; }
  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(count_) * sizeof(T);
  }
  jaccx::sim::device* device() const { return dev_; }
  bool is_simulated() const { return dev_ != nullptr; }

  /// Copies the contents back to host storage; on a simulated GPU this
  /// charges the D2H transfer (the semantic path for results).  Large
  /// host arrays on the threads back end copy out through the worker pool
  /// in parallel chunks, mirroring the copy-in path.
  void copy_to_host(T* dst) const { copy_out(dst, nullptr); }

  /// Overwrites the contents from host storage; on a simulated GPU this
  /// charges the H2D transfer — the post-construction update path
  /// (`copyto!(JACC.Array, host)`), symmetric with copy_to_host.
  void copy_from_host(const T* src) { copy_in_full(src, nullptr); }

  /// Queued copies: enqueued on `q`, returning the completion event.  On
  /// the default queue these are exactly the synchronous copies above.
  /// `dst`/`src` must stay valid until the event completes.
  event copy_to_host(queue& q, T* dst) const {
    return detail::enqueue_common(
        q, current_backend(), /*is_copy=*/true, "jacc.array.d2h",
        [this, dst](jaccx::pool::thread_pool* pl) { copy_out(dst, pl); });
  }
  event copy_from_host(queue& q, const T* src) {
    return detail::enqueue_common(
        q, current_backend(), /*is_copy=*/true, "jacc.array.h2d",
        [this, src](jaccx::pool::thread_pool* pl) { copy_in_full(src, pl); });
  }

  std::vector<T> to_host() const {
    std::vector<T> out(static_cast<std::size_t>(count_));
    copy_to_host(out.data());
    return out;
  }

  /// Untracked, uncharged debug access for test assertions; not part of the
  /// portable programming model.
  const T* host_data() const { return data_; }
  T* host_data() { return data_; }

  /// Tracked access by linear (column-major) index, valid for every rank —
  /// the expression layer's element hook (core/expr.hpp): a leaf over any
  /// array shape reads/writes through this so fused evaluation charges the
  /// cache model exactly like the per-element kernels it replaces.
  element_ref<T> flat(index_t i) const { return this->ref(i); }

  // --- sharding hooks (core/shard.hpp drives these; not user API) -----------

  bool is_sharded() const { return shard_ != nullptr; }
  device_set* shard_set() const {
    return shard_ != nullptr ? shard_->set : nullptr;
  }
  index_t shard_ghost() const { return shard_->ghost; }
  index_t shard_slow_extent() const { return shard_->slow_extent; }

  /// Brings the layout up to date before a launch: re-shards when the set's
  /// plan moved since this array was built (owner-changing cells are
  /// charged as device-to-device hops, "shard.reshard"), and grows the
  /// ghost capacity when a launch declares a wider stencil than any before.
  void shard_sync(index_t radius) {
    JACCX_ASSERT(shard_ != nullptr && radius >= 0);
    auto& st = *shard_;
    if (st.generation != st.set->plan_generation()) {
      shard_replan(radius);
    } else if (radius > st.ghost) {
      shard_regrow(radius);
    }
  }

  /// Routes kernel access to piece d: every ref() must then fall inside
  /// d's owned range extended by the ghost capacity.
  void shard_bind(int d) {
    JACCX_ASSERT(shard_ != nullptr && d >= 0 &&
                 d < static_cast<int>(shard_->pieces.size()));
    shard_->bound = d;
  }
  void shard_unbind() {
    JACCX_ASSERT(shard_ != nullptr);
    shard_->bound = -1;
  }

  /// Moves `radius` slow-units of this array's boundary cells into the
  /// neighbouring pieces' ghosts (both directions) and accumulates the
  /// per-boundary one-direction payload into `boundary_bytes[d]` (size
  /// devices()-1).  No time is charged here: the launch engine coalesces
  /// every array's ghost traffic for one launch into a single packed
  /// message per neighbour pair and charges that once per side (see
  /// shard.hpp / docs/MODEL.md), the way a tuned stencil code packs all its
  /// fields into one exchange.
  void shard_halo_async(index_t radius, std::uint64_t* boundary_bytes) {
    JACCX_ASSERT(shard_ != nullptr && radius >= 0 && radius <= shard_->ghost);
    auto& st = *shard_;
    if (radius == 0 || st.pieces.size() < 2) {
      return;
    }
    const index_t stride = st.slow_stride;
    const index_t ge = st.ghost * stride;
    for (std::size_t d = 0; d + 1 < st.pieces.size(); ++d) {
      auto& left = st.pieces[d];
      auto& right = st.pieces[d + 1];
      const index_t left_len = (left.hi - left.lo) / stride;
      const index_t right_len = (right.hi - right.lo) / stride;
      const index_t g = std::min({radius, left_len, right_len});
      if (g == 0) {
        continue;
      }
      const index_t ne = g * stride; // elements exchanged per direction
      const auto bytes = static_cast<std::uint64_t>(ne) * sizeof(T);
      // left's last owned cells -> right's left ghost
      std::memcpy(right.buf.data() + (ge - ne),
                  left.buf.data() + ge + (left.hi - left.lo) - ne,
                  static_cast<std::size_t>(bytes));
      // right's first owned cells -> left's right ghost
      std::memcpy(left.buf.data() + ge + (left.hi - left.lo),
                  right.buf.data() + ge, static_cast<std::size_t>(bytes));
      boundary_bytes[d] += bytes;
    }
  }

protected:
  element_ref<T> ref(index_t linear) const {
    JACCX_ASSERT(linear >= 0 && linear < count_);
    if (shard_ != nullptr) [[unlikely]] {
      return shard_ref(linear);
    }
    return element_ref<T>(data_ + linear, dev_);
  }

private:
  /// Storage goes through the jaccx::mem caching pool: simulated back ends
  /// draw from the device's deterministic arena (so cache-model conflicts
  /// are reproducible), real back ends from aligned host memory; under
  /// JACC_MEM_POOL=bucket a recycled block skips the backing store (and the
  /// simulated allocation charge) entirely.
  void acquire(index_t count) {
    JACCX_ASSERT(count >= 0);
    count_ = count;
    blk_ = jaccx::mem::acquire(dev_,
                               static_cast<std::size_t>(count) * sizeof(T),
                               "jacc.array", detail::alloc_ctx(dev_));
    data_ = static_cast<T*>(blk_.ptr);
    if (blk_.stall_us > 0.0) {
      // Pool reuse across queues: the consuming clock waits for the
      // releasing queue (the implicit sync of a stream-ordered pool).
      detail::note_pool_stall(dev_, blk_.stall_us);
    }
  }

  void release() noexcept {
    if ((data_ != nullptr || shard_ != nullptr) && jaccx::prof::enabled())
        [[unlikely]] {
      jaccx::prof::note_free(bytes());
    }
    shard_.reset(); // pieces release to the pool through pooled_buffer
    jaccx::mem::release(blk_, detail::release_ctx(dev_));
    dev_ = nullptr;
    data_ = nullptr;
    count_ = 0;
  }

  // --- sharded layout plumbing ----------------------------------------------

  element_ref<T> shard_ref(index_t linear) const {
    auto& st = *shard_;
    const index_t ge = st.ghost * st.slow_stride;
    if (st.bound >= 0) {
      auto& p = st.pieces[static_cast<std::size_t>(st.bound)];
      // Kernel access on the bound device: owned range plus halo reach.
      JACCX_ASSERT(linear >= p.lo - ge && linear < p.hi + ge);
      return element_ref<T>(p.buf.data() + ge + (linear - p.lo),
                            p.buf.owner());
    }
    // Host-side access (tests, expr fallback): find the owner; track() is
    // a no-op outside launches, so this never mistracks.
    for (auto& p : st.pieces) {
      if (linear >= p.lo && linear < p.hi) {
        return element_ref<T>(p.buf.data() + ge + (linear - p.lo),
                              p.buf.owner());
      }
    }
    JACCX_ASSERT(false && "sharded pieces must cover the index space");
    return element_ref<T>(nullptr, nullptr);
  }

  /// One piece per device under the set's CURRENT bounds, with `ghost`
  /// slow-units of capacity each side.  Contents are uninitialized (pool
  /// recycling); every caller fills or copies over them.
  std::vector<shard_piece<T>> shard_make_pieces(index_t ghost) {
    auto& st = *shard_;
    const auto& b = st.set->bounds(st.slow_extent);
    const index_t ge = ghost * st.slow_stride;
    std::vector<shard_piece<T>> out;
    out.reserve(b.size() - 1);
    for (int d = 0; d < st.set->devices(); ++d) {
      const index_t lo = b[static_cast<std::size_t>(d)] * st.slow_stride;
      const index_t hi = b[static_cast<std::size_t>(d) + 1] * st.slow_stride;
      out.push_back(shard_piece<T>{
          jaccx::mem::pooled_buffer<T>(st.set->dev(d), (hi - lo) + 2 * ge,
                                       "shard.piece"),
          lo, hi});
    }
    return out;
  }

  /// Same plan, wider halo: owned data moves locally (no transfer charge;
  /// allocation charges come from the pool as usual).
  void shard_regrow(index_t radius) {
    auto& st = *shard_;
    auto old = std::move(st.pieces);
    const index_t old_ge = st.ghost * st.slow_stride;
    st.pieces = shard_make_pieces(radius);
    const index_t ge = radius * st.slow_stride;
    for (std::size_t d = 0; d < st.pieces.size(); ++d) {
      auto& np = st.pieces[d];
      np.buf.fill_untracked(T{});
      if (np.hi > np.lo) {
        std::memcpy(np.buf.data() + ge, old[d].buf.data() + old_ge,
                    static_cast<std::size_t>(np.hi - np.lo) * sizeof(T));
      }
    }
    st.ghost = radius;
  }

  /// The set's plan moved: rebuild pieces under the new bounds.  Cells
  /// whose owner changed are charged as a device-to-device hop (D2H on the
  /// old owner, H2D on the new), name "shard.reshard".
  void shard_replan(index_t radius) {
    auto& st = *shard_;
    auto old = std::move(st.pieces);
    const index_t old_ge = st.ghost * st.slow_stride;
    const index_t ghost = std::max(st.ghost, radius);
    st.pieces = shard_make_pieces(ghost);
    const index_t ge = ghost * st.slow_stride;
    for (std::size_t d = 0; d < st.pieces.size(); ++d) {
      auto& np = st.pieces[d];
      np.buf.fill_untracked(T{});
      for (std::size_t e = 0; e < old.size(); ++e) {
        auto& op = old[e];
        const index_t lo = std::max(np.lo, op.lo);
        const index_t hi = std::min(np.hi, op.hi);
        if (lo >= hi) {
          continue;
        }
        std::memcpy(np.buf.data() + ge + (lo - np.lo),
                    op.buf.data() + old_ge + (lo - op.lo),
                    static_cast<std::size_t>(hi - lo) * sizeof(T));
        if (d != e) {
          const auto bytes = static_cast<std::uint64_t>(hi - lo) * sizeof(T);
          op.buf.owner()->charge_d2h(bytes, "shard.reshard");
          np.buf.owner()->charge_h2d(bytes, "shard.reshard");
        }
      }
    }
    st.ghost = ghost;
    st.generation = st.set->plan_generation();
  }

  /// D2H gather over every piece (the sharded body of copy_to_host).
  void shard_copy_out(T* dst) const {
    const auto& st = *shard_;
    const index_t ge = st.ghost * st.slow_stride;
    for (const auto& p : st.pieces) {
      if (p.hi > p.lo) {
        const auto b = static_cast<std::uint64_t>(p.hi - p.lo) * sizeof(T);
        std::memcpy(dst + p.lo, p.buf.data() + ge,
                    static_cast<std::size_t>(b));
        p.buf.owner()->charge_d2h(b, "jacc.array");
      }
    }
  }

  /// H2D scatter over every piece (the sharded body of copy_from_host).
  void shard_copy_in(const T* src) {
    auto& st = *shard_;
    const index_t ge = st.ghost * st.slow_stride;
    for (auto& p : st.pieces) {
      if (p.hi > p.lo) {
        const auto b = static_cast<std::uint64_t>(p.hi - p.lo) * sizeof(T);
        std::memcpy(p.buf.data() + ge, src + p.lo,
                    static_cast<std::size_t>(b));
        p.buf.owner()->charge_h2d(b, "jacc.array");
      }
    }
  }

  /// Full D2H path (memcpy + device charge + prof note).  `pl` overrides
  /// the worker pool (queue lanes); null = default pool.
  void copy_out(T* dst, jaccx::pool::thread_pool* pl) const {
    if (shard_ != nullptr) [[unlikely]] {
      shard_copy_out(dst);
      if (jaccx::prof::enabled()) [[unlikely]] {
        jaccx::prof::note_copy("jacc.array", /*to_device=*/false, bytes());
      }
      return;
    }
    if (use_workers()) {
      const T* src = data_;
      auto& pool = pl != nullptr ? *pl : jaccx::pool::default_pool();
      pool.parallel_chunks(count_, [src, dst](unsigned, jaccx::pool::range r) {
        std::memcpy(dst + r.begin, src + r.begin,
                    static_cast<std::size_t>(r.size()) * sizeof(T));
      });
    } else {
      for (index_t i = 0; i < count_; ++i) {
        dst[i] = data_[i];
      }
    }
    if (dev_ != nullptr) {
      dev_->charge_d2h(bytes(), "jacc.array");
    }
    if (jaccx::prof::enabled()) [[unlikely]] {
      jaccx::prof::note_copy("jacc.array", /*to_device=*/false, bytes());
    }
  }

  /// Full H2D path, symmetric with copy_out.
  void copy_in_full(const T* src, jaccx::pool::thread_pool* pl) {
    if (shard_ != nullptr) [[unlikely]] {
      shard_copy_in(src);
      if (jaccx::prof::enabled()) [[unlikely]] {
        jaccx::prof::note_copy("jacc.array", /*to_device=*/true, bytes());
      }
      return;
    }
    copy_in(src, pl);
    if (dev_ != nullptr) {
      dev_->charge_h2d(bytes(), "jacc.array");
    }
    if (jaccx::prof::enabled()) [[unlikely]] {
      jaccx::prof::note_copy("jacc.array", /*to_device=*/true, bytes());
    }
  }

  /// True when initialization / copies should run on the worker pool:
  /// large host arrays under the threads back end (first-touch placement
  /// plus memory-bandwidth parallelism).
  bool use_workers() const {
    if constexpr (!std::is_trivially_copyable_v<T>) {
      return false;
    }
    return dev_ == nullptr && bytes() >= detail::parallel_init_min_bytes &&
           current_backend() == backend::threads;
  }

  void fill_default() {
    if (use_workers()) {
      T* d = data_;
      jaccx::pool::default_pool().parallel_chunks(
          count_, [d](unsigned, jaccx::pool::range r) {
            for (index_t i = r.begin; i < r.end; ++i) {
              d[i] = T{};
            }
          });
    } else {
      for (index_t i = 0; i < count_; ++i) {
        data_[i] = T{};
      }
    }
  }

  void copy_in(const T* host, jaccx::pool::thread_pool* pl = nullptr) {
    if (use_workers()) {
      T* d = data_;
      auto& pool = pl != nullptr ? *pl : jaccx::pool::default_pool();
      pool.parallel_chunks(
          count_, [d, host](unsigned, jaccx::pool::range r) {
            std::memcpy(d + r.begin, host + r.begin,
                        static_cast<std::size_t>(r.size()) * sizeof(T));
          });
    } else {
      for (index_t i = 0; i < count_; ++i) {
        data_[i] = host[i];
      }
    }
  }

  void note_construct(bool h2d) {
    if (jaccx::prof::enabled()) [[unlikely]] {
      jaccx::prof::note_alloc("jacc.array", bytes());
      if (h2d) {
        jaccx::prof::note_copy("jacc.array", /*to_device=*/true, bytes());
      }
    }
  }

  jaccx::sim::device* dev_ = nullptr;
  jaccx::mem::block blk_; ///< pool claim ticket owning the storage
  T* data_ = nullptr;
  index_t count_ = 0;
  /// Non-null exactly for sharded placement (jacc::sharded); the monolithic
  /// dev_/blk_/data_ trio stays empty then and storage lives in the pieces.
  std::unique_ptr<shard_state<T>> shard_;
};

} // namespace detail

/// 1D JACC array; `dx = JACC.Array(x)` becomes `jacc::array<double> dx(x)`.
template <class T>
class array : public detail::array_base<T> {
public:
  using base = detail::array_base<T>;

  /// Zero-initialized array of n elements.
  explicit array(index_t n) : base(n) {}
  /// Uninitialized array (scratch that is fully overwritten before use).
  array(uninit_t, index_t n) : base(uninit, n) {}
  /// Host -> device construction (charges H2D under simulated back ends).
  array(const T* host, index_t n) : base(host, n) {}
  explicit array(const std::vector<T>& host)
      : base(host.data(), static_cast<index_t>(host.size())) {}
  array(std::initializer_list<T> init)
      : base(init.begin(), static_cast<index_t>(init.size())) {}

  /// Sharded placement across a device_set (zero-initialized).
  array(sharded_t s, index_t n) : base(*s.set, nullptr, n, n, 1) {}
  /// Sharded host -> device construction (per-device H2D of each shard).
  array(sharded_t s, const T* host, index_t n) : base(*s.set, host, n, n, 1) {}
  array(sharded_t s, const std::vector<T>& host)
      : base(*s.set, host.data(), static_cast<index_t>(host.size()),
             static_cast<index_t>(host.size()), 1) {}

  detail::element_ref<T> operator[](index_t i) const { return this->ref(i); }
};

/// 2D JACC array, column-major like Julia: (i, j) with i fastest.
template <class T>
class array2d : public detail::array_base<T> {
public:
  using base = detail::array_base<T>;

  array2d(index_t rows, index_t cols) : base(rows * cols), rows_(rows),
                                        cols_(cols) {}
  /// Host data interpreted column-major.
  array2d(const T* host, index_t rows, index_t cols)
      : base(host, rows * cols), rows_(rows), cols_(cols) {}
  array2d(const std::vector<T>& host, index_t rows, index_t cols)
      : base(host.data(), rows * cols), rows_(rows), cols_(cols) {
    JACCX_ASSERT(static_cast<index_t>(host.size()) == rows * cols);
  }

  /// Sharded placement: columns (the slow dimension) split across the set.
  array2d(sharded_t s, index_t rows, index_t cols)
      : base(*s.set, nullptr, rows * cols, cols, rows), rows_(rows),
        cols_(cols) {}
  array2d(sharded_t s, const T* host, index_t rows, index_t cols)
      : base(*s.set, host, rows * cols, cols, rows), rows_(rows),
        cols_(cols) {}
  array2d(sharded_t s, const std::vector<T>& host, index_t rows, index_t cols)
      : base(*s.set, host.data(), rows * cols, cols, rows), rows_(rows),
        cols_(cols) {
    JACCX_ASSERT(static_cast<index_t>(host.size()) == rows * cols);
  }

  detail::element_ref<T> operator()(index_t i, index_t j) const {
    JACCX_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return this->ref(i + j * rows_);
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }

private:
  index_t rows_ = 0;
  index_t cols_ = 0;
};

/// 3D JACC array, column-major: (i, j, k) with i fastest.
template <class T>
class array3d : public detail::array_base<T> {
public:
  using base = detail::array_base<T>;

  array3d(index_t rows, index_t cols, index_t depth)
      : base(rows * cols * depth), rows_(rows), cols_(cols), depth_(depth) {}
  array3d(const T* host, index_t rows, index_t cols, index_t depth)
      : base(host, rows * cols * depth), rows_(rows), cols_(cols),
        depth_(depth) {}

  /// Sharded placement: depth planes (the slow dimension) split across the
  /// set.
  array3d(sharded_t s, index_t rows, index_t cols, index_t depth)
      : base(*s.set, nullptr, rows * cols * depth, depth, rows * cols),
        rows_(rows), cols_(cols), depth_(depth) {}
  array3d(sharded_t s, const T* host, index_t rows, index_t cols,
          index_t depth)
      : base(*s.set, host, rows * cols * depth, depth, rows * cols),
        rows_(rows), cols_(cols), depth_(depth) {}

  detail::element_ref<T> operator()(index_t i, index_t j, index_t k) const {
    JACCX_ASSERT(i >= 0 && i < rows_ && j >= 0 && j < cols_ && k >= 0 &&
                 k < depth_);
    return this->ref(i + rows_ * (j + cols_ * k));
  }

  index_t rows() const { return rows_; }
  index_t cols() const { return cols_; }
  index_t depth() const { return depth_; }

private:
  index_t rows_ = 0;
  index_t cols_ = 0;
  index_t depth_ = 0;
};

} // namespace jacc
