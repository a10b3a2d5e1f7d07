// In-memory span recorder for the traced run.  Spans are recorded only from
// the benchmark's own code, around each public call it makes into the
// library; nothing inside the library is instrumented.  Each span has a
// name, start, end, parent and the op it belongs to.  The spans are written
// out once, at exit, as Chrome trace-event JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct span_rec {
  const char* name = "";   ///< string literal
  std::uint64_t t0 = 0;    ///< ns, steady clock
  std::uint64_t t1 = 0;    ///< 0 while open
  std::int64_t parent = -1;
  std::uint64_t op = 0;
  std::uint32_t tid = 0;
};

/// Total length of the union of [a, b) intervals, each clipped to [lo, hi).
double covered_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
                  std::uint64_t lo, std::uint64_t hi);

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (children may run on other threads and overlap).
std::vector<double> self_times_ns(const std::vector<span_rec>& spans);

struct span_summary {
  std::string name;
  std::uint64_t count = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};

/// Per-name totals, in first-seen order.
std::vector<span_summary> summarize(const std::vector<span_rec>& spans);

/// Chrome trace-event JSON ("X" complete events, one tid per thread).
std::string chrome_trace_json(const std::vector<span_rec>& spans);

class tracer {
public:
  bool on() const { return on_.load(std::memory_order_relaxed); }
  void enable(bool on) { on_.store(on, std::memory_order_relaxed); }

  /// Opens a span whose parent is the innermost open span of this thread.
  std::int64_t open(const char* name, std::uint64_t op);
  void close(std::int64_t id);

  std::vector<span_rec> spans() const;

  /// RAII span; records nothing while tracing is off.
  class scope {
  public:
    scope(tracer& t, const char* name, std::uint64_t op)
        : t_(t), id_(t.on() ? t.open(name, op) : -1) {}
    ~scope() {
      if (id_ >= 0) {
        t_.close(id_);
      }
    }
    scope(const scope&) = delete;
    scope& operator=(const scope&) = delete;

  private:
    tracer& t_;
    std::int64_t id_;
  };

private:
  std::atomic<bool> on_{false}; // read by job threads
  mutable std::mutex mu_;
  std::vector<span_rec> spans_; // guarded by mu_
};

/// The process-wide recorder the workloads write to.
tracer& trace();

} // namespace perfbench
