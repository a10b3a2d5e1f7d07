// Per-layer counters for the traced run.  Program counters come only from
// the library's public prof::aggregate_* functions (plus mem's public
// alloc_retries()), read before and after the measured window; the window
// difference is divided by the ops it covered.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

/// Every per-layer metric the traced run prints, with its unit.  A workload
/// fills the ones that apply to it; the rest print as 0 and are listed on
/// the run's "not applicable" line.
const std::vector<std::pair<std::string, std::string>>& layer_metric_names();

struct layer_snapshot {
  std::uint64_t regions = 0; ///< fork/join regions, all pools
  std::uint64_t parks = 0;
  double busy_ns = 0.0;
  double spin_ns = 0.0;
  double park_ns = 0.0;
  std::uint64_t mem_hits = 0;
  std::uint64_t mem_misses = 0;
  std::uint64_t mem_high_water = 0; ///< bytes, max over pools (absolute)
  std::uint64_t alloc_retries = 0;
  double lane_busy_us = 0.0;
  int lanes = 0;
  std::uint64_t graph_nodes = 0;
  double graph_replay_us = 0.0;

  static layer_snapshot take();
};

/// Starts a traced window: clears collected prof events, turns collection
/// on, and returns the counters at the window start.
layer_snapshot begin_prof_window();
/// Turns collection off again.
void end_prof_window();

/// Kernel rows grouped by the benchmark's kernel families.
struct kernel_family {
  double total_us = 0.0;
  double bytes = 0.0; ///< computed from the launch hints
  std::uint64_t count = 0;
};
struct kernel_totals {
  kernel_family csr_spmv, dot, axpy_xpay, lbm_site;
  std::uint64_t launches = 0; ///< every kernel row
  double total_us = 0.0;      ///< every kernel row
};
kernel_totals read_kernels();

/// Adds the threadpool / core / kernel / mem / queue / graph rows for a
/// window of `ops` ops whose op wall times sum to `op_wall_us`.
void add_window_layers(report& r, const layer_snapshot& a,
                       const layer_snapshot& b, const kernel_totals& k,
                       double ops, double op_wall_us, double window_s);

/// Fills every per-layer metric the workload did not set with 0 and
/// records the names as not applicable.
void complete_layers(report& r);

} // namespace perfbench
