// The four workloads and the closed-loop helpers they share.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "report.hpp"

namespace perfbench {

void run_hpccg_small(const run_args& a, report& r);
void run_lbm_large(const run_args& a, report& r);
void run_serve_open(const run_args& a, report& r);
void run_sim_gpu(const run_args& a, report& r);

/// Closed loop with one caller: calls op(i) until `seconds` of wall time
/// have passed and at least `min_ops` ops ran (so p90 has ten samples
/// beyond it), but never past `cap_s`.  op returns its own timed interval
/// in seconds (checks run inside op, outside that interval).
std::vector<double> closed_loop(double seconds, std::size_t min_ops,
                                double cap_s,
                                const std::function<double(std::uint64_t)>& op);

/// Smallest op count for which p90 has ten samples beyond it.
inline constexpr std::size_t min_closed_ops = 100;
/// Smallest window for the scored medians.
inline constexpr std::size_t min_window_ops = 20;

/// Scored op_ms_p50 and printed op_ms_p90, p99 (when ten samples lie
/// beyond it) and highest supported tail.  The p50 and p90 are medians over
/// up to five contiguous windows of the run, so a burst of outside load
/// that slows one stretch moves one window, not the result.
void add_latency_metrics(report& r, const std::vector<double>& ms);

/// The scored closed-loop metrics — setup_s, ops_per_s (windowed like
/// op_ms_p50), op_ms_p50 and peak_rss_mb — plus the printed tail figures
/// and fail_frac.
void add_closed_loop_metrics(report& r, double setup_s,
                             const std::vector<double>& op_s);

/// Writes the recorded spans as a Chrome trace and adds their per-name
/// self-time table to the report's unscored figures.
void finish_trace(const run_args& a, report& r);

/// Records the resolved back end, pool width, lanes, fuse, memory-pool and
/// shard modes.  Call right after set-up.
void note_runtime(report& r);

/// Working-set size note, in bytes and MiB.
void note_bytes(report& r, const std::string& key, double bytes);

/// Last-level cache size in bytes (0 when unknown).
double llc_bytes();

} // namespace perfbench
