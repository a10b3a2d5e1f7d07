// What one benchmark invocation produces: end-to-end metrics (untraced
// run), per-layer metrics (traced run), informational figures, the run
// configuration, and the check tally.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct run_args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
};

struct report {
  std::vector<metric> e2e;    ///< scored end-to-end metrics
  std::vector<metric> layer;  ///< per-layer metrics (traced run)
  std::vector<metric> extra;  ///< printed, not scored
  std::vector<std::pair<std::string, std::string>> config;
  check_tally checks;

  void add_e2e(std::string n, double v, std::string u) {
    e2e.push_back({std::move(n), v, std::move(u)});
  }
  void add_layer(std::string n, double v, std::string u) {
    layer.push_back({std::move(n), v, std::move(u)});
  }
  void add_extra(std::string n, double v, std::string u) {
    extra.push_back({std::move(n), v, std::move(u)});
  }
  void note(std::string k, std::string v) {
    config.emplace_back(std::move(k), std::move(v));
  }
};

/// Seconds on the steady clock.
double now_s();

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int setup_reps = 5;

} // namespace perfbench
