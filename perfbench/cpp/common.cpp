#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "core/jacc.hpp"
#include "mem/pool.hpp"
#include "stats.hpp"
#include "threadpool/thread_pool.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

double llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) {
    return static_cast<double>(l3);
  }
  const long l2 = sysconf(_SC_LEVEL2_CACHE_SIZE);
  return l2 > 0 ? static_cast<double>(l2) : 0.0;
}

void note_runtime(report& r) {
  r.note("backend", std::string(jacc::to_string(jacc::current_backend())));
  r.note("pool_width", std::to_string(jaccx::pool::default_pool().size()));
  r.note("lanes", std::to_string(jacc::queue_lane_count()));
  r.note("lane_width", std::to_string(jacc::queue_lane_width()));
  r.note("fuse", std::string(jacc::to_string(jacc::fuse())));
  r.note("mem_pool", std::string(jaccx::mem::to_string(jaccx::mem::mode())));
  const jacc::device_set probe(jacc::backend::cuda_a100, 1);
  r.note("shard", probe.auto_shard() ? "auto" : "off");
}

void note_bytes(report& r, const std::string& key, double bytes) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.0f B (%.2f MiB)", bytes,
                bytes / (1024.0 * 1024.0));
  r.note(key, buf);
}

std::vector<double> closed_loop(
    double seconds, std::size_t min_ops, double cap_s,
    const std::function<double(std::uint64_t)>& op) {
  std::vector<double> op_s;
  const double t0 = now_s();
  for (std::uint64_t i = 0;; ++i) {
    const double elapsed = now_s() - t0;
    if ((elapsed >= seconds && op_s.size() >= min_ops) || elapsed >= cap_s) {
      break;
    }
    op_s.push_back(op(i));
  }
  return op_s;
}

void add_latency_metrics(report& r, const std::vector<double>& ms) {
  r.add_e2e("op_ms_p50",
            median_of_windows(ms, window_count(ms.size(), min_window_ops),
                              [](const auto& w) { return median(w); }),
            "ms");
  r.add_extra("op_ms_p90",
              median_of_windows(ms, window_count(ms.size(), min_closed_ops),
                                [](const auto& w) {
                                  return percentile(w, 90.0);
                                }),
              "ms");
  if (tail_supported(ms.size(), 99.0)) {
    r.add_extra("op_ms_p99", percentile(ms, 99.0), "ms");
  }
  const double q = highest_supported_percentile(ms.size());
  r.add_extra("op_ms_tail", percentile(ms, q), "ms");
  r.add_extra("op_ms_tail_percentile", q, "pct");
  r.add_extra("samples", static_cast<double>(ms.size()), "count");
  r.add_extra("windows",
              static_cast<double>(window_count(ms.size(), min_window_ops)),
              "count");
}

void add_closed_loop_metrics(report& r, double setup_s,
                             const std::vector<double>& op_s) {
  std::vector<double> ms;
  ms.reserve(op_s.size());
  for (const double s : op_s) {
    ms.push_back(s * 1e3);
  }
  r.add_e2e("setup_s", setup_s, "s");
  r.add_e2e("ops_per_s",
            median_of_windows(op_s, window_count(op_s.size(), min_window_ops),
                              [](const std::vector<double>& w) {
                                return static_cast<double>(w.size()) / sum(w);
                              }),
            "1/s");
  add_latency_metrics(r, ms);
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  r.add_extra("fail_frac", r.checks.fail_frac(), "frac");
}

void finish_trace(const run_args& a, report& r) {
  const auto spans = trace().spans();
  const std::string path = a.out_dir + "/trace_" + a.workload + "_seed" +
                           std::to_string(a.seed) + ".json";
  std::ofstream out(path);
  out << chrome_trace_json(spans);
  r.note("trace_file", out ? path : "(write failed: " + path + ")");
  r.note("trace_spans", std::to_string(spans.size()));
  for (const auto& row : summarize(spans)) {
    r.add_extra("span." + row.name + ".count", static_cast<double>(row.count),
                "count");
    r.add_extra("span." + row.name + ".self_us", row.self_us, "us");
    r.add_extra("span." + row.name + ".total_us", row.total_us, "us");
  }
}

} // namespace perfbench
