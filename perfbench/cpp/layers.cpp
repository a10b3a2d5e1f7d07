#include "layers.hpp"

#include <algorithm>
#include <string_view>

#include "mem/pool.hpp"
#include "prof/prof.hpp"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& layer_metric_names() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"threadpool.regions_per_op", "count"},
      {"threadpool.park_per_op", "count"},
      {"threadpool.busy_frac", "frac"},
      {"core.launches_per_op", "count"},
      {"core.launch_overhead_us", "us"},
      {"kernel.csr_spmv.ms_per_op", "ms"},
      {"kernel.csr_spmv.gbps_computed", "GB/s"},
      {"kernel.dot.ms_per_op", "ms"},
      {"kernel.dot.gbps_computed", "GB/s"},
      {"kernel.axpy_xpay.ms_per_op", "ms"},
      {"kernel.axpy_xpay.gbps_computed", "GB/s"},
      {"kernel.lbm_site.ms_per_op", "ms"},
      {"kernel.lbm_site.gbps_computed", "GB/s"},
      {"lbm.mlups", "MLUPS"},
      {"lbm.mass_drift_rel", "frac"},
      {"cg.iters_per_solve", "count"},
      {"cg.rel_residual_max", "frac"},
      {"mem.hit_frac", "frac"},
      {"mem.misses_per_op", "count"},
      {"mem.high_water_mb", "MB"},
      {"mem.alloc_retries", "count"},
      {"queue.lane_busy_frac", "frac"},
      {"graph.replay_us_per_node", "us"},
      {"async.future_wait_us_p99", "us"},
      {"serve.queue_wait_ms_p50", "ms"},
      {"serve.queue_wait_ms_p99", "ms"},
      {"serve.run_ms_p50", "ms"},
      {"serve.slot_busy_frac", "frac"},
      {"serve.deferred_frac", "frac"},
      {"serve.rejected", "count"},
      {"serve.gen_late_ms_p99", "ms"},
      {"serve.backlog_max", "count"},
      {"sim.wall_per_device_us", "us/us"},
      {"sim.device_us_per_op", "us"},
      {"sim.dram_mb_per_op", "MB"},
      {"sim.cache_mb_per_op", "MB"},
      {"sim.launches_per_op", "count"},
      {"shard.halo_mb_per_op", "MB"},
      {"shard.halo_us_per_op", "us"},
      {"baseline.serial_ops_per_s", "1/s"},
      {"baseline.threads_speedup", "x"},
      {"trace.overhead_frac", "frac"},
  };
  return names;
}

layer_snapshot layer_snapshot::take() {
  layer_snapshot s;
  for (const auto& p : jaccx::prof::aggregate_pools()) {
    s.regions += p.regions;
    for (const auto& w : p.workers) {
      s.parks += w.parks;
      s.busy_ns += static_cast<double>(w.busy_ns);
      s.spin_ns += static_cast<double>(w.spin_ns);
      s.park_ns += static_cast<double>(w.park_ns);
    }
  }
  for (const auto& m : jaccx::prof::aggregate_mem_pools()) {
    s.mem_hits += m.hits;
    s.mem_misses += m.misses;
    s.mem_high_water = std::max(s.mem_high_water, m.high_water_bytes);
  }
  s.alloc_retries = jaccx::mem::alloc_retries();
  const auto a = jaccx::prof::aggregate_async();
  for (const auto& l : a.lanes) {
    s.lane_busy_us += l.busy_us;
  }
  s.lanes = static_cast<int>(a.lanes.size());
  s.graph_nodes = a.graph_nodes;
  s.graph_replay_us = a.graph_replay_us;
  return s;
}

layer_snapshot begin_prof_window() {
  jaccx::prof::reset();
  jaccx::prof::set_mode(jaccx::prof::mode_collect);
  return layer_snapshot::take();
}

void end_prof_window() { jaccx::prof::set_mode(jaccx::prof::mode_off); }

kernel_totals read_kernels() {
  kernel_totals t;
  for (const auto& k : jaccx::prof::aggregate_kernels()) {
    if (k.kind != jaccx::prof::construct::parallel_for &&
        k.kind != jaccx::prof::construct::parallel_reduce) {
      continue; // regions
    }
    t.launches += k.count;
    t.total_us += k.total_us;
    const std::string_view n = k.name;
    kernel_family* fam = nullptr;
    if (n.find("spmv") != std::string_view::npos) {
      fam = &t.csr_spmv;
    } else if (n == "jacc.lbm") {
      fam = &t.lbm_site;
    } else if (n.ends_with(".dot")) {
      fam = &t.dot;
    } else if (n.find("axpy") != std::string_view::npos ||
               n.find("xpay") != std::string_view::npos ||
               n.find("fused_update") != std::string_view::npos) {
      fam = &t.axpy_xpay;
    }
    if (fam != nullptr) {
      fam->total_us += k.total_us;
      fam->count += k.count;
      // gbytes_per_s is hinted bytes over measured time.
      fam->bytes += k.gbytes_per_s * k.total_us * 1e3;
    }
  }
  return t;
}

namespace {

void add_family(report& r, const std::string& name, const kernel_family& f,
                double ops) {
  if (f.count == 0) {
    return;
  }
  r.add_layer("kernel." + name + ".ms_per_op", f.total_us * 1e-3 / ops, "ms");
  r.add_layer("kernel." + name + ".gbps_computed",
              f.total_us > 0.0 ? f.bytes / (f.total_us * 1e3) : 0.0, "GB/s");
}

} // namespace

void add_window_layers(report& r, const layer_snapshot& a,
                       const layer_snapshot& b, const kernel_totals& k,
                       double ops, double op_wall_us, double window_s) {
  r.add_layer("threadpool.regions_per_op",
              static_cast<double>(b.regions - a.regions) / ops, "count");
  r.add_layer("threadpool.park_per_op",
              static_cast<double>(b.parks - a.parks) / ops, "count");
  const double busy = b.busy_ns - a.busy_ns;
  const double all = busy + (b.spin_ns - a.spin_ns) + (b.park_ns - a.park_ns);
  r.add_layer("threadpool.busy_frac", all > 0.0 ? busy / all : 0.0, "frac");
  r.add_layer("core.launches_per_op", static_cast<double>(k.launches) / ops,
              "count");
  if (k.launches > 0) {
    r.add_layer("core.launch_overhead_us",
                (op_wall_us - k.total_us) / static_cast<double>(k.launches),
                "us");
  }
  add_family(r, "csr_spmv", k.csr_spmv, ops);
  add_family(r, "dot", k.dot, ops);
  add_family(r, "axpy_xpay", k.axpy_xpay, ops);
  add_family(r, "lbm_site", k.lbm_site, ops);
  const double hits = static_cast<double>(b.mem_hits - a.mem_hits);
  const double misses = static_cast<double>(b.mem_misses - a.mem_misses);
  r.add_layer("mem.hit_frac",
              hits + misses > 0.0 ? hits / (hits + misses) : 0.0, "frac");
  r.add_layer("mem.misses_per_op", misses / ops, "count");
  r.add_layer("mem.high_water_mb",
              static_cast<double>(b.mem_high_water) / (1024.0 * 1024.0), "MB");
  r.add_layer("mem.alloc_retries",
              static_cast<double>(b.alloc_retries - a.alloc_retries), "count");
  if (b.lanes > 0 && window_s > 0.0) {
    r.add_layer("queue.lane_busy_frac",
                (b.lane_busy_us - a.lane_busy_us) /
                    (static_cast<double>(b.lanes) * window_s * 1e6),
                "frac");
  }
  if (b.graph_nodes > a.graph_nodes) {
    r.add_layer("graph.replay_us_per_node",
                (b.graph_replay_us - a.graph_replay_us) /
                    static_cast<double>(b.graph_nodes - a.graph_nodes),
                "us");
  }
}

void complete_layers(report& r) {
  std::string missing;
  std::vector<metric> ordered;
  for (const auto& [name, unit] : layer_metric_names()) {
    const auto it =
        std::find_if(r.layer.begin(), r.layer.end(),
                     [&](const metric& m) { return m.name == name; });
    if (it != r.layer.end()) {
      ordered.push_back(*it);
    } else {
      ordered.push_back({name, 0.0, unit});
      missing += missing.empty() ? name : " " + name;
    }
  }
  r.layer = std::move(ordered);
  r.note("layers_not_applicable", missing.empty() ? "-" : missing);
}

} // namespace perfbench
