#include "fig_common.hpp"

#include <array>
#include <cstdio>
#include <fstream>
#include <thread>

#include "mem/pool.hpp"
#include "prof/prof.hpp"
#include "support/env.hpp"
#include "threadpool/thread_pool.hpp"

namespace jaccx::bench {
namespace {

/// Dispatches a native (device-specific) operation to the right vendor API.
template <class CudaFn, class HipFn, class OneFn, class RomeFn>
double native_dispatch(const arch& a, CudaFn cuda, HipFn hip, OneFn one,
                       RomeFn rome) {
  if (a.be == backend::cuda_a100) {
    return cuda();
  }
  if (a.be == backend::hip_mi100) {
    return hip();
  }
  if (a.be == backend::oneapi_max1550) {
    return one();
  }
  return rome();
}

} // namespace

double blas1_1d_us(const arch& a, bool via_jacc, bool is_dot, index_t n) {
  const std::vector<double> host(static_cast<std::size_t>(n), 1.0);
  if (via_jacc) {
    jacc::scoped_backend sb(a.be);
    blas::darray x(host), y(host);
    return timed_us(a, [&] {
      if (is_dot) {
        benchmark::DoNotOptimize(blas::jacc_dot(n, x, y));
      } else {
        blas::jacc_axpy(n, 2.0, x, y);
      }
    });
  }
  auto& dev = dev_of(a);
  sim::device_buffer<double> dx(dev, n), dy(dev, n);
  dx.copy_from_host(host.data());
  dy.copy_from_host(host.data());
  auto sx = dx.span();
  auto sy = dy.span();
  return native_dispatch(
      a,
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::native_gpu_dot<vendor::cuda_api>(n, sx, sy));
          } else {
            blas::native_gpu_axpy<vendor::cuda_api>(n, 2.0, sx, sy);
          }
        });
      },
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::native_gpu_dot<vendor::hip_api>(n, sx, sy));
          } else {
            blas::native_gpu_axpy<vendor::hip_api>(n, 2.0, sx, sy);
          }
        });
      },
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::native_gpu_dot<vendor::oneapi_api>(n, sx, sy));
          } else {
            blas::native_gpu_axpy<vendor::oneapi_api>(n, 2.0, sx, sy);
          }
        });
      },
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(blas::rome_dot(dev_of(a), n, sx, sy));
          } else {
            blas::rome_axpy(dev_of(a), n, 2.0, sx, sy);
          }
        });
      });
}

double blas1_2d_us(const arch& a, bool via_jacc, bool is_dot, index_t edge) {
  const index_t n = edge * edge;
  const std::vector<double> host(static_cast<std::size_t>(n), 1.0);
  if (via_jacc) {
    jacc::scoped_backend sb(a.be);
    blas::darray2d x(host, edge, edge), y(host, edge, edge);
    return timed_us(a, [&] {
      if (is_dot) {
        benchmark::DoNotOptimize(blas::jacc_dot2d(edge, edge, x, y));
      } else {
        blas::jacc_axpy2d(edge, edge, 2.0, x, y);
      }
    });
  }
  auto& dev = dev_of(a);
  sim::device_buffer<double> dx(dev, n), dy(dev, n);
  dx.copy_from_host(host.data());
  dy.copy_from_host(host.data());
  auto sx = dx.span2d(edge, edge);
  auto sy = dy.span2d(edge, edge);
  return native_dispatch(
      a,
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::native_gpu_dot2d<vendor::cuda_api>(edge, edge, sx, sy));
          } else {
            blas::native_gpu_axpy2d<vendor::cuda_api>(edge, edge, 2.0, sx,
                                                      sy);
          }
        });
      },
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::native_gpu_dot2d<vendor::hip_api>(edge, edge, sx, sy));
          } else {
            blas::native_gpu_axpy2d<vendor::hip_api>(edge, edge, 2.0, sx, sy);
          }
        });
      },
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::native_gpu_dot2d<vendor::oneapi_api>(edge, edge, sx,
                                                           sy));
          } else {
            blas::native_gpu_axpy2d<vendor::oneapi_api>(edge, edge, 2.0, sx,
                                                        sy);
          }
        });
      },
      [&] {
        return timed_us(a, [&] {
          if (is_dot) {
            benchmark::DoNotOptimize(
                blas::rome_dot2d(dev_of(a), edge, edge, sx, sy));
          } else {
            blas::rome_axpy2d(dev_of(a), edge, edge, 2.0, sx, sy);
          }
        });
      });
}

double lbm_step_us(const arch& a, bool via_jacc, index_t edge) {
  const index_t total = lbm::q * edge * edge;
  std::vector<double> init(static_cast<std::size_t>(total));
  const index_t plane = edge * edge;
  for (int k = 0; k < lbm::q; ++k) {
    for (index_t s = 0; s < plane; ++s) {
      init[static_cast<std::size_t>(k * plane + s)] =
          lbm::weights[static_cast<std::size_t>(k)];
    }
  }
  if (via_jacc) {
    // The paper's Fig. 10 listing as written: lbm_kernel over its own
    // scratch, source and target lattices and the three constant arrays,
    // one 2D parallel_for per step (lbm::simulation runs the fused form).
    jacc::scoped_backend sb(a.be);
    jacc::array<double> f(total);
    jacc::array<double> f1(init);
    jacc::array<double> f2(init);
    const auto consts = [](const std::array<double, lbm::q>& c) {
      return jacc::array<double>(std::vector<double>(c.begin(), c.end()));
    };
    const jacc::array<double> w = consts(lbm::weights);
    const jacc::array<double> cx = consts(lbm::vel_x);
    const jacc::array<double> cy = consts(lbm::vel_y);
    return timed_us(a, [&] {
      jacc::parallel_for(
          jacc::hints{.name = "jacc.lbm", .flops_per_index = lbm::site_flops,
                      .bytes_per_index = 144.0},
          jacc::dims2{edge, edge}, lbm::lbm_kernel, f, f1, f2, 0.8, w, cx,
          cy, edge);
    });
  }
  auto& dev = dev_of(a);
  sim::device_buffer<double> df(dev, total), df1(dev, total),
      df2(dev, total), dw(dev, lbm::q), dcx(dev, lbm::q), dcy(dev, lbm::q);
  df1.copy_from_host(init.data());
  df2.copy_from_host(init.data());
  dw.copy_from_host(lbm::weights.data());
  dcx.copy_from_host(lbm::vel_x.data());
  dcy.copy_from_host(lbm::vel_y.data());
  lbm::native_state st{df.span(), df1.span(), df2.span(), dw.span(),
                       dcx.span(), dcy.span(), edge, 0.8};
  return native_dispatch(
      a,
      [&] {
        return timed_us(a, [&] { lbm::native_gpu_step<vendor::cuda_api>(st); });
      },
      [&] {
        return timed_us(a, [&] { lbm::native_gpu_step<vendor::hip_api>(st); });
      },
      [&] {
        return timed_us(a,
                        [&] { lbm::native_gpu_step<vendor::oneapi_api>(st); });
      },
      [&] { return timed_us(a, [&] { lbm::rome_step(dev_of(a), st); }); });
}

double cg_iteration_us(const arch& a, bool via_jacc, index_t n) {
  if (via_jacc) {
    jacc::scoped_backend sb(a.be);
    cg::paper_state st(n);
    return timed_us(a, [&] { cg::paper_iteration(st); });
  }
  auto& dev = dev_of(a);
  const std::vector<double> half(static_cast<std::size_t>(n), 0.5);
  const std::vector<double> zero(static_cast<std::size_t>(n), 0.0);
  const std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  const std::vector<double> fours(static_cast<std::size_t>(n), 4.0);
  sim::device_buffer<double> sub(dev, n), diag(dev, n), super(dev, n),
      r(dev, n), p(dev, n), s(dev, n), x(dev, n), r_old(dev, n),
      r_aux(dev, n);
  sub.copy_from_host(ones.data());
  diag.copy_from_host(fours.data());
  super.copy_from_host(ones.data());
  r.copy_from_host(half.data());
  p.copy_from_host(half.data());
  s.copy_from_host(zero.data());
  x.copy_from_host(zero.data());
  r_old.copy_from_host(zero.data());
  r_aux.copy_from_host(zero.data());
  cg::native_workset st{sub.span(), diag.span(), super.span(), r.span(),
                        p.span(),   s.span(),    x.span(),     r_old.span(),
                        r_aux.span(), n};
  return native_dispatch(
      a,
      [&] {
        return timed_us(
            a, [&] { cg::native_gpu_iteration<vendor::cuda_api>(st); });
      },
      [&] {
        return timed_us(a,
                        [&] { cg::native_gpu_iteration<vendor::hip_api>(st); });
      },
      [&] {
        return timed_us(
            a, [&] { cg::native_gpu_iteration<vendor::oneapi_api>(st); });
      },
      [&] { return timed_us(a, [&] { cg::rome_iteration(dev_of(a), st); }); });
}

std::string row(const char* figure, const char* device, const char* model,
                const char* op, index_t n, double us) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%-6s %-8s %-7s %-6s n=%-10lld %12.2f us",
                figure, device, model, op, static_cast<long long>(n), us);
  return buf;
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  out += '"';
  return out;
}

} // namespace

bench_session::bench_session(std::string name) : name_(std::move(name)) {
  prof::enable_collection();
}

void bench_session::add_section(std::string key, std::string json_value) {
  extra_.emplace_back(std::move(key), std::move(json_value));
}

bench_session::~bench_session() {
  const std::string path = "BENCH_" + name_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "bench_session: cannot write %s\n", path.c_str());
  } else {
    out << "{\n  \"bench\": " << json_str(name_) << ",\n  \"config\": {";
    out << "\"backend\": "
        << json_str(std::string(jacc::to_string(jacc::current_backend())));
    out << ", \"hardware_concurrency\": "
        << std::thread::hardware_concurrency();
    const auto env = [&](const char* var) {
      const auto v = get_env(var);
      return v ? json_str(*v) : std::string("null");
    };
    out << ", \"JACC_NUM_THREADS\": " << env("JACC_NUM_THREADS")
        << ", \"JACC_SCHEDULE\": " << env("JACC_SCHEDULE")
        << ", \"JACC_SPIN_US\": " << env("JACC_SPIN_US")
        << ", \"JACC_PROFILE\": " << env("JACC_PROFILE")
        << ", \"mem_pool_mode\": "
        << json_str(std::string(mem::to_string(mem::mode()))) << "},\n";

    for (const auto& [key, value] : extra_) {
      out << "  " << json_str(key) << ": " << value << ",\n";
    }

    out << "  \"kernels\": [";
    bool first = true;
    char buf[512];
    for (const auto& k : prof::aggregate_kernels()) {
      const double mean =
          k.count != 0 ? k.total_us / static_cast<double>(k.count) : 0.0;
      std::snprintf(
          buf, sizeof buf,
          "%s\n    {\"name\": %s, \"construct\": \"%s\", \"backend\": %s, "
          "\"count\": %llu, \"units\": %llu, \"total_us\": %.3f, "
          "\"min_us\": %.3f, \"mean_us\": %.3f, \"max_us\": %.3f, "
          "\"gbytes_per_s\": %.3f, \"gflops_per_s\": %.3f}",
          first ? "" : ",", json_str(k.name).c_str(),
          prof::to_string(k.kind), json_str(k.backend).c_str(),
          static_cast<unsigned long long>(k.count),
          static_cast<unsigned long long>(k.units), k.total_us, k.min_us,
          mean, k.max_us, k.gbytes_per_s, k.gflops_per_s);
      out << buf;
      first = false;
    }
    out << "\n  ],\n  \"roofline\": [";
    first = true;
    for (const auto& r : prof::aggregate_roofline()) {
      std::snprintf(
          buf, sizeof buf,
          "%s\n    {\"name\": %s, \"target\": %s, \"simulated\": %s, "
          "\"count\": %llu, \"time_us\": %.3f, \"flops\": %.0f, "
          "\"bytes\": %.0f, \"intensity\": %.6f, \"peak_gbps\": %.1f, "
          "\"peak_gflops\": %.1f, \"ridge\": %.4f, \"achieved_gbps\": %.3f, "
          "\"achieved_gflops\": %.3f, \"attainable_gflops\": %.3f, "
          "\"pct_of_roof\": %.2f, \"memory_bound\": %s}",
          first ? "" : ",", json_str(r.name).c_str(),
          json_str(r.target).c_str(), r.simulated ? "true" : "false",
          static_cast<unsigned long long>(r.count), r.time_us, r.flops,
          r.bytes, r.intensity, r.peak.gbps, r.peak.gflops, r.ridge,
          r.achieved_gbps, r.achieved_gflops, r.attainable_gflops,
          r.pct_of_roof, r.memory_bound ? "true" : "false");
      out << buf;
      first = false;
    }
    out << "\n  ],\n  \"pools\": [";
    first = true;
    for (const auto& p : prof::aggregate_pools()) {
      out << (first ? "" : ",") << "\n    {\"width\": " << p.width
          << ", \"schedule\": " << json_str(p.schedule)
          << ", \"regions\": " << p.regions << ", \"workers\": [";
      bool wfirst = true;
      for (const auto& w : p.workers) {
        std::snprintf(buf, sizeof buf,
                      "%s{\"worker\": %u, \"busy_us\": %.1f, \"spin_us\": "
                      "%.1f, \"park_us\": %.1f, \"parks\": %llu, "
                      "\"chunks\": %llu}",
                      wfirst ? "" : ", ", w.worker,
                      static_cast<double>(w.busy_ns) * 1e-3,
                      static_cast<double>(w.spin_ns) * 1e-3,
                      static_cast<double>(w.park_ns) * 1e-3,
                      static_cast<unsigned long long>(w.parks),
                      static_cast<unsigned long long>(w.chunks));
        out << buf;
        wfirst = false;
      }
      out << "]}";
      first = false;
    }
    out << "\n  ],\n  \"mem_pools\": [";
    first = true;
    for (const auto& mp : prof::aggregate_mem_pools()) {
      std::snprintf(buf, sizeof buf,
                    "%s\n    {\"pool\": %s, \"mode\": %s, \"hits\": %llu, "
                    "\"misses\": %llu, \"bytes_cached\": %llu, "
                    "\"bytes_live\": %llu, \"workspace_bytes\": %llu, "
                    "\"high_water_bytes\": %llu, \"live_blocks\": %llu}",
                    first ? "" : ",", json_str(mp.label).c_str(),
                    json_str(mp.mode).c_str(),
                    static_cast<unsigned long long>(mp.hits),
                    static_cast<unsigned long long>(mp.misses),
                    static_cast<unsigned long long>(mp.bytes_cached),
                    static_cast<unsigned long long>(mp.bytes_live),
                    static_cast<unsigned long long>(mp.workspace_bytes),
                    static_cast<unsigned long long>(mp.high_water_bytes),
                    static_cast<unsigned long long>(mp.live_blocks));
      out << buf;
      first = false;
    }
    const auto m = prof::aggregate_memory();
    std::snprintf(buf, sizeof buf,
                  "\n  ],\n  \"memory\": {\"allocs\": %llu, \"alloc_bytes\": "
                  "%llu, \"frees\": %llu, \"h2d_copies\": %llu, "
                  "\"h2d_bytes\": %llu, \"d2h_copies\": %llu, "
                  "\"d2h_bytes\": %llu}\n}\n",
                  static_cast<unsigned long long>(m.allocs),
                  static_cast<unsigned long long>(m.alloc_bytes),
                  static_cast<unsigned long long>(m.frees),
                  static_cast<unsigned long long>(m.h2d_copies),
                  static_cast<unsigned long long>(m.h2d_bytes),
                  static_cast<unsigned long long>(m.d2h_copies),
                  static_cast<unsigned long long>(m.d2h_bytes));
    out << buf;
  }
  jacc::finalize();
}

} // namespace jaccx::bench
