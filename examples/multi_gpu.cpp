// Multi-device demo (paper Sec. VII future work): the same AXPY/DOT and a
// halo-exchanged 3-point smoother run across 1..8 simulated GPUs — through
// the auto-sharding layer (docs/SHARDING.md).  The kernels here are the
// ordinary single-device ones: global indices, plain jacc::array
// arguments.  Opening a device_set_scope is the only multi-device code;
// the runtime decomposes each launch, exchanges the smoother's halos
// (inferred from hints::stencil), and overlaps the device clocks.
//
//   ./multi_gpu [n=4194304] [backend: cuda|amdgpu|oneapi]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/jacc.hpp"

int main(int argc, char** argv) {
  using jacc::index_t;

  const index_t n = argc > 1 ? std::atoll(argv[1]) : 4'194'304;
  const jacc::backend be =
      argc > 2 ? jacc::backend_from_string(argv[2]) : jacc::backend::cuda_a100;

  std::printf("auto-sharded strong scaling, n=%lld, target %s\n",
              static_cast<long long>(n),
              std::string(jacc::to_string(be)).c_str());
  std::printf("%8s %14s %14s %14s %10s\n", "devices", "axpy us", "dot us",
              "smoother us", "speedup");

  double base_total = 0.0;
  for (int ndev : {1, 2, 4, 8}) {
    jacc::device_set ds(be, ndev);
    ds.reset_clocks();
    jacc::array<double> x(jacc::sharded(ds),
                          std::vector<double>(static_cast<std::size_t>(n),
                                              1.0));
    jacc::array<double> y(jacc::sharded(ds),
                          std::vector<double>(static_cast<std::size_t>(n),
                                              2.0));
    jacc::array<double> u(jacc::sharded(ds),
                          std::vector<double>(static_cast<std::size_t>(n),
                                              0.5));
    jacc::array<double> next(jacc::sharded(ds),
                             std::vector<double>(static_cast<std::size_t>(n),
                                                 0.5));
    ds.reset_clocks(); // exclude the scatter

    const jacc::device_set_scope scope(ds);

    jacc::parallel_for(
        jacc::hints{.name = "axpy", .flops_per_index = 2.0,
                    .bytes_per_index = 24.0},
        n,
        [](index_t i, jacc::array<double>& xs, const jacc::array<double>& ys) {
          xs[i] += 2.5 * static_cast<double>(ys[i]);
        },
        x, y);
    const double t_axpy = ds.sync();

    const double dot = jacc::parallel_reduce(
        jacc::hints{.name = "dot", .flops_per_index = 2.0,
                    .bytes_per_index = 16.0},
        n,
        [](index_t i, const jacc::array<double>& xs,
           const jacc::array<double>& ys) {
          return static_cast<double>(xs[i]) * static_cast<double>(ys[i]);
        },
        x, y);
    const double t_dot = ds.sync() - t_axpy;

    // The stencil hint is the whole halo story: radius-1 ghosts are sized,
    // exchanged on the shard streams and awaited by each device's kernel.
    jacc::parallel_for(
        jacc::hints::stencil(1), n,
        [n](index_t i, const jacc::array<double>& us,
            jacc::array<double>& ns) {
          if (i == 0 || i == n - 1) {
            ns[i] = static_cast<double>(us[i]);
          } else {
            ns[i] = (static_cast<double>(us[i - 1]) +
                     static_cast<double>(us[i]) +
                     static_cast<double>(us[i + 1])) /
                    3.0;
          }
        },
        u, next);
    const double t_total = ds.sync();
    const double t_smooth = t_total - t_axpy - t_dot;

    if (ndev == 1) {
      base_total = t_total;
    }
    std::printf("%8d %14.1f %14.1f %14.1f %9.2fx   (dot=%.0f)\n", ndev,
                t_axpy, t_dot, t_smooth, base_total / t_total, dot);
  }
  return 0;
}
