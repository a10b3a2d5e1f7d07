#include "lbm/simulation.hpp"

#include <cmath>

namespace jaccx::lbm {

// f2_ is never read before step() has written all of it, so it skips the
// zero fill (under JACC_MEM_POOL=bucket it may be a recycled block).
simulation::simulation(const params& p)
    : cfg_(p), f1_(p.size * p.size * q),
      f2_(jacc::uninit, p.size * p.size * q) {
  JACCX_ASSERT(p.size >= 3);
  JACCX_ASSERT(p.tau > 0.5);
  init_uniform();
}

void simulation::init_uniform(double rho0) {
  const index_t plane = cfg_.size * cfg_.size;
  double* f1 = f1_.host_data();
  for (int k = 0; k < q; ++k) {
    const double fk = weights[static_cast<std::size_t>(k)] * rho0;
    for (index_t s = 0; s < plane; ++s) {
      f1[k * plane + s] = fk;
    }
  }
  steps_ = 0;
}

void simulation::init_pulse(double rho0, double amplitude,
                            double radius_fraction) {
  const index_t size = cfg_.size;
  const index_t plane = size * size;
  const double cx0 = static_cast<double>(size - 1) / 2.0;
  const double cy0 = static_cast<double>(size - 1) / 2.0;
  const double r = radius_fraction * static_cast<double>(size);
  double* f1 = f1_.host_data();
  for (index_t x = 0; x < size; ++x) {
    for (index_t y = 0; y < size; ++y) {
      const double dx = static_cast<double>(x) - cx0;
      const double dy = static_cast<double>(y) - cy0;
      const double rho =
          rho0 + amplitude * std::exp(-(dx * dx + dy * dy) / (2.0 * r * r));
      for (int k = 0; k < q; ++k) {
        const double fk = equilibrium(k, rho, 0.0, 0.0);
        f1[k * plane + x * size + y] = fk;
      }
    }
  }
  steps_ = 0;
}

void simulation::step() {
  jacc::parallel_for(
      jacc::hints{.name = "jacc.lbm", .flops_per_index = site_flops,
                  .bytes_per_index = 144.0},
      jacc::dims2{cfg_.size, cfg_.size},
      // lbm_kernel's (i, j) -> (y, x) mapping; a site reads 9 values of f1
      // and writes 9 of f2, with no scratch lattice or constant-array loads.
      [](index_t i, index_t j, const jacc::array<double>& f1,
         jacc::array<double>& f2, double tau, index_t size) {
        site_update_fused(/*x=*/j, /*y=*/i, f1, f2, tau, weights, vel_x,
                          vel_y, size);
      },
      f1_, f2_, cfg_.tau, cfg_.size);
  std::swap(f1_, f2_);
  ++steps_;
}

void simulation::run(int steps) {
  for (int s = 0; s < steps; ++s) {
    step();
  }
}

double simulation::total_mass() {
  return jacc::parallel_reduce(
      jacc::hints{.name = "jacc.lbm.mass", .flops_per_index = 1.0,
                  .bytes_per_index = 8.0},
      f1_.size(),
      [](index_t i, const jacc::array<double>& f1) {
        return static_cast<double>(f1[i]);
      },
      f1_);
}

macro_fields simulation::macroscopics() const {
  const index_t size = cfg_.size;
  const index_t plane = size * size;
  macro_fields out;
  out.size = size;
  out.density.assign(static_cast<std::size_t>(plane), 0.0);
  out.velocity_x.assign(static_cast<std::size_t>(plane), 0.0);
  out.velocity_y.assign(static_cast<std::size_t>(plane), 0.0);
  const double* f1 = f1_.host_data();
  for (index_t s = 0; s < plane; ++s) {
    double p = 0.0;
    double u = 0.0;
    double v = 0.0;
    for (int k = 0; k < q; ++k) {
      const double fk = f1[k * plane + s];
      p += fk;
      u += fk * vel_x[static_cast<std::size_t>(k)];
      v += fk * vel_y[static_cast<std::size_t>(k)];
    }
    out.density[static_cast<std::size_t>(s)] = p;
    out.velocity_x[static_cast<std::size_t>(s)] = p > 0.0 ? u / p : 0.0;
    out.velocity_y[static_cast<std::size_t>(s)] = p > 0.0 ? v / p : 0.0;
  }
  return out;
}

} // namespace jaccx::lbm
