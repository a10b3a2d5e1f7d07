#include "lbm/simulation3d.hpp"

#include <cmath>

namespace jaccx::lbm3 {

// f2_ is never read before step() has written all of it (see simulation).
simulation3d::simulation3d(const params& p)
    : cfg_(p), f1_(p.size * p.size * p.size * q),
      f2_(jacc::uninit, p.size * p.size * p.size * q) {
  JACCX_ASSERT(p.size >= 3);
  JACCX_ASSERT(p.tau > 0.5);
  init_uniform();
}

void simulation3d::init_uniform(double rho0) {
  const index_t cube = cfg_.size * cfg_.size * cfg_.size;
  double* f1 = f1_.host_data();
  for (int k = 0; k < q; ++k) {
    const double fk = weights[static_cast<std::size_t>(k)] * rho0;
    for (index_t s = 0; s < cube; ++s) {
      f1[k * cube + s] = fk;
    }
  }
  steps_ = 0;
}

void simulation3d::init_pulse(double rho0, double amplitude,
                              double radius_fraction) {
  const index_t size = cfg_.size;
  const index_t cube = size * size * size;
  const double c0 = static_cast<double>(size - 1) / 2.0;
  const double r = radius_fraction * static_cast<double>(size);
  double* f1 = f1_.host_data();
  for (index_t x = 0; x < size; ++x) {
    for (index_t y = 0; y < size; ++y) {
      for (index_t z = 0; z < size; ++z) {
        const double dx = static_cast<double>(x) - c0;
        const double dy = static_cast<double>(y) - c0;
        const double dz = static_cast<double>(z) - c0;
        const double rho =
            rho0 + amplitude * std::exp(-(dx * dx + dy * dy + dz * dz) /
                                        (2.0 * r * r));
        const index_t s = x * size * size + y * size + z;
        for (int k = 0; k < q; ++k) {
          const double fk = equilibrium(k, rho, 0.0, 0.0, 0.0);
          f1[k * cube + s] = fk;
        }
      }
    }
  }
  steps_ = 0;
}

void simulation3d::step() {
  jacc::parallel_for(
      jacc::hints{.name = "jacc.lbm3", .flops_per_index = site_flops,
                  .bytes_per_index = 304.0},
      jacc::dims3{cfg_.size, cfg_.size, cfg_.size},
      // lbm3_kernel's index mapping; a site reads 19 values and writes 19.
      [](index_t i, index_t j, index_t k, const jacc::array<double>& f1,
         jacc::array<double>& f2, double tau, index_t size) {
        site_update_fused(/*x=*/k, /*y=*/j, /*z=*/i, f1, f2, tau, weights,
                          vel_x, vel_y, vel_z, size);
      },
      f1_, f2_, cfg_.tau, cfg_.size);
  std::swap(f1_, f2_);
  ++steps_;
}

void simulation3d::run(int steps) {
  for (int s = 0; s < steps; ++s) {
    step();
  }
}

double simulation3d::total_mass() {
  return jacc::parallel_reduce(
      jacc::hints{.name = "jacc.lbm3.mass", .flops_per_index = 1.0,
                  .bytes_per_index = 8.0},
      f1_.size(),
      [](index_t i, const jacc::array<double>& f1) {
        return static_cast<double>(f1[i]);
      },
      f1_);
}

std::vector<double> simulation3d::density() const {
  const index_t size = cfg_.size;
  const index_t cube = size * size * size;
  std::vector<double> out(static_cast<std::size_t>(cube), 0.0);
  const double* f1 = f1_.host_data();
  for (index_t s = 0; s < cube; ++s) {
    double p = 0.0;
    for (int k = 0; k < q; ++k) {
      p += f1[k * cube + s];
    }
    out[static_cast<std::size_t>(s)] = p;
  }
  return out;
}

} // namespace jaccx::lbm3
