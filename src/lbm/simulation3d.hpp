// Portable D3Q19 LBM mini-app: one jacc::parallel_for over dims3 per step,
// two resident lattices, the register-fused site update.
#pragma once

#include <vector>

#include "core/jacc.hpp"
#include "lbm/lattice3d.hpp"

namespace jaccx::lbm3 {

struct params {
  index_t size = 32; ///< cubic lattice edge
  double tau = 0.8;
};

/// The D3Q19 kernel in the paper's Fig. 10 style (scratch lattice, constant
/// arrays).  The first (fast) index i maps to the contiguous z coordinate,
/// j to y, k to x — coalescing per Sec. IV.  The solver runs
/// site_update_fused, which gives bit-identical results.
inline void lbm3_kernel(index_t i, index_t j, index_t k,
                        jacc::array<double>& f,
                        const jacc::array<double>& f1,
                        jacc::array<double>& f2, double tau,
                        const jacc::array<double>& w,
                        const jacc::array<double>& cx,
                        const jacc::array<double>& cy,
                        const jacc::array<double>& cz, index_t size) {
  site_update(/*x=*/k, /*y=*/j, /*z=*/i, f, f1, f2, tau, w, cx, cy, cz,
              size);
}

class simulation3d {
public:
  explicit simulation3d(const params& p);

  /// Uniform equilibrium (exact fixed point).
  void init_uniform(double rho0 = 1.0);

  /// Gaussian density pulse centred in the box.
  void init_pulse(double rho0 = 1.0, double amplitude = 0.1,
                  double radius_fraction = 0.1);

  /// One site_update_fused launch from the current lattice into the other,
  /// then a swap.  Every site of the target is written, so the second
  /// lattice is never initialized.
  void step();
  void run(int steps);

  const params& config() const { return cfg_; }
  int steps_taken() const { return steps_; }

  /// Total mass via a JACC reduction over all 19 planes.
  double total_mass();

  /// Host density field, index x*S*S + y*S + z (untracked debug read).
  std::vector<double> density() const;

  const jacc::array<double>& distributions() const { return f1_; }

private:
  params cfg_;
  int steps_ = 0;
  jacc::array<double> f1_; // current
  jacc::array<double> f2_; // next (fully written by every step)
};

} // namespace jaccx::lbm3
