// Portable LBM mini-app over the JACC front end, wrapped with initialization
// and diagnostics so it is a usable fluid solver, not just a kernel.
//
// lbm_kernel below is the paper's Fig. 10 verbatim (scratch lattice plus
// tracked constant arrays); bench/fig11_lbm times it as the "JACC" series of
// Fig. 11.  The solver runs the bit-identical register-fused update
// (site_update_fused) over two lattices, with the lattice constants folded
// in at compile time.
#pragma once

#include <vector>

#include "core/jacc.hpp"
#include "lbm/lattice.hpp"

namespace jaccx::lbm {

struct params {
  index_t size = 128;  ///< square lattice edge (paper uses up to 1000)
  double tau = 0.8;    ///< BGK relaxation time (> 0.5 for stability)
};

/// The paper's Fig. 10 kernel, verbatim in structure: a free function taking
/// (i, j) plus every array it touches, run through one multidimensional
/// parallel_for per time step.  Kept for the Fig. 11 reproduction; the
/// solver below runs site_update_fused.
///
/// Index mapping: the first parallel_for index (i) is the fast one — GPU
/// thread x, CPU inner loop — and the lattice layout stores y contiguously
/// (ind = k*S*S + x*S + y), so i maps to the site's y coordinate.  That is
/// the coalescing rule of the paper's Sec. IV: consecutive threads touch
/// consecutive memory.
inline void lbm_kernel(index_t i, index_t j, jacc::array<double>& f,
                       const jacc::array<double>& f1, jacc::array<double>& f2,
                       double tau, const jacc::array<double>& w,
                       const jacc::array<double>& cx,
                       const jacc::array<double>& cy, index_t size) {
  site_update(/*x=*/j, /*y=*/i, f, f1, f2, tau, w, cx, cy, size);
}

/// Velocity/density snapshot on the host.
struct macro_fields {
  index_t size = 0;
  std::vector<double> density;    // size*size, index x*size+y
  std::vector<double> velocity_x; // idem
  std::vector<double> velocity_y; // idem
};

class simulation {
public:
  /// Builds the lattice under the *current* JACC backend: all state lives in
  /// jacc::array, so on a simulated GPU the initial state is charged as H2D.
  /// Two lattices of q*size*size doubles are resident, nothing else.
  explicit simulation(const params& p);

  /// Uniform equilibrium at density rho0, zero velocity (an exact fixed
  /// point of the update — used by correctness tests).
  void init_uniform(double rho0 = 1.0);

  /// Gaussian density pulse of the given amplitude centred in the box, at
  /// equilibrium with zero velocity.  Deterministic.
  void init_pulse(double rho0 = 1.0, double amplitude = 0.1,
                  double radius_fraction = 0.1);

  /// Advances one time step: one 2D parallel_for of site_update_fused from
  /// the current lattice into the other, then a buffer swap.  Every site of
  /// the target is written (interior by collision, boundary by
  /// pass-through), so the second lattice never needs initializing.
  void step();

  /// Advances `steps` time steps.
  void run(int steps);

  const params& config() const { return cfg_; }
  int steps_taken() const { return steps_; }

  /// Total mass of the current lattice, computed with a JACC 1D
  /// parallel_reduce over all 9 planes.
  double total_mass();

  /// Host snapshot of density and velocity (untracked debug read).
  macro_fields macroscopics() const;

  /// Untracked access to the current distributions (tests).
  const jacc::array<double>& distributions() const { return f1_; }
  jacc::array<double>& distributions() { return f1_; }

private:
  params cfg_;
  int steps_ = 0;
  jacc::array<double> f1_; // current
  jacc::array<double> f2_; // next (fully written by every step)
};

} // namespace jaccx::lbm
