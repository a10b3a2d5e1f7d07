// D2Q9 lattice definition and the site-update body of the 2-lattice pull
// algorithm used by HARVEY (paper Sec. V-B, Fig. 10).
//
// The paper's kernel fuses pull-streaming, macroscopic moment computation,
// and BGK collision in one pass over a 9-plane distribution array indexed as
//
//   ind = k * SIZE * SIZE + x * SIZE + y        (0-based here)
//
// Interior sites stream from x - cx[k], y - cy[k]; boundary sites pass f1
// through unchanged (the paper's listing skips them; the pass-through keeps
// f2 well-defined so the buffers can swap).
//
// Two forms of the site update live here, with bit-identical results:
//
//   site_update        the paper's listing: pulled values staged in a
//                      scratch lattice f.  It serves the reproduction — the
//                      JACC series of Fig. 11 (lbm_kernel), the native
//                      GPU/CPU series, and the serial reference_step used in
//                      validation tests.
//   site_update_fused  the pulled values kept in registers, no scratch
//                      lattice.  It serves the solver: lbm::simulation runs
//                      it over two lattices with the constexpr tables below.
//
// Both are templates over the array type, so the same physics runs through
// jacc::array, sim::device_span and plain pointers.
#pragma once

#include <array>

#include "support/span2d.hpp"

namespace jaccx::lbm {

using jaccx::index_t;

inline constexpr int q = 9;

/// BGK weights; order matches the velocity sets below.
inline constexpr std::array<double, q> weights = {
    4.0 / 9.0,  1.0 / 9.0,  1.0 / 9.0,  1.0 / 9.0, 1.0 / 9.0,
    1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0};

/// Discrete velocities: rest, the four axis directions, the four diagonals.
inline constexpr std::array<double, q> vel_x = {0, 1, -1, 0, 0, 1, -1, 1, -1};
inline constexpr std::array<double, q> vel_y = {0, 0, 0, 1, -1, 1, -1, -1, 1};

/// Equilibrium distribution for direction k at density p, velocity (u, v).
inline double equilibrium(int k, double p, double u, double v) {
  const double cu = vel_x[static_cast<std::size_t>(k)] * u +
                    vel_y[static_cast<std::size_t>(k)] * v;
  return weights[static_cast<std::size_t>(k)] * p *
         (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * (u * u + v * v));
}

/// Flop count of one interior site update (streaming index math excluded);
/// used as the simulator's per-index hint.
inline constexpr double site_flops = 160.0;

/// One site of the fused pull-stream + moments + BGK collision update
/// (paper Fig. 10).  A is any indexable array type whose operator[] yields a
/// readable/assignable element (jacc::array, sim::device_span, double*); CA
/// likewise for the read-only lattice constant vectors.
template <class FA, class F1A, class F2A, class CA>
inline void site_update(index_t x, index_t y, const FA& f, const F1A& f1,
                        const F2A& f2, double tau, const CA& w, const CA& cx,
                        const CA& cy, index_t size) {
  const index_t plane = size * size;
  if (x >= 1 && x < size - 1 && y >= 1 && y < size - 1) {
    // Pull streaming into the scratch lattice f.
    for (int k = 0; k < q; ++k) {
      const auto xs = x - static_cast<index_t>(static_cast<double>(cx[k]));
      const auto ys = y - static_cast<index_t>(static_cast<double>(cy[k]));
      const index_t ind = k * plane + x * size + y;
      const index_t iind = k * plane + xs * size + ys;
      f[ind] = static_cast<double>(f1[iind]);
    }
    // Macroscopic moments.
    double p = 0.0;
    double u = 0.0;
    double v = 0.0;
    for (int k = 0; k < q; ++k) {
      const index_t ind = k * plane + x * size + y;
      const double fk = static_cast<double>(f[ind]);
      p += fk;
      u += fk * static_cast<double>(cx[k]);
      v += fk * static_cast<double>(cy[k]);
    }
    u /= p;
    v /= p;
    // BGK collision into f2.
    for (int k = 0; k < q; ++k) {
      const double cu = static_cast<double>(cx[k]) * u +
                        static_cast<double>(cy[k]) * v;
      const double feq = static_cast<double>(w[k]) * p *
                         (1.0 + 3.0 * cu + 4.5 * cu * cu -
                          1.5 * (u * u + v * v));
      const index_t ind = k * plane + x * size + y;
      f2[ind] = static_cast<double>(f[ind]) * (1.0 - 1.0 / tau) + feq / tau;
    }
  } else {
    // Boundary pass-through keeps the swapped buffer consistent.
    for (int k = 0; k < q; ++k) {
      const index_t ind = k * plane + x * size + y;
      f2[ind] = static_cast<double>(f1[ind]);
    }
  }
}

/// Register-fused variant of site_update: the paper's Fig. 10 stages the
/// pulled distributions in a scratch lattice `f` and re-reads them twice
/// (moments, collision), costing ~18 extra global accesses per site.  This
/// version keeps the 9 pulled values in registers instead — same
/// mathematics, bit-identical results, less memory traffic.  lbm::simulation
/// runs this form; the abl_lbm_fusion benchmark quantifies what the paper's
/// formulation leaves on the table.
template <class F1A, class F2A, class CA>
inline void site_update_fused(index_t x, index_t y, const F1A& f1,
                              const F2A& f2, double tau, const CA& w,
                              const CA& cx, const CA& cy, index_t size) {
  const index_t plane = size * size;
  if (x >= 1 && x < size - 1 && y >= 1 && y < size - 1) {
    double fk[q];
    double p = 0.0;
    double u = 0.0;
    double v = 0.0;
    for (int k = 0; k < q; ++k) {
      const auto xs = x - static_cast<index_t>(static_cast<double>(cx[k]));
      const auto ys = y - static_cast<index_t>(static_cast<double>(cy[k]));
      fk[k] = static_cast<double>(f1[k * plane + xs * size + ys]);
      p += fk[k];
      u += fk[k] * static_cast<double>(cx[k]);
      v += fk[k] * static_cast<double>(cy[k]);
    }
    u /= p;
    v /= p;
    for (int k = 0; k < q; ++k) {
      const double cu = static_cast<double>(cx[k]) * u +
                        static_cast<double>(cy[k]) * v;
      const double feq = static_cast<double>(w[k]) * p *
                         (1.0 + 3.0 * cu + 4.5 * cu * cu -
                          1.5 * (u * u + v * v));
      f2[k * plane + x * size + y] = fk[k] * (1.0 - 1.0 / tau) + feq / tau;
    }
  } else {
    for (int k = 0; k < q; ++k) {
      const index_t ind = k * plane + x * size + y;
      f2[ind] = static_cast<double>(f1[ind]);
    }
  }
}

} // namespace jaccx::lbm
