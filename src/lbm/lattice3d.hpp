// D3Q19 lattice: the 3D counterpart of the paper's D2Q9 kernel, exercising
// JACC's third dimension (Sec. III: "up to three dimensions") on a real
// application.  Same fused pull-stream + moments + BGK structure as
// lattice.hpp; layout ind = k*S^3 + x*S^2 + y*S + z with z contiguous.
//
// site_update stages the pulled distributions in a scratch lattice, as the
// paper's Fig. 10 does in 2D; site_update_fused keeps them in registers
// with the same accumulation order (bit-identical results) and is what
// simulation3d runs.
#pragma once

#include <array>

#include "support/span2d.hpp"

namespace jaccx::lbm3 {

using jaccx::index_t;

inline constexpr int q = 19;

/// D3Q19 weights: rest 1/3, six axis directions 1/18, twelve edge
/// diagonals 1/36.
inline constexpr std::array<double, q> weights = {
    1.0 / 3.0,  //
    1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0,
    1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
    1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0};

inline constexpr std::array<double, q> vel_x = {0, 1, -1, 0, 0,  0, 0, 1, -1,
                                                1, -1, 1, -1, 1, -1, 0, 0, 0,
                                                0};
inline constexpr std::array<double, q> vel_y = {0, 0, 0, 1, -1, 0, 0, 1, -1,
                                                -1, 1, 0, 0, 0, 0, 1, -1, 1,
                                                -1};
inline constexpr std::array<double, q> vel_z = {0, 0, 0, 0, 0, 1, -1, 0, 0,
                                                0, 0, 1, -1, -1, 1, 1, -1, -1,
                                                1};

/// Equilibrium distribution for direction k at density p, velocity (u,v,w).
inline double equilibrium(int k, double p, double u, double v, double w) {
  const auto ks = static_cast<std::size_t>(k);
  const double cu = vel_x[ks] * u + vel_y[ks] * v + vel_z[ks] * w;
  return weights[ks] * p *
         (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * (u * u + v * v + w * w));
}

/// Flop count of one interior site update (the simulator's roofline hint).
inline constexpr double site_flops = 420.0;

/// One fused D3Q19 pull site update; boundary sites pass through.
template <class FA, class F1A, class F2A, class CA>
inline void site_update(index_t x, index_t y, index_t z, const FA& f,
                        const F1A& f1, const F2A& f2, double tau, const CA& w,
                        const CA& cx, const CA& cy, const CA& cz,
                        index_t size) {
  const index_t plane = size * size * size;
  const auto at = [size, plane](int k, index_t xi, index_t yi, index_t zi) {
    return k * plane + xi * size * size + yi * size + zi;
  };
  if (x >= 1 && x < size - 1 && y >= 1 && y < size - 1 && z >= 1 &&
      z < size - 1) {
    for (int k = 0; k < q; ++k) {
      const auto xs = x - static_cast<index_t>(static_cast<double>(cx[k]));
      const auto ys = y - static_cast<index_t>(static_cast<double>(cy[k]));
      const auto zs = z - static_cast<index_t>(static_cast<double>(cz[k]));
      f[at(k, x, y, z)] = static_cast<double>(f1[at(k, xs, ys, zs)]);
    }
    double p = 0.0;
    double u = 0.0;
    double v = 0.0;
    double ww = 0.0;
    for (int k = 0; k < q; ++k) {
      const double fk = static_cast<double>(f[at(k, x, y, z)]);
      p += fk;
      u += fk * static_cast<double>(cx[k]);
      v += fk * static_cast<double>(cy[k]);
      ww += fk * static_cast<double>(cz[k]);
    }
    u /= p;
    v /= p;
    ww /= p;
    for (int k = 0; k < q; ++k) {
      const double cu = static_cast<double>(cx[k]) * u +
                        static_cast<double>(cy[k]) * v +
                        static_cast<double>(cz[k]) * ww;
      const double feq =
          static_cast<double>(w[k]) * p *
          (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * (u * u + v * v + ww * ww));
      f2[at(k, x, y, z)] =
          static_cast<double>(f[at(k, x, y, z)]) * (1.0 - 1.0 / tau) +
          feq / tau;
    }
  } else {
    for (int k = 0; k < q; ++k) {
      f2[at(k, x, y, z)] = static_cast<double>(f1[at(k, x, y, z)]);
    }
  }
}

/// Register-fused D3Q19 site update: site_update without the scratch
/// lattice.  The 19 pulled values stay in registers and the moments and
/// collision accumulate in the same order, so results are bit-identical
/// while a site makes 38 lattice accesses (19 reads, 19 writes) instead of
/// 95.
template <class F1A, class F2A, class CA>
inline void site_update_fused(index_t x, index_t y, index_t z, const F1A& f1,
                              const F2A& f2, double tau, const CA& w,
                              const CA& cx, const CA& cy, const CA& cz,
                              index_t size) {
  const index_t plane = size * size * size;
  const auto at = [size, plane](int k, index_t xi, index_t yi, index_t zi) {
    return k * plane + xi * size * size + yi * size + zi;
  };
  if (x >= 1 && x < size - 1 && y >= 1 && y < size - 1 && z >= 1 &&
      z < size - 1) {
    double fk[q];
    double p = 0.0;
    double u = 0.0;
    double v = 0.0;
    double ww = 0.0;
    for (int k = 0; k < q; ++k) {
      const auto xs = x - static_cast<index_t>(static_cast<double>(cx[k]));
      const auto ys = y - static_cast<index_t>(static_cast<double>(cy[k]));
      const auto zs = z - static_cast<index_t>(static_cast<double>(cz[k]));
      fk[k] = static_cast<double>(f1[at(k, xs, ys, zs)]);
      p += fk[k];
      u += fk[k] * static_cast<double>(cx[k]);
      v += fk[k] * static_cast<double>(cy[k]);
      ww += fk[k] * static_cast<double>(cz[k]);
    }
    u /= p;
    v /= p;
    ww /= p;
    for (int k = 0; k < q; ++k) {
      const double cu = static_cast<double>(cx[k]) * u +
                        static_cast<double>(cy[k]) * v +
                        static_cast<double>(cz[k]) * ww;
      const double feq =
          static_cast<double>(w[k]) * p *
          (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * (u * u + v * v + ww * ww));
      f2[at(k, x, y, z)] = fk[k] * (1.0 - 1.0 / tau) + feq / tau;
    }
  } else {
    for (int k = 0; k < q; ++k) {
      f2[at(k, x, y, z)] = static_cast<double>(f1[at(k, x, y, z)]);
    }
  }
}

} // namespace jaccx::lbm3
