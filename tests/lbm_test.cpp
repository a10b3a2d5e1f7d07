// Tests for the HARVEY D2Q9 pull LBM: physics invariants, cross-backend
// agreement, and agreement between the JACC and native implementations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "lbm/native.hpp"
#include "lbm/simulation.hpp"

namespace jaccx::lbm {
namespace {

using jacc::backend;

TEST(Lattice, WeightsSumToOne) {
  double s = 0.0;
  for (double w : weights) {
    s += w;
  }
  EXPECT_NEAR(s, 1.0, 1e-15);
}

TEST(Lattice, VelocitySetIsSymmetric) {
  // Every non-rest direction has its opposite in the set.
  for (int k = 1; k < q; ++k) {
    bool found = false;
    for (int m = 1; m < q; ++m) {
      if (vel_x[static_cast<std::size_t>(m)] ==
              -vel_x[static_cast<std::size_t>(k)] &&
          vel_y[static_cast<std::size_t>(m)] ==
              -vel_y[static_cast<std::size_t>(k)]) {
        found = true;
      }
    }
    EXPECT_TRUE(found) << "direction " << k;
  }
}

TEST(Lattice, EquilibriumMomentsAreExact) {
  // Zeroth and first moments of f_eq reproduce density and momentum.
  const double rho = 1.3;
  const double u = 0.05;
  const double v = -0.02;
  double m0 = 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (int k = 0; k < q; ++k) {
    const double fe = equilibrium(k, rho, u, v);
    m0 += fe;
    mx += fe * vel_x[static_cast<std::size_t>(k)];
    my += fe * vel_y[static_cast<std::size_t>(k)];
  }
  EXPECT_NEAR(m0, rho, 1e-12);
  EXPECT_NEAR(mx, rho * u, 1e-12);
  EXPECT_NEAR(my, rho * v, 1e-12);
}

class LbmAllBackends : public ::testing::TestWithParam<backend> {
protected:
  void SetUp() override { jacc::set_backend(GetParam()); }
  void TearDown() override { jacc::set_backend(backend::threads); }
};

TEST_P(LbmAllBackends, UniformStateIsFixedPoint) {
  simulation sim(params{.size = 16, .tau = 0.8});
  sim.init_uniform(1.0);
  sim.run(5);
  const auto m = sim.macroscopics();
  for (double d : m.density) {
    EXPECT_NEAR(d, 1.0, 1e-12);
  }
  for (double u : m.velocity_x) {
    EXPECT_NEAR(u, 0.0, 1e-12);
  }
}

TEST_P(LbmAllBackends, MassConservedWhilePulseIsInterior) {
  simulation sim(params{.size = 32, .tau = 0.9});
  sim.init_pulse(1.0, 0.05, 0.08);
  const double m0 = sim.total_mass();
  sim.run(4);
  const double m1 = sim.total_mass();
  // Collision conserves mass exactly; the only leak is the Gaussian tail
  // crossing the frozen boundary ring, which stays below ~1e-8 relative
  // while the acoustic wave (speed c_s ~ 0.58 cells/step) is far from it.
  EXPECT_NEAR(m1, m0, 2e-8 * m0);
}

TEST_P(LbmAllBackends, DensityStaysPositive) {
  simulation sim(params{.size = 24, .tau = 0.7});
  sim.init_pulse(1.0, 0.1, 0.1);
  sim.run(10);
  const auto m = sim.macroscopics();
  for (double d : m.density) {
    EXPECT_GT(d, 0.0);
  }
}

TEST_P(LbmAllBackends, PulsePreservesQuadrantSymmetry) {
  // A centred symmetric pulse in a square box must stay symmetric under
  // x <-> size-1-x (the D2Q9 set is mirror-symmetric).
  const index_t size = 21;
  simulation sim(params{.size = size, .tau = 0.8});
  sim.init_pulse(1.0, 0.08, 0.12);
  sim.run(6);
  const auto m = sim.macroscopics();
  for (index_t x = 0; x < size; ++x) {
    for (index_t y = 0; y < size; ++y) {
      const double a =
          m.density[static_cast<std::size_t>(x * size + y)];
      const double b =
          m.density[static_cast<std::size_t>((size - 1 - x) * size + y)];
      ASSERT_NEAR(a, b, 1e-11) << x << "," << y;
    }
  }
}

TEST_P(LbmAllBackends, MatchesSerialReferenceBitwise) {
  // parallel_for has no reduction reordering, so all back ends must produce
  // exactly the serial evolution.
  const index_t size = 20;
  const int steps = 5;
  simulation sim(params{.size = size, .tau = 0.8});
  sim.init_pulse(1.0, 0.05, 0.15);

  // Serial reference on plain buffers, same initial state.
  std::vector<double> f(static_cast<std::size_t>(q * size * size), 0.0);
  std::vector<double> f1(sim.distributions().host_data(),
                         sim.distributions().host_data() +
                             q * size * size);
  std::vector<double> f2(f1.size(), 0.0);
  for (int s = 0; s < steps; ++s) {
    reference_step(f.data(), f1.data(), f2.data(), 0.8, size);
    std::swap(f1, f2);
  }

  sim.run(steps);
  const double* got = sim.distributions().host_data();
  for (index_t i = 0; i < static_cast<index_t>(f1.size()); ++i) {
    ASSERT_EQ(got[i], f1[static_cast<std::size_t>(i)]) << "i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, LbmAllBackends,
                         ::testing::ValuesIn(jacc::all_backends),
                         [](const auto& info) {
                           return std::string(jacc::to_string(info.param));
                         });

// --- solver footprint ----------------------------------------------------------

TEST(LbmFootprint, SimulationHoldsExactlyTwoLattices) {
  // Seed-exact allocation mode, so live_bytes() counts requested bytes
  // rather than pool buckets: two q-plane lattices and nothing else.
  const jaccx::mem::scoped_mode exact(jaccx::mem::pool_mode::none);
  jacc::scoped_backend sb(backend::threads);
  const index_t size = 40;
  const std::uint64_t before = jaccx::mem::live_bytes();
  const simulation sim(params{.size = size, .tau = 0.8});
  EXPECT_EQ(jaccx::mem::live_bytes() - before,
            std::uint64_t{2} * q * size * size * sizeof(double));
}

TEST(LbmFootprint, UninitializedTargetIsFullyWrittenEachStep) {
  // The target lattice starts uninitialized, so step() must write every
  // site of it.  Release two NaN-filled blocks of the lattice size into the
  // pool first: both lattices are then built on NaN, and a site step()
  // skipped would leave a NaN that the bitwise reference check catches.
  const jaccx::mem::scoped_mode pooled(jaccx::mem::pool_mode::bucket);
  jacc::scoped_backend sb(backend::threads);
  const index_t size = 20;
  const index_t total = q * size * size;
  std::vector<const double*> poisoned;
  {
    jacc::array<double> a(jacc::uninit, total);
    jacc::array<double> b(jacc::uninit, total);
    for (jacc::array<double>* arr : {&a, &b}) {
      double* h = arr->host_data();
      std::fill(h, h + total, std::numeric_limits<double>::quiet_NaN());
      poisoned.push_back(h);
    }
  }

  simulation sim(params{.size = size, .tau = 0.8});
  sim.init_pulse(1.0, 0.05, 0.15);
  const double* initial = sim.distributions().host_data();
  std::vector<double> f(static_cast<std::size_t>(total), 0.0);
  std::vector<double> f1(initial, initial + total);
  std::vector<double> f2(f1.size(), 0.0);
  const int steps = 5; // odd: the result lands in the uninitialized lattice
  for (int s = 0; s < steps; ++s) {
    reference_step(f.data(), f1.data(), f2.data(), 0.8, size);
    std::swap(f1, f2);
  }
  sim.run(steps);

  const double* got = sim.distributions().host_data();
  ASSERT_NE(got, initial);
  ASSERT_NE(std::find(poisoned.begin(), poisoned.end(), got), poisoned.end())
      << "the pool did not hand a NaN block to the target lattice";
  for (index_t i = 0; i < total; ++i) {
    ASSERT_EQ(got[i], f1[static_cast<std::size_t>(i)]) << "i=" << i;
  }
}

template <class Api>
struct NativeLbmTest : public ::testing::Test {};

using VendorApis =
    ::testing::Types<vendor::cuda_api, vendor::hip_api, vendor::oneapi_api>;
TYPED_TEST_SUITE(NativeLbmTest, VendorApis);

TYPED_TEST(NativeLbmTest, NativeStepMatchesReference) {
  using Api = TypeParam;
  const index_t size = 18;
  const double tau = 0.8;
  const index_t total = q * size * size;

  // Reference initial state: a small deterministic perturbation.
  std::vector<double> init(static_cast<std::size_t>(total));
  for (index_t i = 0; i < total; ++i) {
    init[static_cast<std::size_t>(i)] =
        weights[static_cast<std::size_t>(i / (size * size))] *
        (1.0 + 0.01 * std::sin(0.37 * static_cast<double>(i)));
  }

  std::vector<double> rf(static_cast<std::size_t>(total), 0.0);
  std::vector<double> rf2(static_cast<std::size_t>(total), 0.0);
  reference_step(rf.data(), init.data(), rf2.data(), tau, size);

  auto& dev = Api::device();
  sim::device_buffer<double> df(dev, total), df1(dev, total),
      df2(dev, total), dw(dev, q), dcx(dev, q), dcy(dev, q);
  df1.copy_from_host(init.data());
  dw.copy_from_host(weights.data());
  dcx.copy_from_host(vel_x.data());
  dcy.copy_from_host(vel_y.data());

  native_state st{df.span(), df1.span(), df2.span(), dw.span(),
                  dcx.span(), dcy.span(), size, tau};
  native_gpu_step<Api>(st);

  std::vector<double> got(static_cast<std::size_t>(total));
  df2.copy_to_host(got.data());
  for (index_t i = 0; i < total; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              rf2[static_cast<std::size_t>(i)])
        << "i=" << i;
  }
}

TEST(NativeLbm, RomeStepMatchesReference) {
  const index_t size = 18;
  const double tau = 0.85;
  const index_t total = q * size * size;
  std::vector<double> init(static_cast<std::size_t>(total));
  for (index_t i = 0; i < total; ++i) {
    init[static_cast<std::size_t>(i)] =
        weights[static_cast<std::size_t>(i / (size * size))] *
        (1.0 + 0.02 * std::cos(0.11 * static_cast<double>(i)));
  }
  std::vector<double> rf(static_cast<std::size_t>(total), 0.0);
  std::vector<double> rf2(static_cast<std::size_t>(total), 0.0);
  reference_step(rf.data(), init.data(), rf2.data(), tau, size);

  auto& dev = sim::get_device("rome64");
  sim::device_buffer<double> df(dev, total), df1(dev, total),
      df2(dev, total), dw(dev, q), dcx(dev, q), dcy(dev, q);
  df1.copy_from_host(init.data());
  dw.copy_from_host(weights.data());
  dcx.copy_from_host(vel_x.data());
  dcy.copy_from_host(vel_y.data());
  native_state st{df.span(), df1.span(), df2.span(), dw.span(), dcx.span(),
                  dcy.span(), size, tau};
  rome_step(dev, st);

  std::vector<double> got(static_cast<std::size_t>(total));
  df2.copy_to_host(got.data());
  for (index_t i = 0; i < total; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              rf2[static_cast<std::size_t>(i)]);
  }
}

} // namespace
} // namespace jaccx::lbm
