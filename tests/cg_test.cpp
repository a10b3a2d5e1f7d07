// Tests for the conjugate-gradient module: solver correctness on the
// paper's tridiagonal system and the HPCCG 27-point problem, across all
// back ends, plus the Fig. 12 iteration drivers.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "cg/native.hpp"
#include "cg/solver.hpp"
#include "core/queue_impl.hpp"

namespace jaccx::cg {
namespace {

using jacc::backend;

class CgAllBackends : public ::testing::TestWithParam<backend> {
protected:
  void SetUp() override { jacc::set_backend(GetParam()); }
  void TearDown() override { jacc::set_backend(backend::threads); }
};

TEST_P(CgAllBackends, TridiagSolveRecoversKnownSolution) {
  const index_t n = 200;
  tridiag_system A(n);
  // Build b = A * x_true with x_true[i] = sin(i).
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] =
        std::sin(static_cast<double>(i));
  }
  std::vector<double> b_host(static_cast<std::size_t>(n), 0.0);
  for (index_t i = 0; i < n; ++i) {
    double acc = 4.0 * x_true[static_cast<std::size_t>(i)];
    if (i > 0) {
      acc += x_true[static_cast<std::size_t>(i - 1)];
    }
    if (i + 1 < n) {
      acc += x_true[static_cast<std::size_t>(i + 1)];
    }
    b_host[static_cast<std::size_t>(i)] = acc;
  }
  darray b(b_host);
  darray x(n); // zero initial guess
  const auto res = cg_solve(A, b, x, {.max_iterations = 300,
                                      .tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(res.relative_residual, 1e-11);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x.host_data()[i], x_true[static_cast<std::size_t>(i)], 1e-8);
  }
}

TEST_P(CgAllBackends, CsrTridiagMatchesSpecializedPath) {
  const index_t n = 150;
  const auto host = make_tridiag_csr(n);
  csr_system A_csr(host);
  tridiag_system A_tri(n);
  std::vector<double> b_host(static_cast<std::size_t>(n), 1.0);
  darray b1(b_host), b2(b_host);
  darray x1(n), x2(n);
  const auto r1 = cg_solve(A_csr, b1, x1, {});
  const auto r2 = cg_solve(A_tri, b2, x2, {});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x1.host_data()[i], x2.host_data()[i], 1e-9);
  }
}

TEST_P(CgAllBackends, HpccgProblemSolvesToAllOnes) {
  const auto host = make_hpccg_27pt(6, 5, 4);
  csr_system A(host);
  darray b(host.rhs_for_ones());
  darray x(A.rows);
  const auto res = cg_solve(A, b, x, {.max_iterations = 500,
                                      .tolerance = 1e-12});
  EXPECT_TRUE(res.converged);
  for (index_t i = 0; i < A.rows; ++i) {
    EXPECT_NEAR(x.host_data()[i], 1.0, 1e-7);
  }
}

TEST_P(CgAllBackends, ZeroRhsGivesZeroSolution) {
  tridiag_system A(50);
  darray b(50);
  darray x(std::vector<double>(50, 3.0)); // nonzero guess
  const auto res = cg_solve(A, b, x, {});
  EXPECT_TRUE(res.converged);
  for (index_t i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(x.host_data()[i], 0.0);
  }
}

TEST_P(CgAllBackends, PaperIterationReducesResidual) {
  // The Fig. 12 working set starts at r = p = 0.5; running iterations of
  // the benchmark driver must strictly decrease ||r||^2 (it is CG on the
  // SPD tridiagonal system even if the listing's bookkeeping is odd).
  paper_state st(256);
  auto rr = [&] {
    double acc = 0.0;
    for (index_t i = 0; i < 256; ++i) {
      acc += st.r.host_data()[i] * st.r.host_data()[i];
    }
    return acc;
  };
  const double rr0 = rr();
  paper_iteration(st);
  const double rr1 = rr();
  paper_iteration(st);
  const double rr2 = rr();
  EXPECT_LT(rr1, rr0);
  EXPECT_LT(rr2, rr1);
}

TEST_P(CgAllBackends, PipelinedSolveMatchesBlockingSolve) {
  // cg_solve_pipelined runs the dots as future-returning reductions on a
  // second queue.  On simulated back ends the reduction tree is identical,
  // so iterates match bit-for-bit; on threads the dot lane may be narrower
  // than the main pool (different association), hence the loose bound.
  const index_t n = 200;
  tridiag_system A1(n), A2(n);
  std::vector<double> b_host(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    b_host[static_cast<std::size_t>(i)] = std::sin(static_cast<double>(i));
  }
  darray b1(b_host), b2(b_host);
  darray x1(n), x2(n);
  const auto r1 = cg_solve(A1, b1, x1, {.tolerance = 1e-12});
  const auto r2 = cg_solve_pipelined(A2, b2, x2, {.tolerance = 1e-12});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x2.host_data()[i], x1.host_data()[i], 1e-9);
  }
}

TEST(CgPipelined, BitExactWithBlockingSolveOnSimBackend) {
  // On a simulated device both variants compute every reduction at enqueue
  // through the same dispatch: identical iterates, iteration counts, and
  // residuals — only the simulated charge structure differs.
  jacc::scoped_backend sb(backend::cuda_a100);
  const auto host = make_hpccg_27pt(5, 4, 3);
  csr_system A1(host), A2(host);
  darray b1(host.rhs_for_ones()), b2(host.rhs_for_ones());
  darray x1(A1.rows), x2(A2.rows);
  const auto r1 = cg_solve(A1, b1, x1, {.tolerance = 1e-12});
  const auto r2 = cg_solve_pipelined(A2, b2, x2, {.tolerance = 1e-12});
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.relative_residual, r2.relative_residual);
  for (index_t i = 0; i < A1.rows; ++i) {
    EXPECT_EQ(x2.host_data()[i], x1.host_data()[i]);
  }
}

TEST_P(CgAllBackends, GraphedSolveMatchesBlockingSolve) {
  // cg_solve_graphed captures one iteration into a jacc::graph and replays
  // it to convergence.  The operation sequence on the data is cg_solve's,
  // so iterates match bit-for-bit except across threads async lanes, where
  // the captured dots run on a narrower pool (different association) —
  // hence the loose bound, as for the pipelined variant.
  const index_t n = 200;
  tridiag_system A1(n), A2(n);
  std::vector<double> b_host(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    b_host[static_cast<std::size_t>(i)] = std::sin(static_cast<double>(i));
  }
  darray b1(b_host), b2(b_host);
  darray x1(n), x2(n);
  const auto r1 = cg_solve(A1, b1, x1, {.tolerance = 1e-12});
  const auto r2 = cg_solve_graphed(A2, b2, x2, {.tolerance = 1e-12});
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(x2.host_data()[i], x1.host_data()[i], 1e-9);
  }
}

TEST(CgGraphed, BitExactWithBlockingSolveOnSimBackend) {
  // On a simulated device the replayed nodes run the same reduction tree
  // through the same dispatch as the blocking solver: identical iterates,
  // iteration counts, and residuals.
  jacc::scoped_backend sb(backend::cuda_a100);
  const auto host = make_hpccg_27pt(5, 4, 3);
  csr_system A1(host), A2(host);
  darray b1(host.rhs_for_ones()), b2(host.rhs_for_ones());
  darray x1(A1.rows), x2(A2.rows);
  const auto r1 = cg_solve(A1, b1, x1, {.tolerance = 1e-12});
  const auto r2 = cg_solve_graphed(A2, b2, x2, {.tolerance = 1e-12});
  EXPECT_TRUE(r2.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(r1.relative_residual, r2.relative_residual);
  for (index_t i = 0; i < A1.rows; ++i) {
    EXPECT_EQ(x2.host_data()[i], x1.host_data()[i]);
  }
}

TEST(CgGraphed, ZeroRhsShortCircuits) {
  jacc::scoped_backend sb(backend::threads);
  tridiag_system A(64);
  darray b(64);
  darray x(std::vector<double>(64, 2.0));
  const auto res = cg_solve_graphed(A, b, x, {});
  EXPECT_TRUE(res.converged);
  for (index_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(x.host_data()[i], 0.0);
  }
}

TEST(CgPipelined, ZeroRhsShortCircuits) {
  jacc::scoped_backend sb(backend::threads);
  tridiag_system A(64);
  darray b(64);
  darray x(std::vector<double>(64, 2.0));
  const auto res = cg_solve_pipelined(A, b, x, {});
  EXPECT_TRUE(res.converged);
  for (index_t i = 0; i < 64; ++i) {
    EXPECT_DOUBLE_EQ(x.host_data()[i], 0.0);
  }
}

// --- solves run inside a queue_scope ------------------------------------------
// On the threads back end with async lanes (JACC_QUEUES >= 2) the solvers'
// plain launches go onto the scope's queue.  A solver must not return while
// any of them is still pending: the caller reads x at once, and the
// iteration scratch the last launches touch is released on return.

/// Lane tasks of `q` submitted but not yet finished.
std::uint64_t pending_tasks(const jacc::queue& q) {
  auto* impl = jacc::detail::queue_access::impl(q);
  const std::lock_guard lock(impl->mu);
  return impl->pending;
}

TEST(CgQueued, SolveInsideQueueScopeLeavesNothingPending) {
  jacc::scoped_backend sb(backend::threads);
  const index_t n = 300;
  tridiag_system A(n);
  std::vector<double> x_true(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    x_true[static_cast<std::size_t>(i)] =
        std::cos(0.3 * static_cast<double>(i));
  }
  const darray xt(x_true);
  darray b(n);
  A.apply(xt, b);

  darray x(n);
  jacc::queue q("cg.scoped");
  cg_result res;
  {
    const jacc::queue_scope in(q);
    res = cg_solve(A, b, x);
    EXPECT_EQ(pending_tasks(q), 0u);
  }
  EXPECT_TRUE(res.converged);
  // No synchronize: x must already hold the solution.
  for (index_t i = 0; i < n; ++i) {
    ASSERT_NEAR(x.host_data()[i], x_true[static_cast<std::size_t>(i)], 1e-8)
        << i;
  }
}

TEST(CgQueued, ZeroRhsInsideQueueScopeZeroesXBeforeReturn) {
  // The b = 0 exit of every variant enqueues x = 0 as its last launch.
  jacc::scoped_backend sb(backend::threads);
  const index_t n = 64;
  tridiag_system A(n);
  const darray b(n);
  using solver = cg_result (*)(const tridiag_system&, const darray&, darray&,
                               const cg_options&);
  for (solver solve : {solver{&cg_solve}, solver{&cg_solve_pipelined},
                       solver{&cg_solve_graphed}}) {
    darray x(std::vector<double>(static_cast<std::size_t>(n), 2.0));
    jacc::queue q("cg.scoped");
    {
      const jacc::queue_scope in(q);
      EXPECT_TRUE(solve(A, b, x, {}).converged);
      EXPECT_EQ(pending_tasks(q), 0u);
    }
    for (index_t i = 0; i < n; ++i) {
      ASSERT_EQ(x.host_data()[i], 0.0) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, CgAllBackends,
                         ::testing::ValuesIn(jacc::all_backends),
                         [](const auto& info) {
                           return std::string(jacc::to_string(info.param));
                         });

TEST(Csr, TridiagStructure) {
  const auto m = make_tridiag_csr(5);
  EXPECT_EQ(m.rows, 5);
  EXPECT_EQ(m.nnz(), 13); // 3*5 - 2
  EXPECT_EQ(m.row_ptr.front(), 0);
  EXPECT_EQ(m.row_ptr.back(), 13);
}

TEST(Csr, Hpccg27ptStructure) {
  const auto m = make_hpccg_27pt(3, 3, 3);
  EXPECT_EQ(m.rows, 27);
  // The centre node has all 27 neighbours; corners have 8.
  const index_t centre = 1 + 3 * (1 + 3 * 1);
  EXPECT_EQ(m.row_ptr[static_cast<std::size_t>(centre + 1)] -
                m.row_ptr[static_cast<std::size_t>(centre)],
            27);
  EXPECT_EQ(m.row_ptr[1] - m.row_ptr[0], 8);
  // Row sums: diagonal 27 minus one per neighbour.
  const auto b = m.rhs_for_ones();
  EXPECT_DOUBLE_EQ(b[static_cast<std::size_t>(centre)], 27.0 - 26.0);
  EXPECT_DOUBLE_EQ(b[0], 27.0 - 7.0);
}

TEST(Csr, HostApplyMatchesDense) {
  const auto m = make_tridiag_csr(4, 2.0, -1.0);
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> y(4, 0.0);
  m.apply_host(x.data(), y.data());
  EXPECT_DOUBLE_EQ(y[0], 2.0 * 1 - 2);       // 2x0 - x1
  EXPECT_DOUBLE_EQ(y[1], -1 + 4 - 3);        // -x0 + 2x1 - x2
  EXPECT_DOUBLE_EQ(y[3], -3 + 8);            // -x2 + 2x3
}

TEST(NativeCg, RomeIterationMatchesJaccIteration) {
  const index_t n = 128;
  // JACC reference under the serial backend (exact arithmetic order may
  // differ from the rome-native path only in reductions; compare loosely).
  jacc::set_backend(backend::serial);
  paper_state ref(n);
  paper_iteration(ref);
  jacc::set_backend(backend::threads);

  auto& dev = sim::get_device("rome64");
  std::vector<double> half(static_cast<std::size_t>(n), 0.5);
  std::vector<double> zero(static_cast<std::size_t>(n), 0.0);
  std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> fours(static_cast<std::size_t>(n), 4.0);
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

  native_workset st{sub.span(), diag.span(), super.span(), r.span(),
                    p.span(),   s.span(),    x.span(),     r_old.span(),
                    r_aux.span(), n};
  rome_iteration(dev, st);

  std::vector<double> got(static_cast<std::size_t>(n));
  x.copy_to_host(got.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[static_cast<std::size_t>(i)], ref.x.host_data()[i],
                1e-12);
  }
  r.copy_to_host(got.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[static_cast<std::size_t>(i)], ref.r.host_data()[i],
                1e-12);
  }
}

template <class Api>
struct NativeGpuCgTest : public ::testing::Test {};

using VendorApis =
    ::testing::Types<vendor::cuda_api, vendor::hip_api, vendor::oneapi_api>;
TYPED_TEST_SUITE(NativeGpuCgTest, VendorApis);

TYPED_TEST(NativeGpuCgTest, IterationMatchesJaccReference) {
  using Api = TypeParam;
  const index_t n = 100;
  jacc::set_backend(backend::serial);
  paper_state ref(n);
  paper_iteration(ref);
  jacc::set_backend(backend::threads);

  auto& dev = Api::device();
  std::vector<double> half(static_cast<std::size_t>(n), 0.5);
  std::vector<double> zero(static_cast<std::size_t>(n), 0.0);
  std::vector<double> ones(static_cast<std::size_t>(n), 1.0);
  std::vector<double> fours(static_cast<std::size_t>(n), 4.0);
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

  native_workset st{sub.span(), diag.span(), super.span(), r.span(),
                    p.span(),   s.span(),    x.span(),     r_old.span(),
                    r_aux.span(), n};
  native_gpu_iteration<Api>(st);

  std::vector<double> got(static_cast<std::size_t>(n));
  x.copy_to_host(got.data());
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(got[static_cast<std::size_t>(i)], ref.x.host_data()[i],
                1e-12);
  }
}

} // namespace
} // namespace jaccx::cg
