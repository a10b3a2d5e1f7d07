// hpccg_small: closed loop, one caller, threads back end.  Each op is one
// cg_solve on the HPCCG 27-point CSR operator of a 16^3 grid at tolerance
// 1e-10, from a zero initial guess, for a right-hand side built from a
// seeded known solution.  The whole system (~1.9 MB) sits in L2+L3, so the
// op is bound by dispatch, barriers and reductions, not by memory.
#include <memory>
#include <random>

#include "cg/solver.hpp"
#include "layers.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using jaccx::cg::darray;
using jaccx::cg::index_t;

constexpr index_t grid = 16;
constexpr int variants = 4; ///< seeded known solutions, used in rotation
constexpr double cg_tolerance = 1e-10;
constexpr double max_solution_error = 1e-7; ///< relative, vs known solution

struct problem {
  jaccx::cg::csr_host host;
  std::unique_ptr<jaccx::cg::csr_system> A;
  std::vector<std::vector<double>> x_true;
  std::vector<darray> b;

  problem(std::uint64_t seed)
      : host(jaccx::cg::make_hpccg_27pt(grid, grid, grid)),
        A(std::make_unique<jaccx::cg::csr_system>(host)) {
    std::mt19937_64 rng(seed);
    std::uniform_real_distribution<double> u(0.5, 1.5);
    const auto n = static_cast<std::size_t>(host.rows);
    for (int k = 0; k < variants; ++k) {
      std::vector<double> xt(n);
      for (auto& v : xt) {
        v = u(rng);
      }
      std::vector<double> rhs(n);
      host.apply_host(xt.data(), rhs.data());
      x_true.push_back(std::move(xt));
      b.emplace_back(rhs);
    }
  }

  double bytes() const {
    const double rows = static_cast<double>(host.rows);
    const double nnz = static_cast<double>(host.nnz());
    // row_ptr + col_idx + values, then b, x and the solver's r, p, s.
    return (rows + 1.0) * sizeof(index_t) + nnz * sizeof(index_t) +
           nnz * sizeof(double) + 5.0 * rows * sizeof(double);
  }
};

struct solve_stats {
  std::vector<int> iters;
  std::vector<double> residual;
};

/// One timed op; the check runs after the timed interval.
double solve_op(problem& p, std::uint64_t op, check_tally& checks,
                solve_stats* st) {
  const int k = static_cast<int>(op % variants);
  const double t0 = now_s();
  darray x(p.host.rows);
  jaccx::cg::cg_result res;
  {
    const tracer::scope s(trace(), "cg_solve", op);
    res = jaccx::cg::cg_solve(*p.A, p.b[static_cast<std::size_t>(k)], x,
                              {.max_iterations = 500,
                               .tolerance = cg_tolerance});
  }
  const double dt = now_s() - t0;
  const auto xh = x.to_host();
  std::string why;
  const bool ok = check_cg(res.converged, xh,
                           p.x_true[static_cast<std::size_t>(k)],
                           max_solution_error, &why);
  checks.record(ok, "hpccg op " + std::to_string(op) + ": " + why);
  if (st != nullptr && st->iters.size() < static_cast<std::size_t>(variants)) {
    st->iters.push_back(res.iterations);
    st->residual.push_back(res.relative_residual);
  }
  return dt;
}

std::unique_ptr<problem> setup(std::uint64_t seed, check_tally& warm) {
  jacc::initialize();
  jacc::set_backend(jacc::backend::threads);
  auto p = std::make_unique<problem>(seed);
  for (std::uint64_t w = 0; w < 3; ++w) {
    solve_op(*p, w, warm, nullptr);
  }
  return p;
}

} // namespace

void run_hpccg_small(const run_args& a, report& r) {
  std::unique_ptr<problem> p;
  std::vector<double> setup_s;
  check_tally warm;
  const int reps = a.trace ? 1 : setup_reps;
  for (int i = 0; i < reps; ++i) {
    p.reset();
    const double t0 = now_s();
    p = setup(a.seed, warm);
    setup_s.push_back(now_s() - t0);
  }
  note_runtime(r);
  note_bytes(r, "working_set", p->bytes());
  r.note("problem", "hpccg 27-point " + std::to_string(grid) + "^3, rows " +
                        std::to_string(p->host.rows) + ", nnz " +
                        std::to_string(p->host.nnz()) + ", tol 1e-10");
  if (warm.failed() > 0) {
    r.checks.fail("warm-up: " + warm.messages().front());
  }

  auto op = [&](std::uint64_t i) {
    return solve_op(*p, i, r.checks, nullptr);
  };
  if (!a.trace) {
    add_closed_loop_metrics(r, median(setup_s),
                            closed_loop(a.seconds, min_closed_ops,
                                        a.seconds * 3, op));
    return;
  }

  // Traced run: an untraced stretch (the overhead reference), a traced one
  // with spans and prof collection, then the serial baseline.
  const auto plain = closed_loop(a.seconds * 0.3, 20, a.seconds, op);
  const double plain_rate = static_cast<double>(plain.size()) / sum(plain);
  solve_stats st;
  trace().enable(true);
  const auto before = begin_prof_window();
  const double w0 = now_s();
  const auto traced = closed_loop(
      a.seconds * 0.5, 20, a.seconds * 2, [&](std::uint64_t i) {
        const tracer::scope s(trace(), "op", i);
        return solve_op(*p, i, r.checks, &st);
      });
  const double window = now_s() - w0;
  const auto after = layer_snapshot::take();
  const auto kernels = read_kernels();
  end_prof_window();
  trace().enable(false);
  const double ops = static_cast<double>(traced.size());
  const double traced_rate = ops / sum(traced);
  add_window_layers(r, before, after, kernels, ops, sum(traced) * 1e6,
                    window);
  double iters = 0.0;
  for (const int it : st.iters) {
    iters += it;
  }
  r.add_layer("cg.iters_per_solve",
              iters / static_cast<double>(st.iters.size()), "count");
  r.add_layer("cg.rel_residual_max", max_of(st.residual), "frac");
  r.add_layer("trace.overhead_frac", 1.0 - traced_rate / plain_rate, "frac");

  // Serial baseline of the same problem.
  p.reset();
  jacc::set_backend(jacc::backend::serial);
  auto ps = std::make_unique<problem>(a.seed);
  solve_op(*ps, 0, r.checks, nullptr);
  const auto serial = closed_loop(a.seconds * 0.2, 5, a.seconds, [&](
                                                       std::uint64_t i) {
    return solve_op(*ps, i, r.checks, nullptr);
  });
  const double serial_rate = static_cast<double>(serial.size()) / sum(serial);
  r.add_layer("baseline.serial_ops_per_s", serial_rate, "1/s");
  r.add_layer("baseline.threads_speedup", plain_rate / serial_rate, "x");
  finish_trace(a, r);
}

} // namespace perfbench
