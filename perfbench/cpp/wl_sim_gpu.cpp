// sim_gpu: closed loop, one caller, on the simulated cuda_a100.  Each op is
// one job: a seeded 1024-row tridiagonal cg_solve, a 4096-element jacc_dot
// (the two-kernel shared-memory reduction on fibers), and a 3-step D2Q9
// burst on a 48^2 lattice auto-sharded over a 2-device device_set, with
// the results read back.  The threads pool is idle here; the simulator's
// own speed is what the wall clock measures.  Modelled device time is
// reported as modelled, never as measured.
#include <memory>
#include <random>

#include "blas/jacc_blas.hpp"
#include "cg/solver.hpp"
#include "layers.hpp"
#include "lbm/simulation.hpp"
#include "sim/device.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using jaccx::cg::darray;
using jaccx::cg::index_t;

constexpr index_t cg_rows = 1024;
constexpr index_t dot_len = 4096;
constexpr index_t lbm_edge = 48;
constexpr int lbm_steps = 3;
constexpr int variants = 4;
constexpr int devices = 2;
constexpr double tau = 0.8;
constexpr double max_solution_error = 1e-8;   ///< vs the known solution
constexpr double max_serial_mismatch = 1e-12; ///< vs the serial back end

/// The LBM module's flat index (k * S*S + x * S + y) over a sharded
/// (y, k, x) array3d, whose slow dimension x is what the device_set splits.
struct flat_view {
  const jacc::array3d<double>* a;
  index_t size;

  jacc::detail::element_ref<double> operator[](index_t ind) const {
    const index_t plane = size * size;
    const index_t k = ind / plane;
    const index_t rest = ind - k * plane;
    const index_t x = rest / size;
    return (*a)(rest - x * size, k, x);
  }
};

index_t flat_to_yxk(index_t ind) {
  const index_t plane = lbm_edge * lbm_edge;
  const index_t k = ind / plane;
  const index_t rest = ind - k * plane;
  const index_t x = rest / lbm_edge;
  return (rest - x * lbm_edge) + lbm_edge * (k + jaccx::lbm::q * x);
}

std::vector<double> to_sharded_layout(const jacc::array<double>& f) {
  const auto flat = f.to_host();
  std::vector<double> out(flat.size());
  for (std::size_t i = 0; i < flat.size(); ++i) {
    out[static_cast<std::size_t>(flat_to_yxk(static_cast<index_t>(i)))] =
        flat[i];
  }
  return out;
}

void tridiag_apply_host(const std::vector<double>& x, std::vector<double>& y) {
  const std::size_t n = x.size();
  for (std::size_t i = 0; i < n; ++i) {
    y[i] = 4.0 * x[i] + (i > 0 ? x[i - 1] : 0.0) + (i + 1 < n ? x[i + 1] : 0.0);
  }
}

struct problem {
  std::unique_ptr<jaccx::cg::tridiag_system> A;
  std::vector<darray> b;
  std::vector<std::vector<double>> x_true, x_serial, x_first;
  std::vector<int> iters_serial;
  std::vector<double> iters_sim, residual_sim; ///< first solve per variant
  std::vector<darray> dx, dy;
  std::vector<double> dot_exact, dot_serial;
  std::unique_ptr<jacc::device_set> ds;
  std::vector<double> lbm_init, lbm_ref; ///< sharded (y, k, x) layout

  double bytes() const {
    const double cg = 8.0 * cg_rows * sizeof(double); // A (3), b, x, r, p, s
    const double dot = 2.0 * dot_len * sizeof(double);
    const double lbm = 3.0 * static_cast<double>(lbm_init.size()) *
                       sizeof(double);
    return cg + dot + lbm;
  }
};

problem build(std::uint64_t seed) {
  problem p;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.5, 1.5);
  std::uniform_int_distribution<int> small(-16, 16);
  const auto n = static_cast<std::size_t>(cg_rows);
  std::vector<std::vector<double>> rhs;
  std::vector<std::vector<double>> dxh, dyh;
  for (int k = 0; k < variants; ++k) {
    std::vector<double> xt(n), bh(n);
    for (auto& v : xt) {
      v = u(rng);
    }
    tridiag_apply_host(xt, bh);
    p.x_true.push_back(std::move(xt));
    rhs.push_back(std::move(bh));
    // Integer-valued DOT inputs: every partial sum is exact, so any
    // association order gives the same bits and a bitwise check is sound.
    std::vector<double> xs(static_cast<std::size_t>(dot_len));
    std::vector<double> ys(xs.size());
    long long exact = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      xs[i] = small(rng);
      ys[i] = small(rng);
      exact += static_cast<long long>(xs[i]) * static_cast<long long>(ys[i]);
    }
    p.dot_exact.push_back(static_cast<double>(exact));
    dxh.push_back(std::move(xs));
    dyh.push_back(std::move(ys));
  }
  const double amp = 0.05 + 0.1 * std::uniform_real_distribution<double>()(rng);

  { // Serial-backend references for every check.
    const jacc::scoped_backend serial(jacc::backend::serial);
    const jaccx::cg::tridiag_system As(cg_rows);
    for (int k = 0; k < variants; ++k) {
      const darray bs(rhs[static_cast<std::size_t>(k)]);
      darray xs(cg_rows);
      const auto res = jaccx::cg::cg_solve(As, bs, xs);
      p.x_serial.push_back(xs.to_host());
      p.iters_serial.push_back(res.iterations);
      const darray sx(dxh[static_cast<std::size_t>(k)]);
      const darray sy(dyh[static_cast<std::size_t>(k)]);
      p.dot_serial.push_back(jaccx::blas::jacc_dot(dot_len, sx, sy));
    }
    jaccx::lbm::simulation ref({.size = lbm_edge, .tau = tau});
    ref.init_pulse(1.0, amp, 0.15);
    p.lbm_init = to_sharded_layout(ref.distributions());
    ref.run(lbm_steps);
    p.lbm_ref = to_sharded_layout(ref.distributions());
  }

  p.A = std::make_unique<jaccx::cg::tridiag_system>(cg_rows);
  for (int k = 0; k < variants; ++k) {
    p.b.emplace_back(rhs[static_cast<std::size_t>(k)]);
    p.dx.emplace_back(dxh[static_cast<std::size_t>(k)]);
    p.dy.emplace_back(dyh[static_cast<std::size_t>(k)]);
  }
  p.ds = std::make_unique<jacc::device_set>(jacc::backend::cuda_a100,
                                            devices);
  return p;
}

struct op_out {
  double wall_s = 0.0;
  double device_us = 0.0; ///< modelled
};

std::vector<double> lbm_burst(problem& p, std::uint64_t op) {
  const tracer::scope sp(trace(), "lbm_burst", op);
  const index_t L = lbm_edge;
  jacc::array3d<double> f(jacc::sharded(*p.ds), L, jaccx::lbm::q, L);
  jacc::array3d<double> f1(jacc::sharded(*p.ds), p.lbm_init.data(), L,
                           jaccx::lbm::q, L);
  jacc::array3d<double> f2(jacc::sharded(*p.ds), p.lbm_init.data(), L,
                           jaccx::lbm::q, L);
  {
    const jacc::device_set_scope scope(*p.ds);
    for (int s = 0; s < lbm_steps; ++s) {
      const tracer::scope ps(trace(), "parallel_for(sharded)", op);
      jacc::parallel_for(
          jacc::hints{.name = "jacc.lbm.sharded",
                      .flops_per_index = jaccx::lbm::site_flops,
                      .bytes_per_index = 144.0,
                      .stencil_radius = 1},
          jacc::dims2{L, L},
          [](index_t i, index_t j, const jacc::array3d<double>& fs,
             const jacc::array3d<double>& f1s,
             const jacc::array3d<double>& f2s, double t, index_t size) {
            jaccx::lbm::site_update(j, i, flat_view{&fs, size},
                                    flat_view{&f1s, size},
                                    flat_view{&f2s, size}, t,
                                    jaccx::lbm::weights, jaccx::lbm::vel_x,
                                    jaccx::lbm::vel_y, size);
          },
          f, f1, f2, tau, L);
      std::swap(f1, f2);
    }
  }
  const tracer::scope rd(trace(), "array::to_host", op);
  return f1.to_host();
}

/// One timed op.  The warm-up pass (`first`) records each variant's
/// solution, iterations and residual as the reproducibility reference.
op_out sim_op(problem& p, std::uint64_t op, check_tally& checks, bool first) {
  const auto k = static_cast<std::size_t>(op % variants);
  op_out out;
  double dev0 = 0.0;
  {
    const tracer::scope sp(trace(), "device_set::now_us", op);
    dev0 = p.ds->now_us();
  }
  const double t0 = now_s();
  darray x(cg_rows);
  jaccx::cg::cg_result res;
  {
    const tracer::scope sp(trace(), "cg_solve", op);
    res = jaccx::cg::cg_solve(*p.A, p.b[k], x);
  }
  double d = 0.0;
  {
    const tracer::scope sp(trace(), "blas::jacc_dot", op);
    d = jaccx::blas::jacc_dot(dot_len, p.dx[k], p.dy[k]);
  }
  std::vector<double> xh;
  {
    const tracer::scope sp(trace(), "array::to_host", op);
    xh = x.to_host();
  }
  const std::vector<double> lbm = lbm_burst(p, op);
  {
    const tracer::scope sp(trace(), "device_set::sync", op);
    out.device_us = p.ds->sync() - dev0;
  }
  out.wall_s = now_s() - t0;

  std::string why;
  bool ok = check_cg(res.converged, xh, p.x_true[k], max_solution_error, &why);
  if (ok && res.iterations != p.iters_serial[k]) {
    ok = false;
    why = "cg iterations " + std::to_string(res.iterations) + " != serial " +
          std::to_string(p.iters_serial[k]);
  }
  if (ok && !(max_rel_error(xh, p.x_serial[k]) <= max_serial_mismatch)) {
    ok = false;
    why = "cg solution differs from the serial back end";
  }
  if (first) {
    p.x_first.push_back(xh);
    p.iters_sim.push_back(res.iterations);
    p.residual_sim.push_back(res.relative_residual);
  } else if (ok && !bitwise_equal(xh, p.x_first[k])) {
    ok = false;
    why = "cg solution not reproducible bit for bit";
  }
  if (ok && !(bitwise_equal(d, p.dot_exact[k]) &&
              bitwise_equal(d, p.dot_serial[k]))) {
    ok = false;
    why = "dot " + std::to_string(d) + " != exact " +
          std::to_string(p.dot_exact[k]);
  }
  if (ok && !bitwise_equal(lbm, p.lbm_ref)) {
    ok = false;
    why = "sharded lbm burst differs from the serial back end";
  }
  checks.record(ok, "sim_gpu op " + std::to_string(op) + ": " + why);
  return out;
}

/// The simulated timelines the workload charges: both devices and their
/// shard streams.
std::vector<jaccx::sim::timeline*> timelines(problem& p) {
  std::vector<jaccx::sim::timeline*> out;
  for (int d = 0; d < devices; ++d) {
    out.push_back(&p.ds->dev(d).tl());
    out.push_back(&p.ds->shard_stream(d).tl());
  }
  return out;
}

/// The event logs grow by one entry per charged operation for the life of
/// the process; like the repository's own benches, the benchmark keeps them
/// off (the clocks still advance) except while the traced run reads them.
void set_logging(problem& p, bool on) {
  for (auto* tl : timelines(p)) {
    tl->set_logging(on);
  }
}

std::unique_ptr<problem> setup(std::uint64_t seed, check_tally& warm) {
  jacc::initialize();
  jacc::set_backend(jacc::backend::cuda_a100);
  auto p = std::make_unique<problem>(build(seed));
  set_logging(*p, false);
  for (int k = 0; k < variants; ++k) {
    sim_op(*p, static_cast<std::uint64_t>(k), warm, true);
  }
  return p;
}

struct timeline_totals {
  double launches = 0.0;
  double dram_bytes = 0.0;
  double cache_bytes = 0.0;
  double halo_bytes = 0.0;
  double halo_us = 0.0;
};

timeline_totals read_timelines(const std::vector<jaccx::sim::timeline*>& tls,
                               const std::vector<std::size_t>& start) {
  const tracer::scope sp(trace(), "timeline.read", 0);
  timeline_totals t;
  for (std::size_t i = 0; i < tls.size(); ++i) {
    const auto& ev = tls[i]->events();
    for (std::size_t e = start[i] <= ev.size() ? start[i] : 0; e < ev.size();
         ++e) {
      if (ev[e].name.ends_with("shard.halo")) { // "d2h shard.halo", ...
        t.halo_bytes += static_cast<double>(ev[e].tally.dram_bytes);
        t.halo_us += ev[e].duration_us;
      } else if (ev[e].kind == jaccx::sim::event_kind::kernel &&
                 ev[e].tally.indices > 0) {
        t.launches += 1.0;
        t.dram_bytes += static_cast<double>(ev[e].tally.dram_bytes);
        t.cache_bytes += static_cast<double>(ev[e].tally.cache_bytes);
      }
    }
  }
  return t;
}

} // namespace

void run_sim_gpu(const run_args& a, report& r) {
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
  r.note("problem", "tridiag cg " + std::to_string(cg_rows) + " rows, dot " +
                        std::to_string(dot_len) + ", lbm " +
                        std::to_string(lbm_edge) + "^2 x " +
                        std::to_string(lbm_steps) + " steps on " +
                        std::to_string(devices) + " devices");
  if (warm.failed() > 0) {
    r.checks.fail("warm-up: " + warm.messages().front());
  }

  std::vector<double> device_us;
  auto op = [&](std::uint64_t i) {
    const op_out o = sim_op(*p, i, r.checks, false);
    device_us.push_back(o.device_us);
    return o.wall_s;
  };
  if (!a.trace) {
    const auto op_s =
        closed_loop(a.seconds, min_closed_ops, a.seconds * 3, op);
    add_closed_loop_metrics(r, median(setup_s), op_s);
    r.add_extra("sim.device_us_per_op_modelled", median(device_us), "us");
    return;
  }

  const auto plain = closed_loop(a.seconds * 0.3, 20, a.seconds, op);
  const double plain_rate = static_cast<double>(plain.size()) / sum(plain);
  device_us.clear();
  const auto tls = timelines(*p);
  std::vector<std::size_t> start;
  for (const auto* tl : tls) {
    start.push_back(tl->event_count());
  }
  set_logging(*p, true);
  trace().enable(true);
  const auto before = begin_prof_window();
  const double w0 = now_s();
  const auto traced = closed_loop(
      a.seconds * 0.6, 20, a.seconds * 2, [&](std::uint64_t i) {
        const tracer::scope sp(trace(), "op", i);
        return op(i);
      });
  const double window = now_s() - w0;
  const auto after = layer_snapshot::take();
  const auto kernels = read_kernels();
  end_prof_window();
  const timeline_totals tt = read_timelines(tls, start);
  set_logging(*p, false);
  trace().enable(false);
  const double ops = static_cast<double>(traced.size());
  const double dev_total = sum(device_us);
  add_window_layers(r, before, after, kernels, ops, sum(traced) * 1e6,
                    window);
  r.add_layer("sim.wall_per_device_us",
              dev_total > 0.0 ? sum(traced) * 1e6 / dev_total : 0.0, "us/us");
  r.add_layer("sim.device_us_per_op", dev_total / ops, "us");
  r.add_layer("sim.dram_mb_per_op", tt.dram_bytes / ops / (1024.0 * 1024.0),
              "MB");
  r.add_layer("sim.cache_mb_per_op", tt.cache_bytes / ops / (1024.0 * 1024.0),
              "MB");
  r.add_layer("sim.launches_per_op", tt.launches / ops, "count");
  r.add_layer("shard.halo_mb_per_op", tt.halo_bytes / ops / (1024.0 * 1024.0),
              "MB");
  r.add_layer("shard.halo_us_per_op", tt.halo_us / ops, "us");
  r.add_layer("trace.overhead_frac", 1.0 - (ops / sum(traced)) / plain_rate,
              "frac");
  r.add_layer("cg.iters_per_solve",
              sum(p->iters_sim) / static_cast<double>(p->iters_sim.size()),
              "count");
  r.add_layer("cg.rel_residual_max", max_of(p->residual_sim), "frac");
  finish_trace(a, r);
}

} // namespace perfbench
