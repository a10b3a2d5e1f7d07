// lbm_large: closed loop, one caller, threads back end.  Each op is one
// lbm::simulation::step() — one 2-D launch of the D2Q9 pull kernel — on a
// 1440^2 lattice started from a seeded centred pulse.  The three 9-plane
// distribution arrays take 3 * 9 * 1440^2 * 8 B = 427 MiB, over four times
// a 105 MiB last-level cache, so the op streams from DRAM and dispatch
// overhead is negligible.
#include <memory>
#include <random>

#include "layers.hpp"
#include "lbm/simulation.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr jaccx::index_t lattice = 1440;
constexpr double tau = 0.8;
constexpr int mass_check_every = 10;  ///< ops between conservation checks
/// The boundary pass-through is not conservative once the pulse's tail
/// reaches the walls, so a run drifts by up to ~1e-8; a broken kernel
/// drifts by orders of magnitude more.
constexpr double max_mass_drift = 1e-6;
constexpr double max_asym = 1e-9;     ///< relative mirror mismatch

struct pulse {
  double amplitude = 0.1;
  double radius_fraction = 0.1;
};

pulse seeded_pulse(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  return {0.05 + 0.1 * u(rng), 0.06 + 0.04 * u(rng)};
}

struct lbm_state {
  std::unique_ptr<jaccx::lbm::simulation> sim;
  double mass0 = 0.0;
  double worst_drift = 0.0;
  double check_s = 0.0; ///< wall time of the mass checks between ops
};

double total_mass(lbm_state& s, std::uint64_t op) {
  const tracer::scope sp(trace(), "simulation::total_mass", op);
  return s.sim->total_mass();
}

lbm_state make_state(jacc::backend be, const pulse& p, int warmup) {
  lbm_state s;
  jacc::set_backend(be);
  s.sim = std::make_unique<jaccx::lbm::simulation>(
      jaccx::lbm::params{.size = lattice, .tau = tau});
  s.sim->init_pulse(1.0, p.amplitude, p.radius_fraction);
  for (int i = 0; i < warmup; ++i) {
    s.sim->step();
  }
  s.mass0 = total_mass(s, 0);
  return s;
}

/// One timed step; every mass_check_every ops the mass is checked (outside
/// the timed interval) and a failure counts the ops since the last check.
double step_op(lbm_state& s, std::uint64_t op, check_tally& checks) {
  const double t0 = now_s();
  {
    const tracer::scope sp(trace(), "simulation::step", op);
    s.sim->step();
  }
  const double dt = now_s() - t0;
  checks.attempt();
  if ((op + 1) % mass_check_every == 0) {
    const double c0 = now_s();
    const double drift = rel_drift(total_mass(s, op), s.mass0);
    s.check_s += now_s() - c0;
    s.worst_drift = std::max(s.worst_drift, drift);
    if (!(drift <= max_mass_drift)) {
      checks.fail("lbm mass drift " + std::to_string(drift * 1e9) +
                      "e-9 at op " + std::to_string(op),
                  mass_check_every);
    }
  }
  return dt;
}

/// Final check: the density field of a centred pulse keeps its mirror
/// symmetries.  A broken field invalidates every op of the run.
void check_symmetry(lbm_state& s, check_tally& checks, report& r) {
  const auto m = s.sim->macroscopics();
  const double asym =
      max_asymmetry(m.density, static_cast<std::size_t>(lattice));
  r.add_extra("lbm.asymmetry_rel", asym, "frac");
  if (!(asym <= max_asym)) {
    checks.fail("lbm density asymmetry " + std::to_string(asym),
                checks.attempted() - checks.failed());
  }
}

} // namespace

void run_lbm_large(const run_args& a, report& r) {
  const pulse p = seeded_pulse(a.seed);
  lbm_state s;
  std::vector<double> setup_s;
  const int reps = a.trace ? 1 : setup_reps;
  for (int i = 0; i < reps; ++i) {
    s = lbm_state{};
    const double t0 = now_s();
    jacc::initialize();
    s = make_state(jacc::backend::threads, p, 2);
    setup_s.push_back(now_s() - t0);
  }
  note_runtime(r);
  const double f_bytes = 9.0 * lattice * lattice * sizeof(double);
  note_bytes(r, "working_set", 3.0 * f_bytes);
  note_bytes(r, "working_set_per_array", f_bytes);
  r.add_extra("working_set_over_llc",
              llc_bytes() > 0.0 ? 3.0 * f_bytes / llc_bytes() : 0.0, "x");
  r.note("problem", "D2Q9 pull " + std::to_string(lattice) + "^2, tau 0.8, " +
                        "pulse amplitude " + std::to_string(p.amplitude) +
                        ", radius " + std::to_string(p.radius_fraction));

  auto op = [&](std::uint64_t i) { return step_op(s, i, r.checks); };
  if (!a.trace) {
    const auto op_s =
        closed_loop(a.seconds, min_closed_ops, a.seconds * 3, op);
    check_symmetry(s, r.checks, r);
    add_closed_loop_metrics(r, median(setup_s), op_s);
    r.add_extra("lbm.mlups",
                static_cast<double>(lattice * lattice) *
                    static_cast<double>(op_s.size()) / sum(op_s) * 1e-6,
                "MLUPS");
    r.add_extra("lbm.mass_drift_rel", s.worst_drift, "frac");
    return;
  }

  const auto plain = closed_loop(a.seconds * 0.3, 10, a.seconds, op);
  const double plain_rate = static_cast<double>(plain.size()) / sum(plain);
  trace().enable(true);
  s.check_s = 0.0;
  const auto before = begin_prof_window();
  const double w0 = now_s();
  const auto traced = closed_loop(
      a.seconds * 0.5, 10, a.seconds * 2, [&](std::uint64_t i) {
        const tracer::scope sp(trace(), "op", i);
        return step_op(s, plain.size() + i, r.checks);
      });
  const double window = now_s() - w0;
  const auto after = layer_snapshot::take();
  const auto kernels = read_kernels();
  end_prof_window();
  trace().enable(false);
  const double ops = static_cast<double>(traced.size());
  // The window's launches include the mass-check reductions, so their
  // wall time joins the ops' for the per-launch overhead.
  add_window_layers(r, before, after, kernels, ops,
                    (sum(traced) + s.check_s) * 1e6, window);
  r.add_layer("lbm.mlups",
              static_cast<double>(lattice * lattice) * ops / sum(traced) *
                  1e-6,
              "MLUPS");
  check_symmetry(s, r.checks, r);
  r.add_layer("lbm.mass_drift_rel", s.worst_drift, "frac");
  r.add_layer("trace.overhead_frac", 1.0 - (ops / sum(traced)) / plain_rate,
              "frac");

  // Serial baseline of the same problem (the threads lattice is freed
  // first so the two never coexist).
  s = lbm_state{};
  lbm_state ser = make_state(jacc::backend::serial, p, 0);
  const auto serial = closed_loop(a.seconds * 0.15, 3, a.seconds, [&](
                                                        std::uint64_t i) {
    return step_op(ser, i, r.checks);
  });
  const double serial_rate = static_cast<double>(serial.size()) / sum(serial);
  r.add_layer("baseline.serial_ops_per_s", serial_rate, "1/s");
  r.add_layer("baseline.threads_speedup", plain_rate / serial_rate, "x");
  finish_trace(a, r);
}

} // namespace perfbench
