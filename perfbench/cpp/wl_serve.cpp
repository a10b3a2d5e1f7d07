// serve_open: open loop on the threads back end.  One generator thread (the
// caller) sends seeded jobs through jaccx::serve::scheduler, built with its
// default options (slots = lanes), to six tenants of mixed weight in two
// priority classes.  The job mix is small CG solves, BLAS-1 bursts that
// allocate their own arrays (churning the memory pool), and
// submit(tenant, graph) replays of pre-captured graphs.  A run measures
// three things: the rate at which the server drains bursts of jobs sent all
// at once (its capacity, set by the program, not by the generator);
// latency from each job's due time to its completion under Poisson
// arrivals at a fixed reference rate (so a stall is also charged to the
// jobs queued behind it); and a short ladder of higher Poisson rates that
// finds the highest rate whose p99 stays under a fixed limit without a
// growing backlog.
#include <algorithm>
#include <atomic>
#include <deque>
#include <memory>
#include <random>
#include <thread>

#include "blas/jacc_blas.hpp"
#include "cg/solver.hpp"
#include "core/expr.hpp"
#include "layers.hpp"
#include "openloop.hpp"
#include "serve/serve.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using jaccx::cg::darray;
using jaccx::cg::index_t;
namespace serve = jaccx::serve;

constexpr index_t cg_grid = 8;          ///< 512-row HPCCG operator
constexpr index_t blas_len = 131072;
constexpr index_t graph_len = 131072;
constexpr int variants = 4;             ///< input variants of every job kind
constexpr std::size_t graphs_per_tenant = 16; ///< captured at set-up
/// Warm-up jobs per tenant: every pre-captured graph replays once, and
/// every tenant runs each input variant as often.
constexpr int warm_jobs_per_tenant = static_cast<int>(graphs_per_tenant);
/// A capacity burst sends this many jobs of every tenant at once.
constexpr int burst_jobs_per_tenant = static_cast<int>(graphs_per_tenant);
constexpr int bursts = 40;
/// The untraced run alternates capacity bursts and reference-rate segments
/// this many times.
constexpr int rounds = 5;
/// Jobs per second.  The reference rate is under a tenth of the measured
/// drain rate (1080-1730/s on 4 vCPUs), so the server keeps up even when a
/// shared host runs it at half speed; the ladder climbs in 150/s steps to
/// about half the drain rate, where p99 crosses the limit on that host.
/// perfbench/README.md records the measurements.
constexpr double reference_rate = 120.0;
constexpr double ladder[] = {250.0, 400.0, 550.0, 700.0};
/// Jobs a phase needs so that its p99 has ten samples beyond it.
constexpr double p99_jobs = 1000.0;
/// About twelve times the reference-rate p50 (1.5-2.7 ms measured).
constexpr double p99_limit_ms = 25.0;
constexpr double max_solution_error = 1e-7;
constexpr double cg_tolerance = 1e-10;
constexpr int cg_max_iterations = 500;

enum class kind : int { cg, blas, graph };

/// Every tenant gets the same share of arrivals.  Each job kind has one
/// tenant in each priority class; the normal class weighs its three
/// tenants 1, 2 and 4 so weighted fair share has unequal weights to keep.
struct tenant_spec {
  const char* name;
  double weight;
  serve::priority prio;
  kind k;
};

constexpr tenant_spec tenant_specs[] = {
    {"cg.high", 1.0, serve::priority::high, kind::cg},
    {"cg.normal", 1.0, serve::priority::normal, kind::cg},
    {"blas.high", 1.0, serve::priority::high, kind::blas},
    {"blas.normal", 2.0, serve::priority::normal, kind::blas},
    {"graph.high", 1.0, serve::priority::high, kind::graph},
    {"graph.normal", 4.0, serve::priority::normal, kind::graph},
};
constexpr int tenant_count = 6;

/// Integer-valued inputs keep every BLAS and graph result exact, so each
/// job's output is checked bit for bit against a host-computed value.
double pattern_x(index_t i) { return static_cast<double>(i % 7) - 3.0; }
double pattern_y(index_t i) { return static_cast<double>(i % 5) - 2.0; }

struct job_rec {
  double due = 0.0; ///< s from phase start
  double sent = 0.0;
  std::uint64_t done_ns = 0;
  int tenant = 0;
  int variant = 0;
  serve::job_handle h;
  // Outputs, written by the job, checked by the generator afterwards.
  std::vector<double> x;
  bool converged = false;
  double value = 0.0;
  double value2 = 0.0;
};

struct graph_slot {
  double value = 0.0;
  std::uint64_t done_ns = 0;
};

struct graph_entry {
  darray y;
  jacc::scalar_binding<double> c{1.0};
  graph_slot slot;
  jacc::graph g;
  job_rec* running = nullptr;

  graph_entry() : y(graph_len) {}
};

/// The cg_solve iteration — eager, or fused when the program's fuse mode
/// enables expressions, exactly as cg_solve picks — issued on the job's own
/// slot queue.  Reductions block on their futures where the scalar is
/// needed, and the queue is synchronized before the job's arrays go out of
/// scope.  (cg_solve itself cannot run on a threads lane queue: under a
/// queue_scope it returns while its last update is still queued against
/// arrays local to the call.)  Returns whether it converged.
bool queued_cg(jacc::queue& q, const jaccx::cg::csr_system& A, const darray& b,
               darray& x, std::uint64_t id) {
  const index_t n = A.rows;
  const bool fused = jacc::fuse_expr();
  const jacc::hints dot_h{.name = "cg.dot", .flops_per_index = 2.0,
                          .bytes_per_index = 16.0};
  const jacc::hints axpy_h{.name = "cg.axpy", .flops_per_index = 2.0,
                           .bytes_per_index = 24.0};
  darray r(jacc::uninit, n);
  darray p(jacc::uninit, n);
  darray s(jacc::uninit, n);
  auto dot = [&](const darray& u, const darray& v) {
    if (fused) {
      const tracer::scope sp(trace(), "future::get", id);
      return jacc::dot("cg.dot", n, jacc::ex(u), jacc::ex(v));
    }
    auto f = q.parallel_reduce(dot_h, n, jaccx::blas::dot, u, v);
    const tracer::scope sp(trace(), "future::get", id);
    return f.get();
  };
  const jacc::queue_scope in(q);
  A.apply(x, s);
  if (fused) {
    jacc::eval("cg.setup", n, jacc::assign(r, jacc::ex(b) - jacc::ex(s)),
               jacc::assign(p, jacc::ex(r)));
  } else {
    jacc::parallel_for(
        jacc::hints{.name = "cg.residual", .flops_per_index = 2.0,
                    .bytes_per_index = 24.0},
        n,
        [](index_t i, const darray& b_, const darray& s_, darray& r_) {
          r_[i] = static_cast<double>(b_[i]) - static_cast<double>(s_[i]);
        },
        b, s, r);
    jacc::parallel_for(jacc::hints{.name = "cg.copy", .bytes_per_index = 16.0},
                       n, jaccx::cg::copy_kernel, r, p);
  }
  const double bb = dot(b, b);
  double rr = dot(r, r);
  const double stop = cg_tolerance * cg_tolerance * bb;
  for (int it = 0; it < cg_max_iterations && rr > stop; ++it) {
    A.apply(p, s);
    const double alpha = rr / dot(p, s);
    double rr_new = 0.0;
    if (fused) {
      const tracer::scope sp(trace(), "future::get", id);
      rr_new = jacc::eval_dot(
          "cg.fused_update", n, jacc::ex(r), jacc::ex(r),
          jacc::assign(x, jacc::ex(x) + alpha * jacc::ex(p)),
          jacc::assign(r, jacc::ex(r) + (-alpha) * jacc::ex(s)));
      jacc::eval("cg.xpay", n,
                 jacc::assign(p, jacc::ex(r) + (rr_new / rr) * jacc::ex(p)));
    } else {
      jacc::parallel_for(axpy_h, n, jaccx::blas::axpy, alpha, x, p);
      jacc::parallel_for(axpy_h, n, jaccx::blas::axpy, -alpha, r, s);
      rr_new = dot(r, r);
      jacc::parallel_for(jacc::hints{.name = "cg.xpay", .flops_per_index = 2.0,
                                     .bytes_per_index = 24.0},
                         n, jaccx::cg::xpay_kernel, rr_new / rr, r, p);
    }
    rr = rr_new;
  }
  q.synchronize();
  return rr <= stop;
}

struct server {
  // CG problem (shared, read-only inside jobs).
  jaccx::cg::csr_host host;
  std::unique_ptr<jaccx::cg::csr_system> A;
  std::vector<std::vector<double>> x_true;
  std::vector<darray> b;
  // Graph inputs and per-tenant graph pools.
  darray gx;
  std::deque<graph_entry> graphs[tenant_count];
  std::size_t next_graph[tenant_count] = {};
  // Expected exact results.
  double blas_dot[4] = {};
  double blas_sum[4] = {};
  double graph_dot[4] = {};
  std::atomic<std::uint64_t> completed{0};
  // Declared after the state its jobs use, so its destructor (which drains
  // the jobs) runs first.
  std::unique_ptr<serve::scheduler> sched;
  std::vector<serve::tenant> tenants;

  explicit server(std::uint64_t seed);

  void capture(int t);
  graph_entry& acquire_graph(int t, job_rec* rec);
  void submit(job_rec& rec, std::uint64_t id);
  void harvest(graph_entry& e);
  bool check(const job_rec& rec, std::string* why) const;
};

server::server(std::uint64_t seed)
    : host(jaccx::cg::make_hpccg_27pt(cg_grid, cg_grid, cg_grid)),
      A(std::make_unique<jaccx::cg::csr_system>(host)),
      gx(std::vector<double>(static_cast<std::size_t>(graph_len))) {
  std::mt19937_64 rng(seed ^ 0x5e4e5e4eULL);
  std::uniform_real_distribution<double> u(0.5, 1.5);
  const auto n = static_cast<std::size_t>(host.rows);
  for (int k = 0; k < variants; ++k) {
    std::vector<double> xt(n), rhs(n);
    for (auto& v : xt) {
      v = u(rng);
    }
    host.apply_host(xt.data(), rhs.data());
    x_true.push_back(std::move(xt));
    b.emplace_back(rhs);
  }
  double* gxh = gx.host_data();
  double xx = 0.0;
  double xs = 0.0;
  for (index_t i = 0; i < graph_len; ++i) {
    gxh[i] = pattern_x(i);
    xx += gxh[i] * gxh[i];
    xs += gxh[i];
  }
  for (int v = 0; v < 4; ++v) {
    const double alpha = 1.0 + v;
    double dot = 0.0;
    double s = 0.0;
    for (index_t i = 0; i < blas_len; ++i) {
      const double x = 0.5 * (pattern_x(i) + alpha * pattern_y(i));
      dot += x * pattern_y(i);
      s += x;
    }
    blas_dot[v] = dot;
    blas_sum[v] = s;
    graph_dot[v] = alpha * xx + xs; // sum((alpha x + 1) x)
  }
  sched = std::make_unique<serve::scheduler>();
  for (const auto& s : tenant_specs) {
    tenants.push_back(sched->open_tenant(s.name, s.weight, s.prio));
  }
  for (int t = 0; t < tenant_count; ++t) {
    if (tenant_specs[t].k == kind::graph) {
      for (std::size_t g = 0; g < graphs_per_tenant; ++g) {
        capture(t);
      }
    }
  }
}

void server::capture(int t) {
  graph_entry& e = graphs[t].emplace_back();
  graph_slot* slot = &e.slot;
  auto* done = &completed;
  jacc::queue qc("serve.capture");
  qc.begin_capture();
  jacc::parallel_for(
      qc, jacc::hints{.name = "serve.graph.scale", .flops_per_index = 2.0,
                      .bytes_per_index = 16.0},
      graph_len,
      [](index_t i, double c, const darray& x, darray& y) {
        y[i] = c * static_cast<double>(x[i]) + 1.0;
      },
      e.c, gx, e.y);
  auto f = qc.parallel_reduce(
      jacc::hints{.name = "serve.graph.dot", .flops_per_index = 2.0,
                  .bytes_per_index = 16.0},
      graph_len, jaccx::blas::dot, e.y, gx);
  f.then(qc, [slot, done](double v) {
    slot->value = v;
    slot->done_ns = now_ns();
    done->fetch_add(1);
  });
  e.g = qc.end_capture();
}

void server::harvest(graph_entry& e) {
  if (e.running != nullptr) {
    e.running->value = e.slot.value;
    e.running->done_ns = e.slot.done_ns;
    e.running = nullptr;
  }
}

/// The next graph of tenant t, round robin.  A graph replays once at a
/// time; jobs of one tenant run in FIFO order, so the entry used longest ago
/// is the first to come free, and the generator waits for it when it is
/// still running.
graph_entry& server::acquire_graph(int t, job_rec* rec) {
  auto& pool = graphs[t];
  graph_entry& e = pool[next_graph[t]++ % pool.size()];
  if (e.running != nullptr && !e.running->h.terminal()) {
    const tracer::scope sp(trace(), "job_handle::wait", 0);
    e.running->h.wait();
  }
  harvest(e);
  e.running = rec;
  return e;
}

void server::submit(job_rec& rec, std::uint64_t id) {
  const tenant_spec& spec = tenant_specs[rec.tenant];
  const serve::tenant& tn = tenants[static_cast<std::size_t>(rec.tenant)];
  job_rec* out = &rec;
  auto* done = &completed;
  switch (spec.k) {
  case kind::cg: {
    const tracer::scope sp(trace(), "scheduler::submit", id);
    rec.h = sched->submit(tn, [this, out, done, id](jacc::queue& q) {
      const tracer::scope body(trace(), "job.cg", id);
      darray x(host.rows);
      out->converged = queued_cg(
          q, *A, b[static_cast<std::size_t>(out->variant)], x, id);
      out->x = x.to_host();
      out->done_ns = now_ns();
      done->fetch_add(1);
    });
    break;
  }
  case kind::blas: {
    const tracer::scope sp(trace(), "scheduler::submit", id);
    rec.h = sched->submit(tn, [out, done, id](jacc::queue& q) {
      const tracer::scope body(trace(), "job.blas", id);
      const jacc::queue_scope in(q);
      const double alpha = 1.0 + out->variant;
      darray x(jacc::uninit, blas_len);
      darray y(jacc::uninit, blas_len);
      jacc::parallel_for(
          jacc::hints{.name = "serve.blas.fill", .bytes_per_index = 16.0},
          blas_len,
          [](index_t i, darray& xs, darray& ys) {
            xs[i] = pattern_x(i);
            ys[i] = pattern_y(i);
          },
          x, y);
      {
        const tracer::scope s(trace(), "blas::jacc_axpy", id);
        jaccx::blas::jacc_axpy(blas_len, alpha, x, y);
      }
      {
        const tracer::scope s(trace(), "blas::jacc_scal", id);
        jaccx::blas::jacc_scal(blas_len, 0.5, x);
      }
      {
        const tracer::scope s(trace(), "blas::jacc_dot", id);
        out->value = jaccx::blas::jacc_dot(blas_len, x, y);
      }
      auto f = q.parallel_reduce(
          jacc::hints{.name = "serve.blas.sum", .flops_per_index = 1.0,
                      .bytes_per_index = 8.0},
          blas_len, [](index_t i, const darray& xs) {
            return static_cast<double>(xs[i]);
          },
          x);
      {
        const tracer::scope s(trace(), "future::get", id);
        out->value2 = f.get();
      }
      out->done_ns = now_ns();
      done->fetch_add(1);
    });
    break;
  }
  case kind::graph: {
    graph_entry& e = acquire_graph(rec.tenant, &rec);
    e.g.update_scalar(e.c, 1.0 + rec.variant);
    const tracer::scope sp(trace(), "scheduler::submit(graph)", id);
    rec.h = sched->submit(tn, e.g);
    break;
  }
  }
}

bool server::check(const job_rec& rec, std::string* why) const {
  if (!rec.h || rec.h.status() != serve::job_status::done) {
    *why = "job did not end done";
    return false;
  }
  if (rec.done_ns == 0) {
    *why = "job recorded no completion";
    return false;
  }
  const auto v = static_cast<std::size_t>(rec.variant);
  switch (tenant_specs[rec.tenant].k) {
  case kind::cg:
    return check_cg(rec.converged, rec.x, x_true[v % variants],
                    max_solution_error, why);
  case kind::blas:
    if (!bitwise_equal(rec.value, blas_dot[v]) ||
        !bitwise_equal(rec.value2, blas_sum[v])) {
      *why = "blas burst result wrong";
      return false;
    }
    return true;
  case kind::graph:
    if (!bitwise_equal(rec.value, graph_dot[v])) {
      *why = "graph replay result wrong";
      return false;
    }
    return true;
  }
  return false;
}

/// One phase: a batch of jobs sent at their due times.
struct phase_result {
  double rate = 0.0;
  std::vector<double> latency_ms; ///< completed jobs
  std::vector<double> late_ms;
  std::vector<double> wait_ms;    ///< scheduler queue wait
  std::vector<double> run_ms;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t deferred = 0;
  std::uint64_t over_limit = 0;
  double done_rate = 0.0; ///< completed jobs per second of phase wall time
  double wall_s = 0.0;
  backlog_verdict backlog;

  double p99() const { return percentile(latency_ms, 99.0); }
  bool supported_p99() const { return tail_supported(latency_ms.size(), 99.0); }
  bool passes() const {
    return failed == 0 && !backlog.growing && p99() <= p99_limit_ms;
  }

  /// Folds in a later segment at the same rate (its backlog verdict is the
  /// worse of the two).
  void append(const phase_result& o) {
    for (auto [to, from] : {std::pair{&latency_ms, &o.latency_ms},
                            std::pair{&late_ms, &o.late_ms},
                            std::pair{&wait_ms, &o.wait_ms},
                            std::pair{&run_ms, &o.run_ms}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
    attempted += o.attempted;
    failed += o.failed;
    rejected += o.rejected;
    deferred += o.deferred;
    over_limit += o.over_limit;
    backlog.growth = std::max(backlog.growth, o.backlog.growth);
    backlog.max = std::max(backlog.max, o.backlog.max);
    backlog.growing = backlog.growing || o.backlog.growing;
  }
};

/// Poisson arrivals at `rate` over `duration`, each to a uniformly chosen
/// tenant with a uniformly chosen input variant.
std::vector<job_rec> poisson_jobs(std::mt19937_64& rng, double rate,
                                  double duration) {
  const auto due = poisson_arrivals(rng, rate, duration);
  std::uniform_int_distribution<int> pick_tenant(0, tenant_count - 1);
  std::uniform_int_distribution<int> pick_variant(0, variants - 1);
  std::vector<job_rec> jobs(due.size());
  for (std::size_t j = 0; j < due.size(); ++j) {
    jobs[j].due = due[j];
    jobs[j].tenant = pick_tenant(rng);
    jobs[j].variant = pick_variant(rng);
  }
  return jobs;
}

/// `per_tenant` jobs of every tenant, all due at once, in seeded order; a
/// tenant's k-th job uses variant k mod 4.  Every batch holds the same work.
std::vector<job_rec> batch_jobs(std::mt19937_64& rng, int per_tenant) {
  std::vector<job_rec> jobs(static_cast<std::size_t>(per_tenant) *
                            tenant_count);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    jobs[j].tenant = static_cast<int>(j % tenant_count);
    jobs[j].variant = static_cast<int>(j / tenant_count) % variants;
  }
  std::shuffle(jobs.begin(), jobs.end(), rng);
  return jobs;
}

phase_result run_jobs(server& s, std::vector<job_rec>& jobs, double rate,
                      std::uint64_t& next_id, check_tally& checks) {
  phase_result pr;
  pr.rate = rate;
  std::vector<backlog_sample> backlog;
  backlog.reserve(jobs.size());
  const std::uint64_t done0 = s.completed.load();
  const std::uint64_t t0 = now_ns();
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::this_thread::sleep_until(
        start + std::chrono::nanoseconds(
                    static_cast<std::int64_t>(jobs[j].due * 1e9)));
    jobs[j].sent = static_cast<double>(now_ns() - t0) * 1e-9;
    s.submit(jobs[j], next_id++);
    backlog.push_back(
        {jobs[j].sent, static_cast<double>(j + 1) -
                           static_cast<double>(s.completed.load() - done0)});
  }
  {
    const tracer::scope sp(trace(), "job_handle::wait(all)", 0);
    for (auto& j : jobs) {
      j.h.wait();
    }
  }
  for (auto& pool : s.graphs) {
    for (auto& e : pool) {
      s.harvest(e);
    }
  }
  std::uint64_t last_done = t0;
  for (auto& j : jobs) {
    ++pr.attempted;
    std::string why;
    const bool ok = s.check(j, &why);
    checks.record(ok, "serve job: " + why);
    const auto st = j.h.status();
    pr.rejected += st == serve::job_status::rejected ? 1 : 0;
    pr.deferred += j.h.was_deferred() ? 1 : 0;
    if (!ok) {
      ++pr.failed;
      continue;
    }
    last_done = std::max(last_done, j.done_ns);
    const job_times jt{j.due, j.sent,
                       static_cast<double>(j.done_ns - t0) * 1e-9};
    const double lat = latency_ms(jt);
    pr.latency_ms.push_back(lat);
    pr.over_limit += lat > p99_limit_ms ? 1 : 0;
    pr.late_ms.push_back(lateness_ms(jt));
    const double wait = j.h.queue_wait_us() * 1e-3;
    pr.wait_ms.push_back(wait);
    pr.run_ms.push_back(std::max(0.0, (jt.done - jt.sent) * 1e3 - wait));
  }
  pr.wall_s = static_cast<double>(last_done - t0) * 1e-9;
  pr.done_rate = pr.wall_s > 0.0
                     ? static_cast<double>(pr.latency_ms.size()) / pr.wall_s
                     : 0.0;
  pr.backlog = backlog_growth(backlog);
  return pr;
}

/// Open-loop phase of seeded Poisson arrivals at a fixed rate.
phase_result run_phase(server& s, std::mt19937_64& rng, double rate,
                       double duration, std::uint64_t& next_id,
                       check_tally& checks) {
  auto jobs = poisson_jobs(rng, rate, duration);
  return run_jobs(s, jobs, rate, next_id, checks);
}

/// Capacity: the rate at which the server drains `count` batches of
/// `per_tenant` jobs per tenant, each sent all at once; one rate per batch.
std::vector<double> drain_rates(server& s, std::mt19937_64& rng, int count,
                                int per_tenant, std::uint64_t& next_id,
                                check_tally& checks) {
  std::vector<double> rates;
  for (int b = 0; b < count; ++b) {
    auto jobs = batch_jobs(rng, per_tenant);
    rates.push_back(run_jobs(s, jobs, 0.0, next_id, checks).done_rate);
  }
  return rates;
}

/// Backend init, problem build, graph capture, and a warm-up batch that
/// runs every tenant once per input variant.  Warm-up results are checked
/// into `warm`.
std::unique_ptr<server> setup(std::uint64_t seed, check_tally& warm) {
  jacc::initialize();
  jacc::set_backend(jacc::backend::threads);
  auto s = std::make_unique<server>(seed);
  std::mt19937_64 rng(seed + 1);
  std::uint64_t id = 0;
  auto jobs = batch_jobs(rng, warm_jobs_per_tenant);
  run_jobs(*s, jobs, 0.0, id, warm);
  return s;
}

void add_phase_extras(report& r, const phase_result& pr, const char* tag) {
  const std::string p = std::string("rate.") + tag + ".";
  r.add_extra(p + "offered_per_s", pr.rate, "1/s");
  r.add_extra(p + "jobs", static_cast<double>(pr.attempted), "count");
  r.add_extra(p + "op_ms_p50", median(pr.latency_ms), "ms");
  r.add_extra(p + "op_ms_p99", pr.p99(), "ms");
  r.add_extra(p + "p99_supported", pr.supported_p99() ? 1.0 : 0.0, "bool");
  r.add_extra(p + "backlog_growth", pr.backlog.growth, "count");
  r.add_extra(p + "backlog_max", pr.backlog.max, "count");
  r.add_extra(p + "gen_late_ms_p99", percentile(pr.late_ms, 99.0), "ms");
  r.add_extra(p + "passes", pr.passes() ? 1.0 : 0.0, "bool");
}

} // namespace

void run_serve_open(const run_args& a, report& r) {
  std::unique_ptr<server> s;
  std::vector<double> setup_s;
  check_tally warm;
  const int reps = a.trace ? 1 : setup_reps;
  for (int i = 0; i < reps; ++i) {
    s.reset();
    const double t0 = now_s();
    s = setup(a.seed, warm);
    setup_s.push_back(now_s() - t0);
  }
  note_runtime(r);
  r.note("slots", std::to_string(s->sched->slots()));
  r.note("serve_workers", std::to_string(s->sched->workers()));
  r.note("problem", "6 tenants (3 high, 3 normal priority; weights 1-4), "
                    "equal arrival shares; cg " + std::to_string(cg_grid) +
                        "^3, blas " + std::to_string(blas_len) + ", graph " +
                        std::to_string(graph_len) + "; bursts of " +
                        std::to_string(burst_jobs_per_tenant * tenant_count) +
                        " jobs; reference " +
                        std::to_string(static_cast<int>(reference_rate)) +
                        "/s, p99 limit " +
                        std::to_string(static_cast<int>(p99_limit_ms)) +
                        " ms");
  note_bytes(r, "working_set",
             static_cast<double>(s->host.nnz()) * 16.0 +
                 6.0 * blas_len * sizeof(double) +
                 static_cast<double>(2 * graphs_per_tenant + 1) * graph_len *
                     sizeof(double));
  if (warm.failed() > 0) {
    r.checks.fail("warm-up: " + warm.messages().front());
  }

  std::mt19937_64 rng(a.seed);
  std::uint64_t id = 1000000;
  if (!a.trace) {
    // Capacity bursts and reference-rate segments alternate, so both
    // sample the whole run rather than one stretch of it.
    std::vector<double> capacity;
    phase_result ref;
    ref.rate = reference_rate;
    const double segment_s =
        std::max(a.seconds * 0.5, p99_jobs / reference_rate) / rounds;
    for (int k = 0; k < rounds; ++k) {
      const auto c = drain_rates(*s, rng, bursts / rounds,
                                 burst_jobs_per_tenant, id, r.checks);
      capacity.insert(capacity.end(), c.begin(), c.end());
      ref.append(
          run_phase(*s, rng, reference_rate, segment_s, id, r.checks));
    }
    r.add_e2e("setup_s", median(setup_s), "s");
    r.add_e2e("ops_per_s", median(capacity), "1/s");
    add_latency_metrics(r, ref.latency_ms);
    r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
    r.add_extra("capacity.bursts", static_cast<double>(capacity.size()),
                "count");
    r.add_extra("capacity.ops_per_s_min", *std::min_element(capacity.begin(),
                                                             capacity.end()),
                "1/s");
    r.add_extra("capacity.ops_per_s_max", max_of(capacity), "1/s");
    r.add_extra("slo_miss_frac",
                static_cast<double>(ref.over_limit + ref.failed) /
                    static_cast<double>(ref.attempted),
                "frac");
    add_phase_extras(r, ref, "ref");
    double max_rate = ref.passes() ? ref.rate : 0.0;
    for (const double rate : ladder) {
      // Each rung runs for 1000 jobs, so its p99 is supported.
      const phase_result pr =
          run_phase(*s, rng, rate, p99_jobs / rate, id, r.checks);
      add_phase_extras(r, pr, std::to_string(static_cast<int>(rate)).c_str());
      if (!pr.passes()) {
        break;
      }
      max_rate = rate;
    }
    r.add_extra("max_rate_ops_per_s", max_rate, "1/s");
    r.add_extra("fail_frac", r.checks.fail_frac(), "frac");
    return;
  }

  const phase_result plain =
      run_phase(*s, rng, reference_rate, a.seconds * 0.3, id, r.checks);
  trace().enable(true);
  const auto serve0 = jaccx::prof::aggregate_serve();
  const auto before = begin_prof_window();
  const double w0 = now_s();
  const phase_result pr =
      run_phase(*s, rng, reference_rate, a.seconds * 0.5, id, r.checks);
  const double window = now_s() - w0;
  const auto after = layer_snapshot::take();
  const auto kernels = read_kernels();
  const auto serve1 = jaccx::prof::aggregate_serve();
  end_prof_window();
  trace().enable(false);
  const double ops = static_cast<double>(pr.attempted);
  add_window_layers(r, before, after, kernels, ops, sum(pr.run_ms) * 1e3,
                    window);
  std::vector<double> waits_us;
  for (const auto& sp : trace().spans()) {
    if (std::string_view(sp.name) == "future::get") {
      waits_us.push_back(static_cast<double>(sp.t1 - sp.t0) * 1e-3);
    }
  }
  r.add_layer("async.future_wait_us_p99", percentile(waits_us, 99.0), "us");
  r.add_layer("serve.queue_wait_ms_p50", median(pr.wait_ms), "ms");
  r.add_layer("serve.queue_wait_ms_p99", percentile(pr.wait_ms, 99.0), "ms");
  r.add_layer("serve.run_ms_p50", median(pr.run_ms), "ms");
  double busy = 0.0;
  for (const auto& sl : serve1.slots) {
    busy += sl.busy_us;
  }
  for (const auto& sl : serve0.slots) {
    busy -= sl.busy_us;
  }
  r.add_layer("serve.slot_busy_frac",
              busy / (static_cast<double>(serve1.slots.size()) * window * 1e6),
              "frac");
  r.add_layer("serve.deferred_frac", static_cast<double>(pr.deferred) / ops,
              "frac");
  r.add_layer("serve.rejected", static_cast<double>(pr.rejected), "count");
  r.add_layer("serve.gen_late_ms_p99", percentile(pr.late_ms, 99.0), "ms");
  r.add_layer("serve.backlog_max", pr.backlog.max, "count");
  r.add_layer("trace.overhead_frac",
              median(pr.latency_ms) / median(plain.latency_ms) - 1.0, "frac");
  finish_trace(a, r);
}

} // namespace perfbench
