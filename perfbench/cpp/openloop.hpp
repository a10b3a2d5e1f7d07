// Open-loop accounting for the serving workload: a seeded Poisson arrival
// schedule, latency timed from each job's due time (so a stall also charges
// the jobs queued behind it), generator lateness, and detection of a
// backlog that keeps growing over a phase.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <random>
#include <vector>

namespace perfbench {

/// Due times (seconds from phase start) of seeded Poisson arrivals at
/// `rate` per second over [0, duration).  The count is fixed at
/// round(rate * duration) and the times are sorted uniforms — the Poisson
/// process conditioned on its count — so runs of one rate offer the same
/// number of jobs and only their spacing varies with the seed.
inline std::vector<double> poisson_arrivals(std::mt19937_64& rng, double rate,
                                            double duration) {
  const auto n = static_cast<std::size_t>(std::llround(rate * duration));
  std::uniform_real_distribution<double> u(0.0, duration);
  std::vector<double> due(n);
  for (auto& t : due) {
    t = u(rng);
  }
  std::sort(due.begin(), due.end());
  return due;
}

/// One job's timestamps, in seconds from phase start.  `done` < 0 means the
/// job never completed (failed or rejected).
struct job_times {
  double due = 0.0;
  double sent = 0.0;
  double done = -1.0;
};

/// Latency from due time to completion, in ms (negative when not done).
inline double latency_ms(const job_times& j) {
  return j.done < 0.0 ? -1.0 : (j.done - j.due) * 1e3;
}

/// How late the generator submitted the job, in ms (never negative).
inline double lateness_ms(const job_times& j) {
  return j.sent > j.due ? (j.sent - j.due) * 1e3 : 0.0;
}

struct backlog_sample {
  double t = 0.0;           ///< seconds from phase start
  double outstanding = 0.0; ///< submitted but not yet completed
};

struct backlog_verdict {
  double slope_per_s = 0.0; ///< least-squares trend of the backlog
  double growth = 0.0;      ///< slope times the sampled span, in jobs
  double mean = 0.0;
  double max = 0.0;
  bool growing = false;
};

/// A backlog grows when its least-squares trend over the phase adds more
/// jobs than both `min_jobs` and the mean backlog itself: a stable queue
/// fluctuates around its mean, an overloaded one climbs without bound.
inline backlog_verdict backlog_growth(const std::vector<backlog_sample>& s,
                                      double min_jobs = 8.0) {
  backlog_verdict v;
  const std::size_t n = s.size();
  if (n < 2) {
    return v;
  }
  double st = 0.0;
  double sb = 0.0;
  for (const auto& x : s) {
    st += x.t;
    sb += x.outstanding;
    v.max = x.outstanding > v.max ? x.outstanding : v.max;
  }
  const double mt = st / static_cast<double>(n);
  v.mean = sb / static_cast<double>(n);
  double cov = 0.0;
  double var = 0.0;
  for (const auto& x : s) {
    cov += (x.t - mt) * (x.outstanding - v.mean);
    var += (x.t - mt) * (x.t - mt);
  }
  if (var <= 0.0) {
    return v;
  }
  v.slope_per_s = cov / var;
  v.growth = v.slope_per_s * (s.back().t - s.front().t);
  v.growing = v.growth > min_jobs && v.growth > v.mean;
  return v;
}

} // namespace perfbench
