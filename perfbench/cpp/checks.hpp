// Result checks.  Every op the benchmark times is checked afterwards
// (outside the timed interval); a wrong result, a CG solve that did not
// converge, and a failed or rejected job all count against fail_frac.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

namespace perfbench {

/// Attempted / failed counts plus the first few failure messages.
class check_tally {
public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why, std::uint64_t n = 1) {
    failed_ += n;
    if (messages_.size() < 8) {
      messages_.push_back(why);
    }
  }
  /// Counts one attempted op, failed unless `ok`.
  void record(bool ok, const std::string& why) {
    attempt();
    if (!ok) {
      fail(why);
    }
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  double fail_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }
  const std::vector<std::string>& messages() const { return messages_; }

private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// max_i |x_i - ref_i| / max_i |ref_i|; infinite on a size mismatch or NaN.
inline double max_rel_error(std::span<const double> x,
                            std::span<const double> ref) {
  if (x.size() != ref.size()) {
    return INFINITY;
  }
  double err = 0.0;
  double scale = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = std::fabs(x[i] - ref[i]);
    if (!(d <= err)) { // also catches NaN
      err = std::isnan(d) ? INFINITY : d;
    }
    scale = std::fmax(scale, std::fabs(ref[i]));
  }
  return scale > 0.0 ? err / scale : err;
}

/// Bit-for-bit equality (distinguishes -0.0 / NaN payloads, unlike ==).
inline bool bitwise_equal(std::span<const double> a,
                          std::span<const double> b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

inline bool bitwise_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// A CG solve is right when it converged and its solution is within
/// `max_err` (relative) of the known solution.  `why` gets the reason.
inline bool check_cg(bool converged, std::span<const double> x,
                     std::span<const double> x_true, double max_err,
                     std::string* why) {
  if (!converged) {
    *why = "cg did not converge";
    return false;
  }
  const double err = max_rel_error(x, x_true);
  if (!(err <= max_err)) {
    *why = "cg max error " + std::to_string(err) + " > " +
           std::to_string(max_err);
    return false;
  }
  return true;
}

/// Relative drift of a conserved total.
inline double rel_drift(double value, double reference) {
  return std::fabs(value - reference) / std::fabs(reference);
}

/// Largest relative difference between a size x size field (index
/// x*size+y) and its mirror images across both axes and the diagonal —
/// a centred pulse on a square box keeps all three symmetries.
inline double max_asymmetry(std::span<const double> field, std::size_t size) {
  double worst = 0.0;
  double scale = 0.0;
  for (std::size_t x = 0; x < size; ++x) {
    for (std::size_t y = 0; y < size; ++y) {
      const double v = field[x * size + y];
      scale = std::fmax(scale, std::fabs(v));
      const double m[3] = {field[(size - 1 - x) * size + y],
                           field[x * size + (size - 1 - y)],
                           field[y * size + x]};
      for (const double w : m) {
        const double d = std::fabs(v - w);
        if (!(d <= worst)) {
          worst = std::isnan(d) ? INFINITY : d;
        }
      }
    }
  }
  return scale > 0.0 ? worst / scale : worst;
}

} // namespace perfbench
