// Fig. 11 reproduction: lattice-Boltzmann (HARVEY D2Q9 pull) time per step
// versus lattice size, device-specific vs JACC, four architectures.
//
// Summary checks the in-text Sec. V-B speedups of the same JACC code on the
// GPUs over the Rome CPU: ~14x (MI100), ~20x (A100), ~6.5x (Max 1550).
// Both series run the paper's Fig. 10 kernel; the binary exits nonzero when
// JACC and native differ by more than 5% at 512^2 on any architecture (the
// paper reports no visible overhead).
#include <cmath>
#include <cstdio>

#include "fig_common.hpp"

namespace {

using namespace jaccx::bench;

constexpr index_t edges[] = {32, 64, 128, 256, 512};
constexpr double max_overhead = 0.05; ///< |JACC / native - 1| bar at 512^2

void bench_point(benchmark::State& state, arch a, bool via_jacc,
                 index_t edge) {
  double us = 0.0;
  for (auto _ : state) {
    us = lbm_step_us(a, via_jacc, edge);
    state.SetIterationTime(us * 1e-6);
  }
  state.counters["sim_us"] = us;
}

void register_all() {
  for (const auto& a : all_archs) {
    for (bool via_jacc : {false, true}) {
      for (index_t edge : edges) {
        const std::string name = std::string("fig11/lbm/") + a.name + "/" +
                                 (via_jacc ? "jacc" : "native") + "/" +
                                 std::to_string(edge) + "x" +
                                 std::to_string(edge);
        benchmark::RegisterBenchmark(name.c_str(), [a, via_jacc, edge](benchmark::State& st) {
              bench_point(st, a, via_jacc, edge);
            })
            ->UseManualTime()
            ->Iterations(1)
            ->Unit(benchmark::kMicrosecond);
      }
    }
  }
}

/// Prints the summary and returns false when an arch misses the bar.
bool print_summary() {
  std::puts("\n=== Fig. 11 paper-parity summary (Sec. V-B) ===");
  const index_t edge = 512;
  const double cpu = lbm_step_us(all_archs[0], true, edge);
  const double paper_speedup[] = {1.0, 14.0, 20.0, 6.5};
  bool ok = true;
  for (std::size_t k = 0; k < 4; ++k) {
    const auto& a = all_archs[k];
    const double native_us = lbm_step_us(a, false, edge);
    const double jacc_us = lbm_step_us(a, true, edge);
    std::printf("%-8s %lldx%lld: native %10.1f us, JACC %10.1f us "
                "(overhead %+5.1f%%), JACC speedup vs CPU %5.1fx "
                "(paper: %.1fx)\n",
                a.name, static_cast<long long>(edge),
                static_cast<long long>(edge), native_us, jacc_us,
                (jacc_us / native_us - 1.0) * 100.0, cpu / jacc_us,
                paper_speedup[k]);
    if (!(std::abs(jacc_us / native_us - 1.0) <= max_overhead)) {
      std::printf("FAIL %s: JACC vs native overhead outside +-%.0f%%\n",
                  a.name, max_overhead * 100.0);
      ok = false;
    }
  }
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  const jaccx::bench::bench_session session("fig11_lbm");
  register_all();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return print_summary() ? 0 : 1;
}
