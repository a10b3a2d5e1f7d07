// HARVEY-style lattice-Boltzmann demo (paper Sec. V-B): an acoustic
// pressure pulse expanding in a closed box, computed with the D2Q9 pull
// update of the paper's Fig. 10 through one JACC multidimensional
// parallel_for per step.  lbm::simulation runs the register-fused form of
// that kernel over two lattices; its results are bit-identical to the
// paper's scratch-lattice listing.
//
//   ./lbm_pulse [size=96] [steps=60]
//   JACC_BACKEND=cuda ./lbm_pulse 256 100
//
// Prints mass conservation and a coarse ASCII rendering of the density
// field as the wave propagates, and (on a simulated backend) a device-time
// account plus a Chrome trace.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "lbm/simulation.hpp"

int main(int argc, char** argv) {
  using jacc::index_t;
  jacc::initialize();

  const index_t size = argc > 1 ? std::atoll(argv[1]) : 96;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 60;
  if (size < 8 || steps < 1) {
    std::fprintf(stderr, "usage: %s [size>=8] [steps>=1]\n", argv[0]);
    return 1;
  }

  std::printf("LBM D2Q9 pull, %lldx%lld lattice, %d steps, backend %s\n",
              static_cast<long long>(size), static_cast<long long>(size),
              steps, std::string(jacc::to_string(jacc::current_backend()))
                         .c_str());

  jaccx::lbm::simulation sim(
      jaccx::lbm::params{.size = size, .tau = 0.8});
  sim.init_pulse(1.0, 0.25, 0.07);
  const double mass0 = sim.total_mass();

  const auto render = [&](int step) {
    const auto m = sim.macroscopics();
    std::printf("--- step %d: density field (x = sampled rows) ---\n", step);
    const index_t stride = size / 24 > 0 ? size / 24 : 1;
    for (index_t x = 0; x < size; x += stride) {
      std::string line;
      for (index_t y = 0; y < size; y += stride) {
        const double d =
            m.density[static_cast<std::size_t>(x * size + y)] - 1.0;
        const char* shades = " .:-=+*#%@";
        int level = static_cast<int>(d * 40.0);
        level = level < 0 ? 0 : (level > 9 ? 9 : level);
        line.push_back(shades[level]);
      }
      std::puts(line.c_str());
    }
  };

  render(0);
  const int checkpoints = 3;
  for (int c = 1; c <= checkpoints; ++c) {
    sim.run(steps / checkpoints);
    render(sim.steps_taken());
  }

  const double mass1 = sim.total_mass();
  std::printf("mass: %.6f -> %.6f (drift %.2e relative)\n", mass0, mass1,
              (mass1 - mass0) / mass0);

  if (auto* dev = jacc::backend_device(jacc::current_backend())) {
    std::printf("simulated %s time: %.1f us over %zu events\n",
                dev->model().name.c_str(), dev->tl().now_us(),
                dev->tl().event_count());
    std::ofstream trace("lbm_pulse_trace.json");
    trace << dev->tl().to_chrome_trace();
    std::puts("wrote lbm_pulse_trace.json (chrome://tracing / Perfetto)");
  }
  return 0;
}
