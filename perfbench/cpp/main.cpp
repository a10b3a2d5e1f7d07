// perfbench: the repository benchmark binary.
//
//   perfbench --workload <hpccg_small|lbm_large|serve_open|sim_gpu>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--out-dir <dir>] [--commit <id>]
//
// Prints the run configuration and every metric as "# ..." lines, then, as
// the last line, one JSON object {correct, attempted, failed, metrics}:
// the end-to-end metrics with --trace 0, the per-layer metrics with
// --trace 1.  Exits 1 when any result check failed.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <thread>

#include "layers.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using perfbench::metric;
using perfbench::report;
using perfbench::run_args;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--commit <id>]\n",
               why);
  std::exit(2);
}

run_args parse(int argc, char** argv) {
  run_args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      usage(("missing value for " + key).c_str());
    }
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (!(a.seconds > 0.0 && a.seconds <= 600.0)) {
        usage("--seconds must be in (0, 600]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") {
        usage("--trace must be 0 or 1");
      }
      a.trace = val == "1";
    } else if (key == "--out-dir") {
      a.out_dir = val;
    } else if (key == "--commit") {
      a.commit = val;
    } else {
      usage(("unknown option " + key).c_str());
    }
    if (end != nullptr && *end != '\0') {
      usage(("bad number for " + key).c_str());
    }
  }
  if (!have_workload) {
    usage("--workload is required");
  }
  return a;
}

/// The benchmark measures the program's defaults: the only JACC_* variable
/// it tolerates is the worker cap the wrapper sets.
void require_clean_env() {
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "JACC_", 5) == 0 &&
        std::strncmp(*e, "JACC_NUM_THREADS=", 17) != 0) {
      std::fprintf(stderr, "perfbench: stray %s (run through run.py)\n", *e);
      std::exit(2);
    }
  }
}

void record_config(const run_args& a, report& r) {
  r.note("workload", a.workload);
  r.note("seed", std::to_string(a.seed));
  r.note("commit", a.commit);
  r.note("mode", a.trace ? "traced" : "untraced");
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  perfbench::note_bytes(r, "llc", perfbench::llc_bytes());
}

void print_metrics(const char* kind, const std::vector<metric>& ms) {
  for (const auto& m : ms) {
    std::printf("# %-6s %-38s %.6g %s\n", kind, m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c;
  }
  return out;
}

} // namespace

int main(int argc, char** argv) {
  const run_args a = parse(argc, argv);
  require_clean_env();
  report r;
  record_config(a, r);
  try {
    if (a.workload == "hpccg_small") {
      perfbench::run_hpccg_small(a, r);
    } else if (a.workload == "lbm_large") {
      perfbench::run_lbm_large(a, r);
    } else if (a.workload == "serve_open") {
      perfbench::run_serve_open(a, r);
    } else if (a.workload == "sim_gpu") {
      perfbench::run_sim_gpu(a, r);
    } else {
      usage(("unknown workload " + a.workload).c_str());
    }
    if (a.trace) {
      perfbench::complete_layers(r);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  for (const auto& [k, v] : r.config) {
    std::printf("# config %-22s %s\n", k.c_str(), v.c_str());
  }
  print_metrics("e2e", r.e2e);
  print_metrics("layer", r.layer);
  print_metrics("info", r.extra);
  for (const auto& msg : r.checks.messages()) {
    std::printf("# FAIL %s\n", msg.c_str());
  }

  const auto& scored = a.trace ? r.layer : r.e2e;
  bool finite = true;
  std::string metrics;
  char buf[64];
  for (const auto& m : scored) {
    finite = finite && std::isfinite(m.value);
    std::snprintf(buf, sizeof buf, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    metrics += (metrics.empty() ? "" : ", ") + std::string("\"") +
               json_escape(m.name) + "\": {\"value\": " + buf +
               ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  const bool correct =
      finite && r.checks.failed() == 0 && r.checks.attempted() > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.checks.attempted()),
              static_cast<unsigned long long>(r.checks.failed()),
              metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
