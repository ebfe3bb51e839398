// xfcbench: the xfc benchmark program.
//
//   xfcbench --workload snapshot|serve_warm|serve_mixed --seed N
//            --seconds S --trace 0|1 --workdir DIR
//
// Prints a human-readable summary (lines starting with '#'), then, as the
// last line of stdout, one JSON object {correct, attempted, failed,
// metrics}: every end-to-end metric with --trace 0, every per-layer metric
// with --trace 1. Spans of a traced run are written to
// DIR/trace-<workload>-<seed>.jsonl. See ../README.md.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace xfcbench;

int usage() {
  std::fprintf(stderr,
               "usage: xfcbench --workload snapshot|serve_warm|serve_mixed "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n");
  return 2;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") opt.workload = value;
    else if (key == "--seed") opt.seed = std::stoull(value);
    else if (key == "--seconds") opt.seconds = std::stod(value);
    else if (key == "--trace") opt.trace = value != "0";
    else if (key == "--workdir") opt.workdir = value;
    else return false;
  }
  return argc % 2 == 1 && !opt.workload.empty() && !opt.workdir.empty() &&
         opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) return usage();
  } catch (const std::exception&) {
    return usage();
  }
  std::printf("# machine %s\n", machine_fingerprint().c_str());
  std::fflush(stdout);
  std::filesystem::create_directories(opt.workdir);

  const double steal0 = host_steal_s();
  const std::int64_t t0 = now_ns();
  Result res;
  try {
    if (opt.workload == "snapshot") res = run_snapshot(opt);
    else if (opt.workload == "serve_warm") res = run_serve_warm(opt);
    else if (opt.workload == "serve_mixed") res = run_serve_mixed(opt);
    else return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xfcbench: %s: %s\n", opt.workload.c_str(), e.what());
    return 1;
  }

  std::printf("# host steal during the run: %.1f CPU-s in %.1f s\n",
              host_steal_s() - steal0, ns_to_s(now_ns() - t0));

  std::map<std::string, Metric> got;
  for (const Metric& m : res.metrics) got[m.name] = m;
  const auto& catalog = opt.trace ? per_layer_catalog() : end_to_end_catalog();
  std::string metrics;
  for (const auto& [name, unit] : catalog) {
    double value = 0;  // a layer this workload does not exercise
    const auto it = got.find(name);
    if (it != got.end()) {
      if (it->second.unit != unit) {
        std::fprintf(stderr, "xfcbench: %s reported in %s, catalogue says %s\n",
                     name.c_str(), it->second.unit.c_str(), unit.c_str());
        return 1;
      }
      value = it->second.value;
    } else if (!opt.trace) {
      std::fprintf(stderr, "xfcbench: %s did not measure %s\n",
                   opt.workload.c_str(), name.c_str());
      return 1;
    }
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "xfcbench: %s is not finite\n", name.c_str());
      return 1;
    }
    std::printf("# %-36s %24.6f %s\n", name.c_str(), value, unit.c_str());
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", name.c_str(), value,
                  unit.c_str());
    metrics += buf;
  }

  if (opt.trace) {
    const std::string path = opt.workdir + "/trace-" + opt.workload + "-" +
                             std::to_string(opt.seed) + ".jsonl";
    if (!Tracer::instance().write_jsonl(path))
      std::fprintf(stderr, "warning: could not write %s\n", path.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed), metrics.c_str());
  return 0;
}
