#ifndef XFCBENCH_BENCH_HPP
#define XFCBENCH_BENCH_HPP

/// Shared plumbing of the xfc benchmark program: options, clocks, order
/// statistics, the result line, bound checks and the machine fingerprint.
/// The workloads live in snapshot.cpp and serve.cpp; spans and the
/// per-layer ledger in trace.hpp.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace xfcbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;  // working files (archives, span dumps)
};

/// One metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload hands back to main(): the result-line fields plus the
/// metrics of the mode it ran in (end-to-end or per-layer).
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

Result run_snapshot(const Options& opt);
Result run_serve_warm(const Options& opt);
Result run_serve_mixed(const Options& opt);

// -- clocks -----------------------------------------------------------------

/// Monotonic wall clock, nanoseconds.
std::int64_t now_ns();
/// Process CPU time (all threads), nanoseconds.
std::int64_t cpu_ns();
inline double ns_to_s(std::int64_t ns) {
  return static_cast<double>(ns) * 1e-9;
}

/// Peak resident set size of this process so far, in MB (1e6 bytes).
double peak_rss_mb();

/// CPU model, online CPU count and load average at the time of the call, as
/// one JSON object.
std::string machine_fingerprint();

/// CPU time the hypervisor gave other guests instead of this machine, summed
/// over all CPUs since boot, in seconds (the steal column of /proc/stat; 0
/// where it cannot be read).
double host_steal_s();

/// Indices of the calmer half (rounded up) of a run's measurement intervals,
/// ranked by the host steal per second measured over each (`steal_rate`);
/// ties keep their order. Figures over these intervals leave out the
/// stretches in which other guests on the host took this machine's CPUs.
std::vector<std::size_t> calmer_half(const std::vector<double>& steal_rate);

// -- order statistics -------------------------------------------------------

double median(std::vector<double> v);
/// Linear-interpolated quantile of an already sorted sample (q in [0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q);

// -- output checks ----------------------------------------------------------

/// Largest admissible |x - x'| for a value reconstructed under absolute
/// bound `abs_eb`: the bound itself plus one float32 ulp of the larger
/// magnitude. The codecs quantize in double and round the reconstruction
/// to float32, which can overshoot the bound by that one rounding step.
double admissible_error(double abs_eb, float x, float x_hat);

/// Running per-field error summary for the bound check and PSNR.
struct ErrorAccumulator {
  double sum_sq = 0.0;
  std::uint64_t count = 0;
  std::uint64_t violations = 0;

  /// Folds `n` reconstructed values against their originals; returns the
  /// number of values outside the admissible error.
  std::uint64_t add(const float* original, const float* reconstructed,
                    std::size_t n, double abs_eb);
  void merge(const ErrorAccumulator& o) {
    sum_sq += o.sum_sq;
    count += o.count;
    violations += o.violations;
  }
  /// PSNR in dB with peak = `range` (the SDRBench convention).
  double psnr_db(double range) const;
};

}  // namespace xfcbench

#endif  // XFCBENCH_BENCH_HPP
