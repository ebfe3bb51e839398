#include "bench.hpp"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>

namespace xfcbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

std::string machine_fingerprint() {
  std::string cpu = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) cpu = line.substr(colon + 2);
      break;
    }
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "{\"cpu\": \"%s\", \"nproc\": %ld, \"loadavg\": [%.2f, %.2f, "
                "%.2f]}",
                json_escape(cpu).c_str(), sysconf(_SC_NPROCESSORS_ONLN),
                load[0], load[1], load[2]);
  return buf;
}

double host_steal_s() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double ticks[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  stat >> cpu;
  for (double& t : ticks) stat >> t;
  if (!stat || cpu != "cpu") return 0;
  return ticks[7] / static_cast<double>(sysconf(_SC_CLK_TCK));
}

std::vector<std::size_t> calmer_half(const std::vector<double>& steal_rate) {
  std::vector<std::size_t> idx(steal_rate.size());
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](std::size_t a, std::size_t b) {
    return steal_rate[a] < steal_rate[b];
  });
  idx.resize((idx.size() + 1) / 2);
  return idx;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return quantile_sorted(v, 0.5);
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double admissible_error(double abs_eb, float x, float x_hat) {
  const float mag = std::max(std::fabs(x), std::fabs(x_hat));
  const float ulp =
      std::nextafter(mag, std::numeric_limits<float>::infinity()) - mag;
  return abs_eb + static_cast<double>(ulp);
}

std::uint64_t ErrorAccumulator::add(const float* original,
                                    const float* reconstructed, std::size_t n,
                                    double abs_eb) {
  // Four independent sums keep the loop from waiting on one add chain; the
  // rare values past abs_eb get the ulp allowance in a second pass.
  double sq[4] = {0, 0, 0, 0};
  std::uint64_t over = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double err = static_cast<double>(reconstructed[i]) -
                       static_cast<double>(original[i]);
    sq[i % 4] += err * err;
    // NaN-safe: a NaN reconstruction fails the comparison and counts.
    over += !(std::fabs(err) <= abs_eb);
  }
  std::uint64_t bad = 0;
  for (std::size_t i = 0; over != 0 && i < n; ++i) {
    const double err = static_cast<double>(reconstructed[i]) -
                       static_cast<double>(original[i]);
    if (!(std::fabs(err) <=
          admissible_error(abs_eb, original[i], reconstructed[i])))
      ++bad;
  }
  sum_sq += (sq[0] + sq[1]) + (sq[2] + sq[3]);
  count += n;
  violations += bad;
  return bad;
}

double ErrorAccumulator::psnr_db(double range) const {
  if (count == 0) return 0.0;
  const double mse = sum_sq / static_cast<double>(count);
  if (mse <= 0.0) return std::numeric_limits<double>::infinity();
  return 20.0 * std::log10(range) - 10.0 * std::log10(mse);
}

}  // namespace xfcbench
