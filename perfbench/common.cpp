#include "common.hpp"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <numeric>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Value of the `key:` line of /proc/<pid>/status (0 when absent).
double status_field(int pid, const std::string& key) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : format("/proc/%d/status", pid);
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + ":", 0) == 0) {
      return std::strtod(line.c_str() + key.size() + 1, nullptr);
    }
  }
  return 0.0;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * double(values.size())));
  const std::size_t index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(), values.begin() + std::ptrdiff_t(index),
                   values.end());
  return values[index];
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         double(values.size());
}

double proc_cpu_s(int pid) {
  std::ifstream in(format("/proc/%d/stat", pid));
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int i = 3; i <= 15 && (fields >> field); ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / double(sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(int pid) { return status_field(pid, "VmHWM") / 1024.0; }

int proc_threads(int pid) {
  return static_cast<int>(status_field(pid, "Threads"));
}

std::pair<double, double> host_steal_jiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  double steal = 0.0;
  double total = 0.0;
  for (int i = 0; i < 8; ++i) {
    double value = 0.0;
    if (!(in >> value)) break;
    total += value;
    if (i == 7) steal = value;
  }
  return {steal, total};
}

std::uint64_t next_random(std::uint64_t* state) {
  std::uint64_t z = (*state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Mean of the observations histogram `name` took between two snapshots.
double histogram_mean(const pcn::obs::MetricsSnapshot& from,
                      const pcn::obs::MetricsSnapshot& to, const char* name) {
  const pcn::obs::HistogramSample* a = from.find_histogram(name);
  const pcn::obs::HistogramSample* b = to.find_histogram(name);
  if (a == nullptr || b == nullptr || b->count == a->count) return 0.0;
  return (b->sum - a->sum) / double(b->count - a->count);
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) check(false, name + " is not finite");
  metrics_[name] = Value{value, unit};
}

void Report::check(bool ok, const std::string& what) {
  notes_.push_back(std::string(ok ? "check ok: " : "CHECK FAILED: ") + what);
  if (!ok) correct_ = false;
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  for (const auto& [name, value] : metrics_) {
    std::printf("# %-34s %.6g %s\n", name.c_str(), value.value,
                value.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct_ ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed));
  bool first = true;
  for (const auto& [name, value] : metrics_) {
    // JSON has no infinity; a non-finite value already failed a check.
    const double v = std::isfinite(value.value) ? value.value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, value.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace perfbench
