// Shared plumbing for the perfbench workloads: options, clocks, sample
// statistics, /proc readers and the result record the binary prints.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "pcn/obs/metrics.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Path of the pcnd binary (socket_serve spawns it).
  std::string pcnd;
  /// socket_serve only: step the offered rate instead of one fixed run.
  bool knee = false;
};

/// Monotonic wall clock.
std::int64_t now_ns();
/// CPU time of this process / of the calling thread.
double process_cpu_s();
double thread_cpu_s();

/// Nearest-rank quantile (q in [0, 1]) of `values`; 0 when empty.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
double mean(const std::vector<double>& values);

/// utime + stime of process `pid` from /proc/<pid>/stat, in seconds.
double proc_cpu_s(int pid);
/// VmHWM (peak resident set) of `pid` (0 = this process), in MiB.
double proc_peak_rss_mb(int pid);
/// Thread count of `pid` from /proc/<pid>/status.
int proc_threads(int pid);

/// Cumulative (steal, total) CPU jiffies of the machine from /proc/stat:
/// steal is time the hypervisor ran something else on this machine's CPUs.
std::pair<double, double> host_steal_jiffies();

/// splitmix64 step: the benchmark's own input generator (the program
/// under test only ever sees the frames and configs made from it).
std::uint64_t next_random(std::uint64_t* state);

/// What one run measured.  Metrics are keyed by name with their unit;
/// run.py selects the ones BENCHMARK.json lists.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed check fails the run.
  void check(bool ok, const std::string& what);
  /// Human-readable line, printed before the result.
  void note(const std::string& line);

  bool correct() const { return correct_; }
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// Prints the notes, then the result as one JSON line.
  void print() const;

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> notes_;
  bool correct_ = true;
};

/// Mean of the observations registry histogram `name` took between two
/// snapshots (0 when it took none).
double histogram_mean(const pcn::obs::MetricsSnapshot& from,
                      const pcn::obs::MetricsSnapshot& to, const char* name);

/// printf-style std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

int run_socket_serve(const Options& options, Report* report);
int run_daemon_overload(const Options& options, Report* report);
int run_sim_fleet(const Options& options, Report* report);

}  // namespace perfbench
