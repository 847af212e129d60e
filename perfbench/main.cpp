// perfbench — the repository benchmark binary (run through run.py).
//
//   perfbench --workload {socket_serve|daemon_overload|sim_fleet}
//             --seed N --seconds N --trace {0|1} --pcnd PATH [--knee]
//
// Prints human-readable `# ...` lines, then one JSON line with every
// metric the workload measured.  Exit status 1 when a correctness check
// failed (the JSON then says "correct": false), 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--knee") {
      options.knee = true;
    } else if (flag == "--workload" && has_value) {
      options.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (flag == "--trace" && has_value) {
      options.trace = std::string(argv[++i]) == "1";
    } else if (flag == "--pcnd" && has_value) {
      options.pcnd = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", flag.c_str());
      return 2;
    }
  }
  if (options.seconds < 1) {
    std::fprintf(stderr, "perfbench: --seconds must be >= 1\n");
    return 2;
  }

  using RunFn = int (*)(const perfbench::Options&, perfbench::Report*);
  RunFn run = nullptr;
  if (options.workload == "socket_serve") {
    run = perfbench::run_socket_serve;
  } else if (options.workload == "daemon_overload") {
    run = perfbench::run_daemon_overload;
  } else if (options.workload == "sim_fleet") {
    run = perfbench::run_sim_fleet;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }

  perfbench::Report report;
  report.note(perfbench::format(
      "workload=%s seed=%llu seconds=%d trace=%d", options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.seconds,
      options.trace ? 1 : 0));
  const auto before = perfbench::host_steal_jiffies();
  try {
    if (const int status = run(options, &report); status != 0) return status;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
  const auto after = perfbench::host_steal_jiffies();
  const double total = after.second - before.second;
  report.metric("host.steal_pct",
                total > 0.0 ? 100.0 * (after.first - before.first) / total : 0.0,
                "%");
  report.print();
  return report.correct() ? 0 : 1;
}
