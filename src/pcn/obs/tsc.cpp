#include "pcn/obs/tsc.hpp"

#include <chrono>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#include <x86intrin.h>
#endif

#include "pcn/obs/metrics.hpp"

namespace pcn::obs {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t serialized_tsc() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned aux = 0;
  const std::uint64_t t = __rdtscp(&aux);  // waits for prior instructions
  _mm_lfence();                            // ...and fences the later ones out
  return t;
#else
  return static_cast<std::uint64_t>(monotonic_ns());
#endif
}

double tsc_ticks_per_ns() {
#if defined(__x86_64__) || defined(__i386__)
  // Calibrate once against the steady clock: a 2 ms window keeps the
  // first-use cost negligible while the quantization error (one clock
  // read, tens of ns) stays under 0.01%.
  static const double ratio = [] {
    const std::int64_t start_ns = monotonic_ns();
    const std::uint64_t start_tsc = serialized_tsc();
    std::int64_t now_ns = start_ns;
    while (now_ns - start_ns < 2'000'000) now_ns = monotonic_ns();
    const std::uint64_t end_tsc = serialized_tsc();
    return static_cast<double>(end_tsc - start_tsc) /
           static_cast<double>(now_ns - start_ns);
  }();
  return ratio;
#else
  return 1.0;  // ticks are nanoseconds
#endif
}

std::vector<double> phase_us_buckets() {
  return exponential_buckets(1.0, 2.0, 20);
}

}  // namespace pcn::obs
