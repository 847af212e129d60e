// PCN_SIMD_ISA helpers for the engine suites: a scoped override of the
// kernel selection, and the list of kernel paths this machine can run.
#pragma once

#include <cstdlib>
#include <string>
#include <vector>

#include "pcn/sim/simd_engine.hpp"

namespace pcn::proptest {

/// Scoped PCN_SIMD_ISA override (nullptr unsets it); restores the previous
/// value on exit.  Tests using it must not run concurrently.
class ScopedIsaEnv {
 public:
  explicit ScopedIsaEnv(const char* value) {
    const char* old = std::getenv("PCN_SIMD_ISA");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("PCN_SIMD_ISA", value, 1);
    } else {
      ::unsetenv("PCN_SIMD_ISA");
    }
  }
  ~ScopedIsaEnv() {
    if (had_old_) {
      ::setenv("PCN_SIMD_ISA", old_.c_str(), 1);
    } else {
      ::unsetenv("PCN_SIMD_ISA");
    }
  }
  ScopedIsaEnv(const ScopedIsaEnv&) = delete;
  ScopedIsaEnv& operator=(const ScopedIsaEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

/// The PCN_SIMD_ISA values to exercise: the detected kernel ("avx2" where
/// available) and the portable one.
inline std::vector<const char*> simd_isa_modes() {
  const ScopedIsaEnv detect(nullptr);
  if (sim::simd_support().isa == sim::SimdIsa::kAvx2) {
    return {"avx2", "portable"};
  }
  return {"portable"};
}

}  // namespace pcn::proptest
