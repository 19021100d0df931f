#pragma once
// Wall-clock timing and calibrated busy-spinning.
//
// The reproduction's communication model (docs/ARCHITECTURE.md, "Modeled
// testbed and stand-ins") charges CPU time for event processing and
// message send overhead the way the paper's 1999 testbed did.  busy_spin_ns
// burns a requested number of nanoseconds of CPU without sleeping (sleeping
// would release the core and distort Time Warp dynamics at microsecond
// granularity).

#include <chrono>
#include <cstdint>

namespace pls::util {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() noexcept { reset(); }

  void reset() noexcept { start_ = clock::now(); }

  double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  std::uint64_t elapsed_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() -
                                                             start_)
            .count());
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Monotonic steady-clock "now" in nanoseconds since an arbitrary epoch.
/// The one clock every timestamp in the codebase (kernel loop deadlines,
/// trace events, metrics samples) is taken from, so they are comparable.
inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Burn approximately `ns` nanoseconds of CPU time without yielding.
/// Implemented with a calibrated arithmetic loop; calibration happens once
/// per process (thread-safe) and takes ~1 ms.
void busy_spin_ns(std::uint64_t ns) noexcept;

/// Iterations of the calibration loop per nanosecond (exposed for tests).
double spin_iters_per_ns() noexcept;

}  // namespace pls::util
