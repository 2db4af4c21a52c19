#include "calibration.h"

#include <algorithm>
#include <atomic>

#include "common/clock.h"
#include "workloads.h"

namespace perfbench {

namespace {
constexpr size_t kCalibWords = 32 * 1024;
}  // namespace

uint64_t CalibrationUnitNs() {
  thread_local std::vector<uint32_t> buf(kCalibWords);
  // The sorted median leaves the unit, so the work cannot be elided.
  static std::atomic<uint32_t> sink{0};
  const uint64_t t0 = csxa::NowNs();
  Rng rng{0x243F6A8885A308D3ULL};
  for (uint32_t& w : buf) w = static_cast<uint32_t>(rng.Next() >> 32);
  std::sort(buf.begin(), buf.end());
  const uint64_t dt = csxa::NowNs() - t0;
  sink.fetch_xor(buf[kCalibWords / 2], std::memory_order_relaxed);
  return dt;
}

double TimeScale(std::vector<uint64_t> units) {
  if (units.empty()) return 1.0;
  std::sort(units.begin(), units.end());
  return static_cast<double>(kCalibReferenceNs) /
         static_cast<double>(units[units.size() / 2]);
}

}  // namespace perfbench
