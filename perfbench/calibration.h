#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Machine-speed calibration. The host a run lands on drifts in speed by
/// 10-30% over seconds to minutes (shared cores), far more than the
/// bounds the end-to-end metrics are judged by. Every run therefore times
/// a fixed unit of CPU work that shares no code with the system under
/// test — fill a 128 KiB array with splitmix64, sort it — on the same
/// threads and in the same moments as the work it calibrates, and scales
/// its CPU-bound wall times to what they would have been on a host where
/// the unit takes kCalibReferenceNs.
///
/// Runs one calibration unit and returns its wall time.
uint64_t CalibrationUnitNs();

/// Median unit time of the 4-core Xeon (AES-NI, SHA-NI) the benchmark was
/// defined on.
inline constexpr uint64_t kCalibReferenceNs = 2'200'000;

/// Factor that scales a wall time measured alongside `units` to reference
/// speed: kCalibReferenceNs / median(units); 1 when `units` is empty.
/// Rates scale by its inverse.
double TimeScale(std::vector<uint64_t> units);

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
