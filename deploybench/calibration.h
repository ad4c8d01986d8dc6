#ifndef CDPIPE_DEPLOYBENCH_CALIBRATION_H_
#define CDPIPE_DEPLOYBENCH_CALIBRATION_H_

#include <cstddef>

namespace cdpipe {
namespace deploybench {

/// Wall seconds one fixed pass of benchmark-owned work takes right now,
/// run on `threads` threads at once (each does the whole pass).
///
/// The pass imitates the deployment loop's mix (small allocations, string
/// hashing into a 4096-slot weight vector, a logistic update) but calls no
/// cdpipe code, so a change to the program never changes it.  On a shared
/// host the machine's speed drifts by up to 40% over minutes; timed next to
/// each repetition, the pass measures that drift (see README.md).
double CalibrationSeconds(size_t threads);

/// Seconds the pass takes on the reference machine; wall times are scaled
/// to it ("reference seconds").
inline constexpr double kReferenceCalibrationSeconds = 0.02;

}  // namespace deploybench
}  // namespace cdpipe

#endif  // CDPIPE_DEPLOYBENCH_CALIBRATION_H_
