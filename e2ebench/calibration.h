#ifndef COMMSIG_E2EBENCH_CALIBRATION_H_
#define COMMSIG_E2EBENCH_CALIBRATION_H_

// The host-speed probe the end-to-end times are normalised by. It is
// compiled with fixed flags of its own (see CMakeLists.txt), so a change to
// the library's build flags moves the passes it measures but never the
// probe.

namespace commsig::e2e {

/// Milliseconds one run of a fixed loop takes: an LCG fill, a sort and
/// scattered reads over 2 MiB, i.e. integer, branchy and cache-bound work
/// like the passes themselves, touching no library code. The first call
/// runs the loop once untimed before timing it, so page faults and cold
/// caches stay out of every figure.
double CalibrationMs();

}  // namespace commsig::e2e

#endif  // COMMSIG_E2EBENCH_CALIBRATION_H_
