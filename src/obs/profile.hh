/**
 * @file
 * Wall-clock and memory probes for measuring the simulator itself
 * (simbench's per-layer spans and end-to-end metrics).
 */

#ifndef HSCD_OBS_PROFILE_HH
#define HSCD_OBS_PROFILE_HH

#include <cstdint>

namespace hscd {
namespace obs {

/** Milliseconds from a monotonic clock. */
double nowMs();

/** Peak RSS of this process in KiB (0 where unsupported). */
std::uint64_t currentRssPeakKb();

} // namespace obs
} // namespace hscd

#endif // HSCD_OBS_PROFILE_HH
