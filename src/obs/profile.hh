/**
 * @file
 * Self-profiling: scoped wall-clock probes around the compile ->
 * Machine construction -> stream-build -> execute phases plus a
 * peak-RSS sample, so a throughput regression is attributable to a
 * phase.
 *
 * PhaseProfile rides inside RunResult. Wall-clock times are
 * nondeterministic, so the struct is deliberately invisible to the
 * determinism contract: operator== always returns true, and it is
 * excluded from RunResult::fingerprint() and the sweep journal (a
 * resumed cell reports a zero profile).
 */

#ifndef HSCD_OBS_PROFILE_HH
#define HSCD_OBS_PROFILE_HH

#include <cstdint>
#include <string>

namespace hscd {
namespace obs {

struct PhaseProfile
{
    double compileMs = 0;   ///< HIR build + marking analysis
    double scheduleMs = 0;  ///< Machine construction (bench harness)
    double streamMs = 0;    ///< epoch-stream program build (fast path)
    double execMs = 0;      ///< simulation proper
    std::uint64_t rssPeakKb = 0;  ///< ru_maxrss at end of run

    bool any() const
    {
        return compileMs != 0 || scheduleMs != 0 || streamMs != 0 ||
               execMs != 0 || rssPeakKb != 0;
    }

    /** Render as a one-line JSON object. */
    std::string json() const;

    /**
     * Always equal: profiles are wall-clock noise and must not perturb
     * RunResult's defaulted equality (fastpath-equivalence and
     * determinism suites compare RunResults directly).
     */
    bool operator==(const PhaseProfile &) const { return true; }
};

/** Milliseconds from a monotonic clock. */
double nowMs();

/** Peak RSS of this process in KiB (0 where unsupported). */
std::uint64_t currentRssPeakKb();

/** Scoped timer: adds the elapsed wall time to *slot on destruction.
 *  A null slot makes the probe a no-op (the disabled path). */
class PhaseTimer
{
  public:
    explicit PhaseTimer(double *slot)
        : _slot(slot), _start(slot ? nowMs() : 0) {}
    ~PhaseTimer()
    {
        if (_slot)
            *_slot += nowMs() - _start;
    }
    PhaseTimer(const PhaseTimer &) = delete;
    PhaseTimer &operator=(const PhaseTimer &) = delete;

  private:
    double *_slot;
    double _start;
};

} // namespace obs
} // namespace hscd

#endif // HSCD_OBS_PROFILE_HH
