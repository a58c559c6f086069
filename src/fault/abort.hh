/**
 * @file
 * Structured run termination for unrecoverable faults.
 *
 * When retries are exhausted or the watchdog trips, the simulation must
 * stop with a diagnosis instead of spinning or dying on an assert. Sites
 * throw RunAbort; the executor catches it at the top of the dispatch
 * loop, attaches a post-mortem snapshot, and returns a RunResult whose
 * outcome is Abort. Callers (harness, sweep, the R1 campaign) treat that
 * as a first-class result: detected failure, never a silently wrong
 * answer.
 */

#ifndef HSCD_FAULT_ABORT_HH
#define HSCD_FAULT_ABORT_HH

#include <cstdint>
#include <stdexcept>
#include <string>

namespace hscd {
namespace fault {

enum class AbortKind : std::uint8_t
{
    None,      ///< Run completed normally.
    Protocol,  ///< Reliable delivery exhausted its retry budget.
    Watchdog,  ///< No forward progress for watchdogStallOps merge steps.
    Deadlock,  ///< Processors parked on flags that can never post.
    ClockLimit, ///< A clock passed the executor's ready-queue time limit.
};

const char *abortKindName(AbortKind k);

/** Post-mortem record embedded in RunResult. */
struct AbortInfo
{
    AbortKind kind = AbortKind::None;
    /** One-line diagnosis from the throwing site. */
    std::string reason;
    /** Machine state at the point of death. */
    std::uint64_t cycle = 0;
    std::uint64_t epoch = 0;
    std::uint32_t proc = 0;
    /** Multi-line snapshot: per-proc times, parked set, scheme state. */
    std::string snapshot;

    bool aborted() const { return kind != AbortKind::None; }

    bool operator==(const AbortInfo &) const = default;
};

/** Thrown by fault sites; caught by the executor, never escapes run(). */
struct RunAbort : std::runtime_error
{
    explicit RunAbort(AbortInfo info_)
        : std::runtime_error(info_.reason), info(std::move(info_))
    {}

    AbortInfo info;
};

} // namespace fault
} // namespace hscd

#endif // HSCD_FAULT_ABORT_HH
