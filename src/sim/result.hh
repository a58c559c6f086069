/**
 * @file
 * Results of one simulated run.
 */

#ifndef HSCD_SIM_RESULT_HH
#define HSCD_SIM_RESULT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/abort.hh"
#include "mem/coherence.hh"
#include "mem/counters.hh"

namespace hscd {
namespace sim {

/** A read observed a value other than the last one written before it. */
struct OracleViolation
{
    Addr addr = 0;
    hir::RefId ref = hir::invalidRef;
    mem::ValueStamp seen = 0;
    mem::ValueStamp expected = 0;
    EpochId epoch = 0;
    ProcId proc = 0;

    bool operator==(const OracleViolation &) const = default;
};

/**
 * A cache hit observed a value older than the word's freshest write
 * (shadow-epoch race detector, MachineConfig::shadowEpochCheck).
 */
struct ShadowViolation
{
    Addr addr = 0;
    hir::RefId ref = hir::invalidRef;
    ProcId proc = 0;          ///< the reader that hit a stale copy
    EpochId epoch = 0;        ///< epoch of the stale hit
    ProcId writerProc = 0;    ///< who produced the freshest value
    EpochId writerEpoch = 0;  ///< the epoch it was produced in

    bool operator==(const ShadowViolation &) const = default;
};

struct RunResult
{
    /** The counter schema's scalars (mem/counters.hh), in schema order. */
#define HSCD_RESULT_MEMBER(type, member, ...) type member = 0;
    HSCD_RESULT_FIELDS(HSCD_RESULT_MEMBER, HSCD_RESULT_MEMBER)
#undef HSCD_RESULT_MEMBER

    /** busyMax / busyAvg: 1.0 means perfectly balanced DOALLs. */
    double
    imbalance() const
    {
        return busyAvg > 0 ? double(busyMax) / busyAvg : 1.0;
    }

    std::vector<OracleViolation> firstViolations;

    /** Stale cache hits caught by the shadow-epoch race detector
     *  (always 0 unless MachineConfig::shadowEpochCheck is on). */
    Counter shadowViolations = 0;
    std::vector<ShadowViolation> firstShadowViolations;

    /**
     * Structured termination record. kind == None means the run
     * completed; anything else means it was stopped by the watchdog or
     * the protocol retry budget, with counters harvested up to the point
     * of death and a post-mortem snapshot in abort.snapshot. Aborted
     * results are first-class: the sweep records them instead of dying.
     */
    fault::AbortInfo abort;
    bool aborted() const { return abort.aborted(); }

    /** Fault-injection accounting (all 0 when the plan is disabled). */
    Counter faultsInjected = 0;
    Counter faultsRecovered = 0;
    Counter faultRetries = 0;

    /** Unnecessary coherence misses (conservative + false sharing). */
    Counter
    unnecessaryMisses() const
    {
        return missConservative + missFalseShare;
    }

    std::string summary() const;

    /**
     * Field-by-field equality; the determinism contract of the sweep
     * engine is that a cell's RunResult compares equal at any --jobs.
     */
    bool operator==(const RunResult &) const = default;

    /** FNV-1a digest over every field (doubles by bit pattern). */
    std::uint64_t fingerprint() const;
};

/**
 * Copy each scheme counter into the same-named member of @p row (a
 * RunResult or an obs::MetricSample); counters @p row has no member
 * for are skipped.
 */
template <class Row>
void
copySchemeCounters(Row &row, const mem::SchemeStats &st)
{
#define HSCD_COPY_COUNTER(type, member, ...)                                 \
    if constexpr (requires { row.member = st.member; })                      \
        row.member = st.member;
    HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_COPY_COUNTER)
    HSCD_SCHEME_ONLY_STATS(HSCD_COPY_COUNTER)
#undef HSCD_COPY_COUNTER
}

/**
 * Call fn(key, field) on each schema scalar of @p r, in schema order.
 * @p r is a RunResult, const to read the fields or not to write them.
 */
template <class Result, class Fn>
void
forEachScalar(Result &r, Fn &&fn)
{
#define HSCD_RESULT_VISIT(type, member, key, desc) fn(key, r.member);
    HSCD_RESULT_FIELDS(HSCD_RESULT_VISIT, HSCD_RESULT_VISIT)
#undef HSCD_RESULT_VISIT
}

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_RESULT_HH
