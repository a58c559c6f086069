/**
 * @file
 * Memory-trace ingestion frontend.
 *
 * Replays externally captured access streams - traces from a real
 * machine, another simulator, or a hand-written scenario - through any
 * of the five coherence schemes, without an HIR program. The text
 * format is one access per line:
 *
 *     # comment (blank lines ignored)
 *     procs <P>                  # optional, before the first access
 *     <proc> <addr> <r|w> [<epoch>]
 *
 * with byte addresses (word aligned, 4 bytes) and monotone epoch
 * numbers; an increase emits epoch boundaries (barriers). The parser
 * is strict: malformed lines, out-of-range processor ids, misaligned
 * or out-of-range addresses, non-monotone epochs, and a torn
 * (incomplete, unterminated) final line are all user errors - fatal()
 * with file:line context, which the CLIs map to the usage exit code
 * (2). Nothing is ever silently skipped or clamped.
 *
 * A trace carries no dependence information, so the marking stub is
 * maximally conservative: every read is a Time-Read of distance 0
 * (hardware may only vouch for words written in the current epoch),
 * which is sound whenever the trace's epoch markers separate
 * cross-processor dependences - the same contract compiled programs
 * satisfy at their barriers.
 */

#ifndef HSCD_WORKLOADS_TRACE_HH
#define HSCD_WORKLOADS_TRACE_HH

#include <string>
#include <vector>

#include "sim/result.hh"
#include "sim/trace.hh"

namespace hscd {
namespace workloads {

/** A parsed external trace, ready to replay. */
struct TraceWorkload
{
    std::vector<sim::TraceRecord> records;
    unsigned procs = 1;      ///< declared, or 1 + max proc id seen
    Addr dataBytes = 0;      ///< footprint (max addr, line-rounded)
    Counter reads = 0;
    Counter writes = 0;
    /**
     * Epochs in the trace, 1 + the highest epoch number seen; a run of
     * it crosses one boundary fewer (RunResult::epochs).
     */
    EpochId epochCount = 1;
    std::string source;      ///< label (file path or test name)
};

/** Does @p spec look like a trace workload spec (`trace:...`)? */
bool isTraceSpec(const std::string &spec);

/** Extract the file path from `trace:<file>`; fatal if empty. */
std::string traceSpecPath(const std::string &spec);

/**
 * Parse trace text; @p name labels diagnostics ("<name>:<line>: ...").
 * fatal() (FatalError) on any malformed input.
 */
TraceWorkload parseTraceText(const std::string &text,
                             const std::string &name);

/** Read and parse a trace file; fatal() if unreadable or malformed. */
TraceWorkload loadTraceFile(const std::string &path);

/** Convenience: loadTraceFile(traceSpecPath(spec)). */
TraceWorkload loadTraceSpec(const std::string &spec);

/**
 * Run @p t on a sim::Machine under @p cfg's scheme and return
 * sweep-compatible counters. The machine is widened to the trace's
 * processor count if needed (fatal() if, say, HW cannot hold that many
 * processors); byte-identical output for the same (trace, cfg) at any
 * thread count. @p sink (optional) observes the run, as
 * Machine::setTraceSink does, for hscd_inspect-style attribution.
 */
sim::RunResult runTrace(const TraceWorkload &t, const MachineConfig &cfg,
                        sim::TraceSink *sink = nullptr);

} // namespace workloads
} // namespace hscd

#endif // HSCD_WORKLOADS_TRACE_HH
