/**
 * @file
 * The one trace grammar: its parser and trace runs.
 *
 * Replays memory traces - captured from a program run by
 * sim::writeTrace, or from a real machine, another simulator or a
 * hand-written scenario - through any of the five coherence schemes,
 * without an HIR program. The text format is one record per line:
 *
 *     # comment (blank lines ignored)
 *     procs <P>            # optional, before every other record
 *     epoch <E>            # advance to epoch E with no access
 *     <proc> <addr> <r|w> [<epoch> [<mark> <distance> <array> <crit>]]
 *
 * with byte addresses (word aligned, 4 bytes), monotone epoch numbers
 * (an increase emits epoch boundaries, i.e. barriers), a mark of n
 * (Normal), t (Time-Read) or b (Bypass) and a critical flag of 0 or 1.
 * The parser is strict: malformed lines, out-of-range processor ids, misaligned
 * or out-of-range addresses, distances past 32 bits, array ids at or
 * above the trace's word count, non-monotone epochs, and a torn
 * (incomplete, unterminated) final line are all user errors - fatal()
 * with file:line context, which the CLIs map to the usage exit code
 * (2). Nothing is ever silently skipped or clamped.
 *
 * Missing columns take the marking stub. A trace without marks carries
 * no dependence information, so the stub is maximally conservative:
 * every read is a Time-Read of distance 0 (hardware may only vouch for
 * words written in the current epoch), every write is Normal, and the
 * array id and critical flag are 0. That is sound whenever the trace's
 * epoch markers separate cross-processor dependences - the same
 * contract compiled programs satisfy at their barriers. The footprint
 * is the highest address, rounded up to 64 bytes; writes are numbered
 * in record order.
 */

#ifndef HSCD_WORKLOADS_TRACE_HH
#define HSCD_WORKLOADS_TRACE_HH

#include <string>
#include <vector>

#include "sim/result.hh"
#include "sim/trace.hh"

namespace hscd {
namespace workloads {

/**
 * The parser's limits: a trace asking for more is almost certainly
 * corrupt, and refusing beats allocating gigabytes.
 */
constexpr unsigned kMaxProcs = 1024;
constexpr Addr kMaxAddr = Addr{1} << 26;       // 64 MiB footprint
constexpr EpochId kMaxEpoch = EpochId{1} << 20;

/** A parsed trace, ready to replay. */
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
