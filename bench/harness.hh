/**
 * @file
 * Shared harness for the paper campaign: Figure 8 configurations,
 * cached benchmark compilation, and run helpers.
 */

#ifndef HSCD_BENCH_HARNESS_HH
#define HSCD_BENCH_HARNESS_HH

#include <cstdint>
#include <memory>
#include <string>

#include "compiler/analysis.hh"
#include "obs/metrics.hh"
#include "obs/timeline.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"

namespace hscd {
namespace bench {

/** The paper's Figure 8 defaults for one scheme. */
MachineConfig makeConfig(SchemeKind scheme);

/** Shared ownership of a compiled program (see compiledBenchmark). */
using CompiledProgramPtr = std::shared_ptr<const compiler::CompiledProgram>;

/**
 * Compile (and cache) a named Perfect-Club-like benchmark. @p affinity
 * selects the serial-affinity compilation mode. Thread-safe: sweep
 * workers may first-touch concurrently. The cache is insert-once: every
 * caller for a key gets the same program for the life of the process.
 */
CompiledProgramPtr compiledBenchmark(const std::string &name,
                                     int scale = 2, bool affinity = true);

/** Monotonic counters of the compile cache. */
struct CompiledCacheStats
{
    std::uint64_t hits = 0;   ///< served from cache
    std::uint64_t builds = 0; ///< compiled fresh (misses)
};

CompiledCacheStats compiledCacheStats();

/**
 * Run one benchmark under one configuration. Thread-safe and
 * deterministic: concurrent calls simulate on independent Machines and
 * produce the same RunResult as a serial call.
 */
sim::RunResult runBenchmark(const std::string &name,
                            const MachineConfig &cfg, int scale = 2,
                            bool affinity = true);

/**
 * sim::simulate() feeding @p timeline and @p metrics (either may be
 * null) through a sim::RecorderSink. Not thread-safe with respect to the
 * recorders: callers instrument one run at a time (the sweep engine
 * observes one cell).
 */
sim::RunResult runObserved(const compiler::CompiledProgram &program,
                           const MachineConfig &cfg, obs::Timeline *timeline,
                           obs::MetricsRecorder *metrics);

/** Default display-name mapping for Timeline::writePerfetto. */
obs::Timeline::Naming timelineNaming();

/** One cell's verdict under a gate: pass, or an exit code and why. */
struct CellVerdict
{
    int code = verify::ExitSuccess;
    std::string why; ///< "" when the cell passes
};

/**
 * The soundness rule every experiment doubles as an end-to-end check
 * of: verify::ExitViolation (3) on an oracle/shadow/race violation and
 * verify::ExitAbort (4) on a structured abort, so callers can tell a
 * detected failure from the usage-error exit (2).
 */
CellVerdict soundness(const sim::RunResult &r);

/** How a faulted run ended against its fault-free reference (R1). */
enum class FaultOutcome
{
    Clean,     ///< completed the reference's work; nothing injected
    Recovered, ///< completed the reference's work; faults absorbed
    Aborted,   ///< structured abort (a detection)
    Flagged,   ///< oracle/shadow/race violation (a detection)
    Silent,    ///< completed unflagged with different work - never OK
};

/**
 * Classify faulted run @p r against the fault-free run @p ref of the
 * same workload and scheme. A run that completed unflagged is Silent
 * when its tasks, epochs, parallel epochs, reads or writes differ from
 * the reference's: the fault changed the computation unnoticed.
 */
FaultOutcome classifyFaulted(const sim::RunResult &r,
                             const sim::RunResult &ref);

} // namespace bench
} // namespace hscd

#endif // HSCD_BENCH_HARNESS_HH
