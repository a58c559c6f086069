/**
 * @file
 * Epoch-stream fast path: the program's reference sequences, compiled
 * once into flat per-processor streams.
 *
 * The execution-driven engine normally re-walks HIR statements for every
 * simulated reference (frame stack, environment lookups, subscript
 * expression trees). For a fixed (program, procs, schedule) the sequence
 * of operations each processor performs is deterministic, so it can be
 * recorded once - by the same TaskStream interpreter that the legacy
 * path uses - into a flat, cache-friendly stream and replayed on every
 * subsequent run. A StreamOp keeps only what varies per dynamic
 * reference: the word address and the reference id. Everything static
 * per reference id (read or write, array, mark kind, Time-Read
 * distance, critical-section marking) is looked up by the executor in
 * one per-run table built from the program and its current marking, so
 * a stream never bakes in marks and stays valid when a mark is
 * overridden after it was recorded.
 *
 * The contract is strict equivalence: a fast-path run produces a
 * byte-identical RunResult to the interpreted run (enforced by
 * tests/test_fastpath_equiv.cc). Two program/config shapes make the
 * recorded stream timing-dependent and are therefore ineligible -
 * dynamic self-scheduling (iteration placement depends on completion
 * order) and Alternate-policy unknown branches inside DOALL bodies
 * (the shared alternation counter makes branch outcomes depend on the
 * cross-processor interleaving). Those fall back to the interpreter.
 *
 * Streams are cached on the CompiledProgram itself (keyed by the config
 * fields that shape the stream), so sweeps that re-simulate one workload
 * under many machine configurations pay for interpretation once.
 */

#ifndef HSCD_SIM_STREAM_HH
#define HSCD_SIM_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/analysis.hh"
#include "mem/machine_config.hh"
#include "sim/interp.hh"

namespace hscd {
namespace sim {

/** One recorded operation of an epoch stream (16 bytes, flat). */
struct StreamOp
{
    enum class Kind : std::uint8_t
    {
        Ref,          ///< one memory reference
        Compute,      ///< burn aux cycles
        LockAcquire,  ///< enter the (single global) critical section
        LockRelease,  ///< leave the critical section
        Post,         ///< post synchronization flag aux
        Wait,         ///< block on synchronization flag aux
        CallBoundary, ///< procedure entry/return
        Barrier,      ///< master only: explicit epoch boundary
        BeginDoall,   ///< master only: run parallel epoch aux
        IterStart,    ///< task streams only: iteration aux begins
        End,          ///< a task's ops are exhausted (never recorded)
    };

    /** Ref: word address; else cycles / flag / epoch index / iter. */
    std::int64_t aux = 0;
    hir::RefId ref = hir::invalidRef; ///< Ref: static facts by id
    Kind kind = Kind::End;
};
static_assert(sizeof(StreamOp) == 16, "StreamOp is a 16-byte record");

/**
 * The stream form of one interpreter operation. Both the recorder and
 * the executor's interpreted path convert through here, so the executor
 * consumes one operation type whichever source feeds it. BeginDoall
 * has no single-record form; the caller handles it.
 */
StreamOp streamOpOf(const TaskOp &op);

/** One parallel epoch, pre-scheduled onto processors. */
struct EpochStream
{
    bool hasSync = false;             ///< body contains post/wait
    Counter taskCount = 0;            ///< DOALL iterations
    std::vector<std::vector<StreamOp>> perProc;
};

/** A whole program, flattened for one (procs, schedule) shape. */
struct StreamProgram
{
    /** Serial master ops; BeginDoall records index into epochs. */
    std::vector<StreamOp> master;
    std::vector<EpochStream> epochs;

    /** Total recorded ops (master plus every epoch stream). */
    std::size_t opCount() const;
};

/**
 * Can (program, cfg) take the fast path at all? False for dynamic
 * self-scheduling and for Alternate-policy branches reachable inside a
 * parallel loop body (see file comment). Independent of cfg.fastPath -
 * callers gate on the flag separately.
 */
bool streamEligible(const compiler::CompiledProgram &cp,
                    const MachineConfig &cfg);

/**
 * The stream for (cp, cfg), built on first use and cached on @p cp
 * (thread-safe, insert-once; bounded by an LRU byte budget per
 * program). Returns nullptr when the combination is ineligible or the
 * recording would exceed the hard size cap - callers must then use the
 * interpreted path.
 */
std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg);

/**
 * Record a stream without consulting the cache (test hook; also the
 * cache's builder). Returns nullptr exactly when streamEligible is
 * false or the op cap is exceeded.
 */
std::shared_ptr<const StreamProgram>
buildStreamProgram(const compiler::CompiledProgram &cp,
                   const MachineConfig &cfg);

/** Does a DOALL body (transitively) contain post/wait? */
bool doallBodyHasSync(const hir::Program &prog, const hir::LoopStmt &loop);

/**
 * Process-wide StreamProgram cache telemetry, aggregated over every
 * program's per-CompiledProgram slot (monotonic; for /stats).
 */
struct StreamCacheStats
{
    std::uint64_t builds = 0;    ///< streams recorded fresh
    std::uint64_t hits = 0;      ///< served from a slot cache
    std::uint64_t evictions = 0; ///< shapes dropped past the op budget
};

StreamCacheStats streamCacheStats();

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_STREAM_HH
