/**
 * @file
 * Epoch-stream fast path: a program's reference sequences, recorded
 * once into flat per-iteration streams.
 *
 * The execution-driven engine normally re-walks HIR statements for every
 * simulated reference (frame stack, environment lookups, subscript
 * expression trees). Each DOALL iteration's operations depend only on
 * the program, the master's bindings and the iteration number (an
 * Alternate branch counts its trips per iteration inside a DOALL, see
 * sim/interp.hh), so the same TaskStream interpreter the legacy path
 * uses records every iteration once, and the executor places the
 * recorded iterations on processors at run time with the same share
 * rule the interpreted path uses. One recording therefore serves every
 * processor count and every static schedule. A StreamOp keeps only what
 * varies per dynamic reference: the word address and the reference id.
 * Everything static per reference id (read or write, array, mark kind,
 * Time-Read distance, critical-section marking) is looked up by the
 * executor in one per-run table built from the program and its current
 * marking, so a stream never bakes in marks and stays valid when a mark
 * is overridden after it was recorded.
 *
 * The contract is strict equivalence: a fast-path run produces a
 * byte-identical RunResult to the interpreted run (enforced by
 * tests/test_fastpath_equiv.cc). Dynamic self-scheduling still runs on
 * the interpreter. Its placement could replay the same recording, but
 * caching the recording would grow the resident set of Dynamic-only
 * campaigns, and recording without caching costs more per reference
 * than interpreting does.
 *
 * The recording is cached on the CompiledProgram itself, so sweeps that
 * re-simulate one workload under many machine configurations pay for
 * interpretation once.
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
        End,          ///< a task's ops are exhausted (never recorded)
    };

    /** Ref: word address; else cycles / flag / epoch index. */
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

/**
 * One parallel epoch, recorded iteration by iteration: iteration k (the
 * DOALL index lo + k * step) is ops[iterBegin[k], iterBegin[k + 1]).
 */
struct EpochStream
{
    bool hasSync = false; ///< body contains post/wait
    std::int64_t lo = 0;
    std::int64_t step = 1;
    std::vector<std::uint32_t> iterBegin; ///< iterations() + 1 offsets
    std::vector<StreamOp> ops;

    std::size_t iterations() const { return iterBegin.size() - 1; }
};

/** A whole program, flattened once for every machine shape. */
struct StreamProgram
{
    /** Serial master ops; BeginDoall records index into epochs. */
    std::vector<StreamOp> master;
    std::vector<EpochStream> epochs;

    /** Total recorded ops (master plus every epoch stream). */
    std::size_t opCount() const;
};

/**
 * The program's recording, made on first use and cached on @p cp
 * (thread-safe, insert-once). Returns nullptr for dynamic
 * self-scheduling and when the recording would exceed the hard size
 * cap - callers must then use the interpreted path.
 */
std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg);

/** Does a DOALL body (transitively) contain post/wait? */
bool doallBodyHasSync(const hir::Program &prog, const hir::LoopStmt &loop);

/**
 * Process-wide StreamProgram cache telemetry, aggregated over every
 * program's per-CompiledProgram slot (monotonic; for /stats).
 */
struct StreamCacheStats
{
    std::uint64_t builds = 0; ///< programs recorded fresh
    std::uint64_t hits = 0;   ///< served from a slot cache
};

StreamCacheStats streamCacheStats();

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_STREAM_HH
