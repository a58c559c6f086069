/**
 * @file
 * Reference HIR interpreter for the equivalence tests.
 *
 * A TaskStream walks a statement list with an explicit frame stack and
 * yields one operation at a time, evaluating every subscript through
 * hir::IntExpr and hir::Env. The simulator never runs it: it executes
 * the lowered program of sim/stream.hh. The tests hold the lowered
 * program's op sequence to this interpreter's, op for op. Two modes:
 *
 *  - top-level (the serial master thread): encountering a DOALL yields a
 *    BeginDoall operation with evaluated bounds and does not descend;
 *  - task mode (one DOALL's iterations): nested DOALLs are demoted to
 *    serial loops, and the stream runs a list of iterations that can be
 *    extended dynamically.
 *
 * An Alternate-policy branch counts its trips per DOALL iteration in
 * task mode and run-wide (RunCtx) in serial code, so each iteration's
 * operations depend only on the program, the master's bindings and the
 * iteration number.
 */

#ifndef HSCD_TESTS_TASK_STREAM_HH
#define HSCD_TESTS_TASK_STREAM_HH

#include <map>
#include <memory>
#include <vector>

#include "hir/program.hh"

namespace hscd {
namespace sim {

/** Shared per-run interpreter state (serial alternation counters). */
struct RunCtx
{
    std::map<std::uint32_t, std::uint64_t> ifCounters;
    std::uint64_t hashSeed = 0x9e3779b9;
};

struct TaskOp
{
    enum class Kind
    {
        Ref,          ///< one memory reference
        Compute,      ///< burn cycles
        LockAcquire,  ///< enter critical section
        LockRelease,  ///< leave critical section
        Post,         ///< post a synchronization flag (release)
        Wait,         ///< block on a synchronization flag
        CallBoundary, ///< procedure entry/return (for flush-at-call mode)
        BeginDoall,   ///< top-level only: a parallel epoch starts
        Barrier,      ///< top-level only: explicit epoch boundary
        End,          ///< stream exhausted
    };

    Kind kind = Kind::End;
    // Ref:
    Addr addr = 0;
    bool write = false;
    hir::RefId ref = hir::invalidRef;
    hir::ArrayId array = hir::invalidArray;
    // Compute:
    Cycles cycles = 0;
    // Post/Wait:
    std::int64_t flag = 0;
    // BeginDoall:
    const hir::LoopStmt *doall = nullptr;
    std::int64_t lo = 0;
    std::int64_t hi = 0;
    std::int64_t step = 1;
};

class TaskStream
{
  public:
    /** Top-level master stream over @p body. */
    TaskStream(const hir::Program &prog, RunCtx &ctx,
               const hir::StmtList &body);

    /**
     * Task-mode stream over one DOALL's body; iterations are appended
     * with addIteration(). @p outer_env carries the master's bindings.
     */
    TaskStream(const hir::Program &prog, RunCtx &ctx,
               const hir::LoopStmt &doall, hir::Env outer_env);

    /**
     * Queue one more iteration (initial share or dynamic self-schedule);
     * may follow an End, after which next() resumes with it.
     */
    void addIteration(std::int64_t iter);

    /** Produce the next operation. */
    TaskOp next();

    /** The master's current environment (snapshot for task streams). */
    const hir::Env &env() const { return _env; }

    /** Iteration currently executing (task mode; -1 before the first). */
    std::int64_t currentIteration() const { return _currentIter; }

  private:
    struct Frame
    {
        const hir::StmtList *list = nullptr;
        std::size_t idx = 0;
        // Loop frames re-execute their list, advancing the variable.
        const hir::LoopStmt *loop = nullptr;
        std::int64_t cur = 0;
        std::int64_t hi = 0;
        bool hadPrev = false;
        std::int64_t prevValue = 0;   ///< shadowed binding to restore
        bool releaseLockOnPop = false;
        bool callBoundaryOnPop = false;
    };

    /** Push a frame for @p list. */
    void push(const hir::StmtList &list);
    /** Enter a loop (binds the variable); no-op for zero trips. */
    void pushLoop(const hir::LoopStmt &loop);
    void popFrame();
    bool evalBranch(const hir::IfUnknownStmt &br);
    std::int64_t evalClamped(const hir::IntExpr &e) const;
    Addr refAddr(const hir::ArrayRefStmt &ref);

    const hir::Program &_prog;
    RunCtx &_ctx;
    hir::Env _env;
    std::vector<Frame> _frames;
    std::vector<std::int64_t> _subscripts; ///< refAddr's scratch buffer
    bool _taskMode = false;

    // Task mode:
    const hir::LoopStmt *_doall = nullptr;
    std::vector<std::int64_t> _pending;
    std::size_t _nextIter = 0;
    std::int64_t _currentIter = -1;

    /**
     * Task mode's per-iteration Alternate counters. An entry stamped
     * with an earlier iteration counts from zero: the reset happens on
     * the branch's first trip in a new iteration, so starting an
     * iteration costs nothing.
     */
    struct IterCount
    {
        std::size_t iteration = 0; ///< _nextIter when last counted
        std::uint64_t trips = 0;
    };
    std::map<std::uint32_t, IterCount> _iterAlternates;
};

} // namespace sim
} // namespace hscd

#endif // HSCD_TESTS_TASK_STREAM_HH
