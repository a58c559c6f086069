/**
 * @file
 * The executable form of a program: its serial master and every DOALL
 * body lowered once into one flat, slot-indexed op program, and the
 * cursor that runs it (DESIGN.md section 9).
 *
 * Every binding gets an integer slot. An affine subscript the lowering
 * proves in range is an address generator (a base plus per-slot strides,
 * moved by one add when its loop advances); runs of them and of Computes
 * are served as flat records. Unknown or unbounded subscripts, Hash and
 * Alternate branches and post/wait flags are the slow ops, evaluated
 * from the slots; hashes reproduce hir::Env::mixHash bit for bit. The
 * program is O(program text), has no size cap, and one lowering, cached
 * on the CompiledProgram, serves every machine shape and every schedule.
 * Ops carry a reference's address and id only; the executor reads the
 * static facts from the current marking.
 */

#ifndef HSCD_SIM_STREAM_HH
#define HSCD_SIM_STREAM_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "compiler/analysis.hh"
#include "hir/program.hh"
#include "mem/machine_config.hh"

namespace hscd {
namespace sim {

/** One operation the executor consumes (16 bytes, flat). */
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
        BeginDoall,   ///< master only: run the DOALL of loop aux
        End,          ///< the master or a processor's share is exhausted
    };

    /** Ref: word address; else cycles / flag / DOALL loop. */
    std::int64_t aux = 0;
    hir::RefId ref = hir::invalidRef; ///< Ref: static facts by id
    Kind kind = Kind::End;
};
static_assert(sizeof(StreamOp) == 16, "StreamOp is a 16-byte record");

/** Iteration indices begin, begin + stride, ... below end (k: lo + k*step). */
struct IterShare
{
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t stride = 1;
};

/** One lowered instruction (16 bytes). */
struct LoweredOp
{
    enum class Code : std::uint8_t
    {
        Run,       ///< aux, arg: StreamProgram::runOps range
        SlowRef,   ///< aux: array << 32 | first subscript expr; arg: ref
        Mark,      ///< arg: a Lock, CallBoundary or Barrier StreamOp::Kind
        Sync,      ///< aux: flag expression; arg: Post or Wait
        Doall,     ///< master only; aux: the DOALL's loop
        LoopBegin, ///< aux: loop; arg: pc past the loop (zero trips)
        LoopNext,  ///< aux: loop; arg: pc of the loop body
        Alternate, ///< aux: IfUnknownStmt::id; arg: pc of the else arm
        Hash,      ///< aux: the expr it hashes; arg: pc of the else arm
        Jump,      ///< arg: target pc
        IterEnd,   ///< end of a DOALL body: next iteration of the share
        End,       ///< end of the master
    };

    std::int64_t aux = 0;
    std::uint32_t arg = 0;
    Code code = Code::End;
};
static_assert(sizeof(LoweredOp) == 16, "LoweredOp is a 16-byte record");

/** coef * slots[slot]; for a binding, coef is its variable's nameHash. */
struct SlotTerm
{
    std::uint32_t slot = 0;
    std::int64_t coef = 0;
};

/**
 * konst + sum of terms, plus (hashed) a hash of the live bindings, as
 * an IntExpr's unknown term adds; a Hash branch tests the hash alone.
 */
struct SlotExpr
{
    std::int64_t konst = 0;
    std::uint32_t terms = 0, termsEnd = 0; ///< StreamProgram::terms
    std::uint32_t binds = 0, bindsEnd = 0; ///< StreamProgram::terms
    std::uint64_t seed = 0;
    bool hashed = false;
};

/** The address of the Ref at runOps[pos], owned by one loop. */
struct AddrGen
{
    std::uint32_t addr = 0; ///< its expression, evaluated on entry
    std::uint32_t pos = 0;
    std::int64_t delta = 0; ///< added each time the owner advances
};

/** A serial loop, a DOALL's iteration loop, or (loops[0]) the master. */
struct LoopInfo
{
    std::uint32_t slot = 0;
    std::uint32_t lo = 0, hi = 0; ///< StreamProgram::exprs
    std::int64_t step = 1;
    std::uint32_t gens = 0, gensEnd = 0; ///< the generators it owns
    std::uint32_t body = 0, end = 0; ///< a DOALL: body and IterEnd pcs
    bool hasSync = false; ///< a DOALL whose body has post/wait
};

/** A whole program, lowered once for every machine shape. */
struct StreamProgram
{
    /** The master from pc 0 to its End, then every DOALL body. */
    std::vector<LoweredOp> code;
    /** The ops of every run; a Ref's address is its generator's. */
    std::vector<StreamOp> runOps;
    std::vector<SlotExpr> exprs;
    std::vector<SlotTerm> terms;
    std::vector<AddrGen> gens;
    std::vector<LoopInfo> loops;
    std::vector<hir::ArrayDecl> arrays; ///< for SlowRef range checks
    std::vector<std::int64_t> slotInit; ///< the parameters' values

    /** Lowered ops: the code plus the ops of its runs. */
    std::size_t opCount() const { return code.size() + runOps.size(); }
};

/**
 * Runs the master or one processor's share of a parallel epoch. It keeps
 * a live copy of the run ops, whose Ref addresses its generators update
 * in place, and serves a run as flat records; between runs it steps the
 * op program. Its state is O(program text); it serves every epoch.
 */
class OpCursor
{
  public:
    explicit OpCursor(const StreamProgram &sp);

    OpCursor(OpCursor &&) = default; ///< points into its own buffers

    /** Position at the master's first op. */
    void startMaster();

    /**
     * Take the DOALL that @p master just yielded (BeginDoall), with the
     * master's bindings; the cursor runs no iteration until assign().
     */
    void enterEpoch(const OpCursor &master);

    /** Run @p share next (before the first op or after an End). */
    void assign(IterShare share) { _share = share; }

    /** Next op (End when the master or the share is exhausted). */
    [[gnu::always_inline]] StreamOp
    next()
    {
        if (_cur == _end && !loopBack()) {
            StreamOp out;
            if (step(out))
                return out;
        }
        return *_cur++;
    }

    /**
     * Consume the Computes that follow the op last returned, up to the
     * first other op or the end of the run (a tight loop's next trip
     * included), and return their summed cycles. They stay inside the
     * current iteration, so iter() does not change.
     */
    [[gnu::always_inline]] Cycles
    takeComputes()
    {
        Cycles cycles = 0;
        while ((_cur != _end || loopBack()) &&
               _cur->kind == StreamOp::Kind::Compute)
            cycles += static_cast<Cycles>(_cur++->aux);
        return cycles;
    }

    /** Iteration of the op last returned (-1 in the master). */
    std::int64_t iter() const { return _iter; }

    /** The bounds and trip count of the DOALL the master last yielded. */
    std::int64_t doallLo() const { return _doallLo; }
    std::int64_t doallHi() const { return _doallHi; }
    std::size_t doallTrips() const;

  private:
    /**
     * At the end of a run that is a whole loop body, advance the loop
     * and restart the run if there is another trip: the innermost loops
     * run without step().
     */
    bool
    loopBack()
    {
        if (!_tight)
            return false;
        if ((_slots[_tight->slot] += _tight->step) > _his[_tight->slot]) {
            _tight = nullptr;
            ++_pc; // past the LoopNext
            return false;
        }
        for (std::uint32_t g = _tight->gens; g < _tight->gensEnd; ++g)
            _ops[_genInfo[g].pos].aux += _genInfo[g].delta;
        _cur = _tightBegin;
        return true;
    }

    /** Step the program to a run (false) or an op for @p out (true). */
    bool step(StreamOp &out);
    void reset(std::uint32_t pc);
    void startIteration();
    std::int64_t eval(const SlotExpr &e, std::int64_t unknown_modulus) const;
    std::uint64_t hash(const SlotExpr &e) const;
    std::int64_t slowRefAddr(std::int64_t aux);
    bool alternate(std::uint32_t id);
    void recompute(const LoopInfo &l);

    const StreamOp *_cur = nullptr; ///< the current run's ops
    const StreamOp *_end = nullptr;
    std::int64_t _iter = -1;
    const LoopInfo *_tight = nullptr; ///< loop whose body is the run
    const StreamOp *_tightBegin = nullptr;
    StreamOp *_ops; ///< the live run ops
    const AddrGen *_genInfo;
    std::int64_t *_slots; ///< current value of each slot
    std::int64_t *_his;   ///< per loop slot: its evaluated upper bound

    const StreamProgram *_sp;
    const LoweredOp *_code;
    std::uint32_t _pc = 0;
    IterShare _share{};
    const LoopInfo *_doall = nullptr; ///< the epoch's DOALL (not master)
    /** The last iteration's index: the next moves generators by delta. */
    std::int64_t _lastK = -1;
    std::int64_t _epochLo = 0;
    std::uint64_t _stamp = 0; ///< iterations this cursor has started
    std::vector<std::int64_t> _state; ///< _slots and _his
    std::vector<StreamOp> _opsBuf;    ///< _ops
    std::vector<std::int64_t> _subs;  ///< SlowRef's scratch subscripts
    /**
     * Alternate trip counts by IfUnknownStmt::id, run-wide in the master;
     * in a DOALL one stamped with an earlier iteration counts from zero.
     */
    struct AltCount
    {
        std::uint64_t stamp = 0;
        std::uint64_t trips = 0;
    };
    std::vector<AltCount> _alt;
    std::int64_t _doallLo = 0, _doallHi = -1;
    const LoopInfo *_doallLast = nullptr; ///< the DOALL last yielded
};

/**
 * The program's lowered form, made on first use and cached on @p cp
 * (thread-safe, insert-once). Every configuration gets the same
 * program; @p cfg is not read. Never null.
 */
std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg);

/** Process-wide lowered-program cache telemetry (monotonic). */
struct StreamCacheStats
{
    std::uint64_t builds = 0; ///< programs lowered fresh
    std::uint64_t hits = 0;   ///< served from a slot cache
};

StreamCacheStats streamCacheStats();

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_STREAM_HH
