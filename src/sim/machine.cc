#include "sim/machine.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "common/zeroed.hh"
#include "mem/base_scheme.hh"
#include "mem/directory_scheme.hh"
#include "mem/sc_scheme.hh"
#include "mem/tpi_scheme.hh"
#include "mem/vc_scheme.hh"
#include "sim/ready_heap.hh"
#include "sim/stream.hh"
#include "sim/trace.hh"

namespace hscd {
namespace sim {

using compiler::MarkKind;
using mem::MemOp;
using mem::ValueStamp;

std::uint64_t
RunResult::fingerprint() const
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    auto mixd = [&](double d) {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(d));
        std::memcpy(&bits, &d, sizeof(bits));
        mix(bits);
    };
    forEachScalar(*this, [&](const char *, auto v) {
        if constexpr (std::is_floating_point_v<decltype(v)>)
            mixd(v);
        else
            mix(v);
    });
    mix(firstViolations.size());
    for (const OracleViolation &v : firstViolations) {
        mix(v.addr); mix(v.ref); mix(v.seen); mix(v.expected);
        mix(v.epoch); mix(v.proc);
    }
    mix(shadowViolations);
    mix(firstShadowViolations.size());
    for (const ShadowViolation &v : firstShadowViolations) {
        mix(v.addr); mix(v.ref); mix(v.proc); mix(v.epoch);
        mix(v.writerProc); mix(v.writerEpoch);
    }
    // Abort/fault fields perturb the digest only when set, so the
    // fingerprints of fault-free runs are unchanged by their existence.
    if (abort.aborted() || faultsInjected || faultsRecovered ||
        faultRetries)
    {
        auto mixs = [&](const std::string &s) {
            mix(s.size());
            for (char c : s)
                mix(static_cast<unsigned char>(c));
        };
        mix(static_cast<std::uint64_t>(abort.kind));
        mix(abort.cycle); mix(abort.epoch); mix(abort.proc);
        mixs(abort.reason);
        mixs(abort.snapshot);
        mix(faultsInjected); mix(faultsRecovered); mix(faultRetries);
    }
    return h;
}

/**
 * Fill @p r's scheme, traffic and (when @p inj is non-null) fault
 * counters from the end state of a run; every other field is the
 * executor's.
 */
static void
harvest(RunResult &r, const mem::CoherenceScheme &scheme,
        const net::Network &network, const fault::FaultInjector *inj)
{
    const mem::SchemeStats &st = scheme.stats();
    copySchemeCounters(r, st);
    r.readMissRate = r.reads ? double(r.readMisses) / double(r.reads) : 0.0;
    r.avgMissLatency =
        st.missLatencyCount
            ? st.missLatencySum / double(st.missLatencyCount)
            : 0.0;
    r.trafficPackets = network.totalPackets();
    r.trafficWords = network.totalWords();
    if (inj) {
        const fault::FaultStats &fs = inj->stats();
        r.faultsInjected = fs.totalInjected();
        r.faultsRecovered = fs.recovered;
        r.faultRetries = fs.retries;
    }
}

std::string
RunResult::summary() const
{
    std::string s = csprintf(
        "cycles=%d epochs=%d reads=%d writes=%d miss_rate=%.4f "
        "avg_miss_lat=%.1f traffic=%d oracle_violations=%d",
        cycles, epochs, reads, writes, readMissRate, avgMissLatency,
        trafficWords, oracleViolations);
    if (faultsInjected || faultRetries)
        s += csprintf(" faults=%d recovered=%d retries=%d", faultsInjected,
                      faultsRecovered, faultRetries);
    if (aborted())
        s += csprintf(" ABORTED(%s: %s)", fault::abortKindName(abort.kind),
                      abort.reason);
    return s;
}

/**
 * Execution engine: runs the lowered program (sim/stream.hh) with one
 * cursor for the serial master and one per processor, interleaving the
 * processors of each parallel epoch in global time order. One path
 * serves every schedule: mergeEpoch places DOALL iterations by one rule
 * (initialShare, then refill for Dynamic), templated on the concrete
 * coherence scheme so the per-reference access call is direct. A trace
 * run (runTrace) issues its records in record order through the same
 * per-reference path and the same boundaries.
 *
 * The per-reference helpers (issueRef, issue, checkLegality and the
 * cursor's next/takeComputes) are forced inline into each
 * mergeEpoch<Observed, Scheme>. Observed is chosen once per run: false
 * when there is no trace sink and no shadow check, and then their
 * per-reference branches fold away at compile time.
 */
class Executor
{
  public:
    explicit Executor(Machine &m)
        : _m(m), _cfg(m._cfg), _scheme(*m._scheme),
          _trace(m._trace),
          _procTime(m._cfg.procs, 0),
          _busy(m._cfg.procs, 0),
          _words(m._memory.words()),
          _inCritical(m._cfg.procs, 0),
          _rng(m._cfg.migrationSeed)
    {
        _ready.reserve(_cfg.procs);
        if (_cfg.shadowEpochCheck) {
            _shadowWriterProc = ZeroedArray<ProcId>(m._memory.words());
            _shadowWriterEpoch = ZeroedArray<EpochId>(m._memory.words());
        }
        if (!m._cp)
            return; // a trace run: its records carry their own facts
        const hir::Program &prog = m._cp->program;
        _facts.resize(prog.refCount());
        for (hir::RefId id = 0; id < prog.refCount(); ++id) {
            const hir::ArrayRefStmt &stmt = *prog.refInfo(id).stmt;
            const compiler::Mark &mark = m._cp->marking.mark(id);
            RefFacts &f = _facts[id];
            f.array = stmt.array;
            f.write = stmt.isWrite;
            f.markCritical = mark.reason == compiler::MarkReason::Critical;
            if (!stmt.isWrite) {
                f.mark = mark.kind;
                f.distance = mark.distance;
            }
        }
    }

    RunResult
    run()
    {
        try {
            if (_m._records)
                return runTrace(*_m._records);
            return dispatchByScheme();
        } catch (fault::RunAbort &ab) {
            // Structured termination: counters are harvested up to the
            // point of death, and the abort record (with its post-mortem
            // snapshot) rides along in the RunResult instead of the run
            // spinning forever or dying on an assert.
            if (ab.info.kind == fault::AbortKind::ClockLimit)
                ab.info.epoch = _epoch; // the ready queue knows no epoch
            finish();
            if (_trace)
                _trace->onAbort(ab.info, _epoch);
            _res.abort = std::move(ab.info);
            return _res;
        }
    }

  private:
    RunResult
    dispatchByScheme()
    {
        const std::shared_ptr<const StreamProgram> sp =
            epochStream(*_m._cp, _cfg);
        const bool observed = _trace || _cfg.shadowEpochCheck;
        auto run = [&](auto &scheme) {
            return observed ? runProgram<true>(scheme, *sp)
                            : runProgram<false>(scheme, *sp);
        };
        switch (_cfg.scheme) {
          case SchemeKind::Base:
            return run(static_cast<mem::BaseScheme &>(_scheme));
          case SchemeKind::SC:
            return run(static_cast<mem::ScScheme &>(_scheme));
          case SchemeKind::TPI:
            return run(static_cast<mem::TpiScheme &>(_scheme));
          case SchemeKind::HW:
            return run(static_cast<mem::DirectoryScheme &>(_scheme));
          case SchemeKind::VC:
            return run(static_cast<mem::VcScheme &>(_scheme));
        }
        panic("unknown scheme kind");
    }

  private:
    /**
     * What the engine needs to know about a reference that does not vary
     * between its dynamic instances. Built once per run from the program
     * and the current marking; the lowered program carries only the
     * reference id and the address, so marks are always read at run time.
     */
    struct RefFacts
    {
        hir::ArrayId array = hir::invalidArray;
        std::uint32_t distance = 0;      ///< reads: Time-Read operand
        MarkKind mark = MarkKind::Normal; ///< reads only; writes Normal
        bool write = false;
        /** The compiler marked this reference Critical. */
        bool markCritical = false;
    };

    template <bool Observed, class Scheme>
    RunResult
    runProgram(Scheme &scheme, const StreamProgram &sp)
    {
        OpCursor master(sp);
        master.startMaster();
        std::vector<OpCursor> cursors;
        for (ProcId p = 0; p < _cfg.procs; ++p)
            cursors.emplace_back(sp);
        for (StreamOp op = master.next(); op.kind != StreamOp::Kind::End;
             op = master.next())
        {
            switch (op.kind) {
              case StreamOp::Kind::Ref:
                issueRef<Observed>(scheme, _serialProc, op, -1);
                break;
              case StreamOp::Kind::Barrier:
                boundary();
                break;
              case StreamOp::Kind::BeginDoall:
                boundary();
                for (OpCursor &c : cursors)
                    c.enterEpoch(master);
                mergeEpoch<Observed>(
                    scheme, cursors, master.doallTrips(),
                    sp.loops[static_cast<std::size_t>(op.aux)].hasSync);
                boundary();
                migrateSerialTask();
                break;
              default:
                serialOp(op);
                break;
            }
        }
        finish();
        return _res;
    }

    /**
     * Issue @p records in record order. Each access runs on its own
     * processor as task -1, through the scheme's virtual access call;
     * each epoch closes like a parallel one, with a span per processor.
     */
    RunResult
    runTrace(const std::vector<TraceRecord> &records)
    {
        for (const TraceRecord &r : records) {
            if (r.type == TraceRecord::Type::Boundary) {
                closeEpoch();
                boundary();
                continue;
            }
            MemOp mop = r.op;
            issue<true>(_scheme, mop,
                        checkLegality(mop.addr, -1, mop.write, mop.critical),
                        hir::invalidRef);
        }
        closeEpoch();
        finish();
        return _res;
    }

    /** Serial-mode ops other than Ref/Barrier/BeginDoall. */
    void
    serialOp(const StreamOp &op)
    {
        switch (op.kind) {
          case StreamOp::Kind::Compute:
            _procTime[_serialProc] += static_cast<Cycles>(op.aux);
            break;
          case StreamOp::Kind::LockAcquire:
            _procTime[_serialProc] += _cfg.lockCycles;
            _inCritical[_serialProc] = 1;
            break;
          case StreamOp::Kind::LockRelease:
            _inCritical[_serialProc] = 0;
            break;
          case StreamOp::Kind::Post:
            // Release semantics: pending writes drain first.
            _procTime[_serialProc] =
                std::max(_procTime[_serialProc],
                         _scheme.writeDrainTime(_serialProc));
            _serialPosted.insert(op.aux);
            break;
          case StreamOp::Kind::Wait:
            if (!_serialPosted.count(op.aux))
                fatal("serial wait(%d) with no prior post: deadlock",
                      op.aux);
            _procTime[_serialProc] += _cfg.lockCycles;
            break;
          case StreamOp::Kind::CallBoundary:
            if (_cfg.flushAtCalls) {
                _scheme.flushCache(_serialProc);
                _procTime[_serialProc] += _cfg.callFlushCycles;
            }
            break;
          default:
            panic("unexpected op in the serial master stream");
        }
    }

    /**
     * The paper's Section 5 migration study: between epochs the serial
     * task may be rescheduled onto another processor. Sound only when the
     * program was compiled without the serial-affinity assumption; the
     * oracle flags the stale reads otherwise.
     */
    void
    migrateSerialTask()
    {
        if (_cfg.migrationRate <= 0.0 || _cfg.procs < 2)
            return;
        if (_rng.real() < _cfg.migrationRate) {
            _scheme.migrationDrain(_serialProc);
            ProcId next = static_cast<ProcId>(
                _rng.below(_cfg.procs - 1));
            if (next >= _serialProc)
                ++next;
            // The task resumes no earlier than where it left off.
            _procTime[next] =
                std::max(_procTime[next], _procTime[_serialProc]);
            _serialProc = next;
        }
    }

    void
    boundary()
    {
        Cycles t = 0;
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            t = std::max(t, _procTime[p]);
            t = std::max(t, _scheme.writeDrainTime(p));
        }
        serialSpan();
        _spansEmitted = false;
        t += _cfg.barrierCycles;
        ++_epoch;
        if (_trace)
            _trace->onBoundary(_epoch);
        const Cycles reset = _scheme.epochBoundary(_epoch);
        t += reset;
        for (ProcId p = 0; p < _cfg.procs; ++p)
            _procTime[p] = t;
        _m._network.endWindow(t);
        ++_accessGen; // invalidates every per-epoch access record
        _serialPosted.clear();
        ++_res.epochs;
        _epochStartT = t;
        if (_trace)
            _trace->onEpochStart(_epoch, t, reset);
    }

    /**
     * Report the serial region of the current epoch, unless it was a
     * parallel epoch (mergeEpoch reported its spans) or did no work.
     */
    void
    serialSpan()
    {
        if (_trace && !_spansEmitted && _procTime[_serialProc] > _epochStartT)
            _trace->onSpan(_serialProc, _epoch, _epochStartT,
                           _procTime[_serialProc]);
    }

    /**
     * Iteration placement, lock and post/wait state of the parallel
     * epoch being merged.
     */
    struct EpochSync
    {
        std::size_t iterations = 0; ///< the DOALL's trip count
        std::size_t unplaced = 0;   ///< first iteration no share holds

        ProcId lockOwner = invalidProc;
        unsigned lockDepth = 0;
        std::deque<ProcId> lockWaiters;
        std::map<std::int64_t, Cycles> posted; ///< flag -> post time
        std::map<std::int64_t, std::vector<ProcId>> waiters;
        std::size_t parked = 0;
    };

    /**
     * Machine state at the point of death, for AbortInfo::snapshot:
     * per-processor clocks, epoch counter, sync/lock occupancy, protocol
     * state (scheme post-mortem), and network load.
     */
    std::string
    deathSnapshot(const EpochSync &sync) const
    {
        const ProcId lock_owner = sync.lockOwner;
        std::string s = csprintf(
            "epoch %d, %d parked, lock owner %s (%d waiting)\n", _epoch,
            sync.parked,
            lock_owner == invalidProc ? std::string("none")
                                      : csprintf("%d", lock_owner),
            sync.lockWaiters.size());
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            s += csprintf("  proc %d: t=%d busy=%d drain=%d%s\n", p,
                          _procTime[p], _busy[p],
                          _scheme.writeDrainTime(p),
                          p == _serialProc ? " (serial)" : "");
        }
        s += _scheme.postMortem();
        s += csprintf("network: load %.3f, %d packets so far\n",
                      _m._network.load(), _m._network.totalPackets());
        return s;
    }

    [[noreturn]] void
    watchdogAbort(ProcId p, std::uint64_t stalled, const EpochSync &sync)
    {
        fault::AbortInfo info;
        info.kind = fault::AbortKind::Watchdog;
        info.reason = csprintf(
            "no forward progress in %d operations (livelock?)", stalled);
        info.cycle = _procTime[p];
        info.epoch = _epoch;
        info.proc = p;
        info.snapshot = deathSnapshot(sync);
        throw fault::RunAbort(std::move(info));
    }

    void
    finish()
    {
        Cycles t = 0;
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            t = std::max(t, _procTime[p]);
            t = std::max(t, _scheme.writeDrainTime(p));
        }
        _m._network.endWindow(t);
        _res.cycles = t;

        // Trailing serial region (the program ends without a final
        // barrier).
        serialSpan();

        harvest(_res, _scheme, _m._network, _m._faultInjector.get());

        Cycles busy_sum = 0;
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            _res.busyMax = std::max(_res.busyMax, _busy[p]);
            busy_sum += _busy[p];
        }
        _res.busyAvg = double(busy_sum) / double(_cfg.procs);
        _res.serialCycles =
            _res.cycles > _parallelWall ? _res.cycles - _parallelWall : 0;
    }

    /**
     * DOALL legality: cross-task same-word conflicts are data races.
     * Returns the word's record, whose stamp the oracle reads next.
     */
    [[gnu::always_inline]] AccessRec &
    checkLegality(Addr addr, std::int64_t task, bool write, bool critical)
    {
        hscd_dassert(addr / 4 < _words.size(),
                     "access record for address %#x out of range", addr);
        AccessRec &rec = _words[addr / 4];
        if (rec.gen != _accessGen) {
            rec.gen = _accessGen;
            rec.task = task;
            rec.wrote = write;
            rec.critical = critical;
            return rec;
        }
        // Post/wait epochs may pass data between tasks legally; ordering
        // correctness is still checked by the value-stamp oracle.
        if (!_syncEpoch && rec.task != task && (write || rec.wrote) &&
            !(critical && rec.critical))
            ++_res.doallViolations;
        rec.wrote |= write;
        rec.critical &= critical;
        if (rec.task != task)
            rec.task = task; // track the latest toucher
        return rec;
    }

    /** One reference of the program: its MemOp from the facts. */
    template <bool Observed, class Scheme>
    [[gnu::always_inline]] void
    issueRef(Scheme &scheme, ProcId proc, const StreamOp &op,
             std::int64_t task)
    {
        hscd_dassert(op.ref < _facts.size(), "reference %d has no facts",
                     op.ref);
        const RefFacts &f = _facts[op.ref];
        const Addr addr = static_cast<Addr>(op.aux);
        bool critical = f.markCritical || _inCritical[proc] != 0;
        AccessRec &rec = checkLegality(addr, task, f.write, critical);

        MemOp mop;
        mop.proc = proc;
        mop.addr = addr;
        mop.write = f.write;
        mop.arrayId = f.array;
        // Lock- or sync-ordered epochs allow another task to write the
        // same word later in the epoch; TPI must not vouch for such
        // writes beyond EC - 1.
        mop.critical = _inCritical[proc] != 0 || _syncEpoch;
        if (!f.write) {
            mop.mark = f.mark;
            mop.distance = f.distance;
        }
        issue<Observed>(scheme, mop, rec, op.ref);
    }

    /**
     * Issue @p mop at its processor's clock: stamp a write, access the
     * scheme, and check a read against the value-stamp oracle and the
     * shadow-epoch detector. @p rec is the word's record. Unless
     * @p Observed, the run has no trace sink and no shadow check.
     */
    template <bool Observed, class Scheme>
    [[gnu::always_inline]] void
    issue(Scheme &scheme, MemOp &mop, AccessRec &rec, hir::RefId ref)
    {
        const ProcId proc = mop.proc;
        const Addr addr = mop.addr;
        mop.now = _procTime[proc];
        if (mop.write) {
            mop.stamp = ++_stampCounter;
            rec.stamp = mop.stamp;
            if (Observed && _cfg.shadowEpochCheck) {
                _shadowWriterProc[addr / 4] = proc;
                _shadowWriterEpoch[addr / 4] = _epoch;
            }
        }

        if (Observed && _trace)
            _trace->onAccess(mop);
        mem::AccessResult res = scheme.access(mop);
        _procTime[proc] += res.stall;
        if (Observed && _trace)
            _trace->onOutcome(mop, res, _epoch);

        if (!mop.write) {
            const ValueStamp expected = rec.stamp;
            if (res.observed != expected) {
                ++_res.oracleViolations;
                if (_res.firstViolations.size() < 8) {
                    _res.firstViolations.push_back(OracleViolation{
                        addr, ref, res.observed, expected, _epoch, proc});
                }
            }
            // Shadow-epoch race detector: a genuine cache hit must
            // observe the freshest value ever written to the word; a
            // stale hit means the compiler's mark let a cached copy
            // satisfy a read the last writer should have invalidated.
            if (Observed && _cfg.shadowEpochCheck && res.hit &&
                res.observed != expected)
            {
                ++_res.shadowViolations;
                if (_res.firstShadowViolations.size() < 8) {
                    _res.firstShadowViolations.push_back(ShadowViolation{
                        addr, ref, proc, _epoch,
                        _shadowWriterProc[addr / 4],
                        _shadowWriterEpoch[addr / 4]});
                }
            }
        }
    }

    /**
     * The placement rule: processor @p p's first share of an
     * @p n-iteration epoch is its Block chunk, its Cyclic stride, or its
     * first Dynamic chunk.
     */
    IterShare
    initialShare(std::size_t n, ProcId p) const
    {
        const std::size_t P = _cfg.procs;
        switch (_cfg.sched) {
          case SchedPolicy::Block: {
            const std::size_t chunk = (n + P - 1) / P;
            const std::size_t b = std::min(n, p * chunk);
            return {b, std::min(n, b + chunk), 1};
          }
          case SchedPolicy::Cyclic:
            return {p, n, P};
          case SchedPolicy::Dynamic: {
            const std::size_t b =
                std::min(n, std::size_t(p) * _cfg.dynamicChunk);
            return {b, std::min(n, b + _cfg.dynamicChunk), 1};
          }
        }
        panic("unknown schedule policy");
    }

    /**
     * Dynamic self-scheduling: the next unplaced chunk, for a processor
     * whose share ran out. False once every iteration is placed, which
     * the static schedules are from the start.
     */
    bool
    refill(EpochSync &sync, IterShare &share) const
    {
        if (sync.unplaced >= sync.iterations)
            return false;
        share = {sync.unplaced,
                 std::min(sync.iterations,
                          sync.unplaced + _cfg.dynamicChunk),
                 1};
        sync.unplaced = share.end;
        return true;
    }

    /**
     * One lock, post/wait, call-boundary or end op of processor @p p,
     * already popped from the ready queue; re-queues p and any processor
     * the op wakes.
     */
    void
    rareOp(const StreamOp &op, ProcId p, EpochSync &sync,
           std::vector<OpCursor> &cursors)
    {
        switch (op.kind) {
          case StreamOp::Kind::LockAcquire:
            if (sync.lockOwner == p) {
                // Re-entrant acquisition of the single global lock.
                ++sync.lockDepth;
                _ready.push(_procTime[p], p);
            } else if (sync.lockOwner == invalidProc) {
                sync.lockOwner = p;
                sync.lockDepth = 1;
                _inCritical[p] = 1;
                _procTime[p] += _cfg.lockCycles;
                _ready.push(_procTime[p], p);
            } else {
                sync.lockWaiters.push_back(p); // parked
            }
            break;
          case StreamOp::Kind::LockRelease: {
            hscd_assert(sync.lockOwner == p, "release by non-owner");
            if (--sync.lockDepth > 0) {
                _ready.push(_procTime[p], p);
                break;
            }
            _inCritical[p] = 0;
            sync.lockOwner = invalidProc;
            if (!sync.lockWaiters.empty()) {
                ProcId q = sync.lockWaiters.front();
                sync.lockWaiters.pop_front();
                _procTime[q] =
                    std::max(_procTime[q], _procTime[p]) + _cfg.lockCycles;
                sync.lockOwner = q;
                sync.lockDepth = 1;
                _inCritical[q] = 1;
                _ready.push(_procTime[q], q);
            }
            _ready.push(_procTime[p], p);
            break;
          }
          case StreamOp::Kind::Post: {
            // Release: drain the poster's write buffer first.
            _procTime[p] = std::max(_procTime[p], _scheme.writeDrainTime(p));
            sync.posted.emplace(op.aux, _procTime[p]);
            auto wit = sync.waiters.find(op.aux);
            if (wit != sync.waiters.end()) {
                for (ProcId q : wit->second) {
                    _procTime[q] = std::max(_procTime[q], _procTime[p]) +
                                   _cfg.lockCycles;
                    _ready.push(_procTime[q], q);
                    --sync.parked;
                }
                sync.waiters.erase(wit);
            }
            _ready.push(_procTime[p], p);
            break;
          }
          case StreamOp::Kind::Wait: {
            auto pit = sync.posted.find(op.aux);
            if (pit != sync.posted.end()) {
                _procTime[p] =
                    std::max(_procTime[p], pit->second) + _cfg.lockCycles;
                _ready.push(_procTime[p], p);
            } else {
                sync.waiters[op.aux].push_back(p);
                ++sync.parked;
            }
            break;
          }
          case StreamOp::Kind::CallBoundary:
            if (_cfg.flushAtCalls) {
                _scheme.flushCache(p);
                _procTime[p] += _cfg.callFlushCycles;
            }
            _ready.push(_procTime[p], p);
            break;
          case StreamOp::Kind::End: {
            IterShare share;
            if (refill(sync, share)) {
                cursors[p].assign(share);
                _ready.push(_procTime[p], p);
            }
            break;
          }
          default:
            panic("unexpected op in a task stream");
        }
    }

    /**
     * Global-time interleaving of one parallel epoch of @p n DOALL
     * iterations. Each processor's cursor gets a share of the iterations
     * (initialShare for everyone first, then refill whenever a share is
     * exhausted); its current iteration is the legality checker's task
     * id.
     */
    template <bool Observed, class Scheme>
    void
    mergeEpoch(Scheme &scheme, std::vector<OpCursor> &cursors, std::size_t n,
               bool hasSync)
    {
        ++_res.parallelEpochs;
        _res.tasks += n;
        _syncEpoch = hasSync;

        const unsigned P = _cfg.procs;

        EpochSync sync;
        sync.iterations = n;
        sync.unplaced = _cfg.sched == SchedPolicy::Dynamic
                            ? std::min(n, std::size_t(P) * _cfg.dynamicChunk)
                            : n;
        _ready.clear();
        for (ProcId p = 0; p < P; ++p) {
            cursors[p].assign(initialShare(n, p));
            _ready.push(_procTime[p], p);
        }

        // Watchdog: if this many consecutive merge steps complete without
        // any processor's clock moving, the epoch is livelocked (e.g. a
        // zero-cost self-scheduling refill loop) and the run dies with a
        // post-mortem instead of spinning.
        const std::uint64_t watchdog = _cfg.watchdogStallOps;
        std::uint64_t stalled_ops = 0;

        for (ProcId p = _ready.top().proc;;) {
            hscd_dassert(p == _ready.top().proc,
                         "processor %d issues, not the ready queue's top", p);
            OpCursor &cursor = cursors[p];
            const Cycles t_before = _procTime[p];
            const StreamOp op = cursor.next();
            ProcId next;
            if (op.kind == StreamOp::Kind::Ref ||
                op.kind == StreamOp::Kind::Compute) {
                // Read before the reference goes out: the next top is
                // one compare against it, off the tree update's path.
                const ReadyHeap::Key runner = _ready.runnerUp(p);
                if (op.kind == StreamOp::Kind::Ref)
                    issueRef<Observed>(scheme, p, op, cursor.iter());
                else
                    _procTime[p] += static_cast<Cycles>(op.aux);
                // The Computes that follow move only p's clock, so p
                // issues nothing else before its next op either way:
                // they fold into this step, and p re-queues once.
                _procTime[p] += cursor.takeComputes();
                next = _ready.replaceTop(p, _procTime[p], runner);
            } else {
                // The rare ops may wake other processors, so p leaves
                // the heap before anyone is pushed.
                _ready.pop();
                rareOp(op, p, sync, cursors);
                next = _ready.empty() ? invalidProc : _ready.top().proc;
            }
            if (_procTime[p] != t_before)
                stalled_ops = 0;
            else if (watchdog && ++stalled_ops >= watchdog)
                watchdogAbort(p, stalled_ops, sync);
            if (next == invalidProc)
                break;
            p = next;
        }
        if (sync.parked != 0) {
            if (_m._faultInjector) {
                // Under fault injection a never-posted flag is one of
                // the failures the campaign wants recorded, not a user
                // error: die structured, with the sync state attached.
                fault::AbortInfo info;
                info.kind = fault::AbortKind::Deadlock;
                info.reason = csprintf(
                    "%d processors waiting on never-posted flags at the "
                    "end of a parallel epoch", sync.parked);
                info.epoch = _epoch;
                info.proc = sync.waiters.empty()
                                ? 0
                                : sync.waiters.begin()->second.front();
                info.cycle = _procTime[info.proc];
                info.snapshot = deathSnapshot(sync);
                throw fault::RunAbort(std::move(info));
            }
            fatal("deadlock: %d processors waiting on never-posted "
                  "flags at the end of a parallel epoch", sync.parked);
        }
        hscd_assert(sync.lockOwner == invalidProc &&
                        sync.lockWaiters.empty(),
                    "deadlocked critical section at epoch end");
        _syncEpoch = false;
        closeEpoch();
    }

    /** Account and report the parallel epoch begun at _epochStartT. */
    void
    closeEpoch()
    {
        const Cycles epoch_start = _epochStartT;
        Cycles wall = 0;
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            _busy[p] += _procTime[p] - epoch_start;
            wall = std::max(wall, _procTime[p] - epoch_start);
        }
        _parallelWall += wall;

        if (_trace) {
            for (ProcId p = 0; p < _cfg.procs; ++p)
                if (_procTime[p] > epoch_start)
                    _trace->onSpan(p, _epoch, epoch_start, _procTime[p]);
        }
        _spansEmitted = true;
    }

    Machine &_m;
    const MachineConfig &_cfg;
    mem::CoherenceScheme &_scheme;
    /**
     * The run's observer (null = each per-epoch hook is one null check;
     * the per-reference hooks are not in an unobserved run's loop).
     */
    TraceSink *const _trace;
    Cycles _epochStartT = 0;
    /** The current epoch's processor spans were reported (parallel). */
    bool _spansEmitted = false;

    /** Shadow-epoch detector state (empty unless shadowEpochCheck). */
    ZeroedArray<ProcId> _shadowWriterProc;
    ZeroedArray<EpochId> _shadowWriterEpoch;
    ValueStamp _stampCounter = 0;
    std::vector<Cycles> _procTime;
    /** Processors ready to issue in a parallel epoch, earliest first. */
    ReadyHeap _ready;
    /** Static per-reference facts, indexed by RefId (see RefFacts). */
    std::vector<RefFacts> _facts;
    std::vector<Cycles> _busy;
    Cycles _parallelWall = 0;
    /**
     * The oracle's and the legality check's state, one AccessRec per
     * data word, obtained zeroed (common/zeroed.hh). Flat-indexed by
     * word with a generation tag instead of a hash map keyed by address:
     * the check runs once per simulated reference, and bumping the
     * generation at each boundary replaces the per-epoch clear.
     */
    ZeroedArray<AccessRec> _words;
    std::uint64_t _accessGen = 1;
    std::vector<char> _inCritical;
    std::set<std::int64_t> _serialPosted;
    bool _syncEpoch = false;
    EpochId _epoch = 0;
    ProcId _serialProc = 0;
    Rng _rng;
    RunResult _res;
};

namespace {

/** @p cfg, once validate() accepted it (throws FatalError otherwise). */
MachineConfig
validated(MachineConfig cfg)
{
    cfg.validate();
    return cfg;
}

} // namespace

// The config is validated before any member is built from it: the
// network, caches and line histories divide and shift by its fields.
// Memory holds whole lines, since a fill reads the whole line.
Machine::Machine(Addr dataBytes, MachineConfig cfg)
    : _cfg(validated(std::move(cfg))),
      _memory(roundUp(dataBytes, _cfg.lineBytes)),
      _network(_cfg.procs, _cfg.networkRadix, _cfg.maxNetworkLoad,
               _cfg.topology),
      _scheme(mem::makeScheme(_cfg, _memory, _network))
{
    if (_cfg.fault.enabled())
        attachFaultInjector();
}

Machine::Machine(const compiler::CompiledProgram &cp, MachineConfig cfg)
    : Machine(cp.program.dataBytes(), std::move(cfg))
{
    _cp = &cp;
}

Machine::Machine(const std::vector<TraceRecord> &records, Addr dataBytes,
                 MachineConfig cfg)
    : Machine(dataBytes, std::move(cfg))
{
    // The executor indexes clocks by processor and records by word, and
    // numbers epochs itself.
    EpochId epoch = 0;
    for (const TraceRecord &r : records) {
        if (r.type == TraceRecord::Type::Boundary) {
            if (r.epoch != ++epoch)
                fatal("trace boundary to epoch %d after epoch %d", r.epoch,
                      epoch - 1);
        } else if (r.op.proc >= _cfg.procs) {
            fatal("trace access on processor %d; the machine has %d",
                  r.op.proc, _cfg.procs);
        } else if (r.op.addr / hir::wordBytes >= _memory.words()) {
            fatal("trace access to address %d past the %d data bytes",
                  r.op.addr, dataBytes);
        }
    }
    _records = &records;
}

void
Machine::attachFaultInjector()
{
    _faultInjector = std::make_unique<fault::FaultInjector>(_cfg.fault);
    _network.setFaultInjector(_faultInjector.get());
    _scheme->setFaultInjector(_faultInjector.get());
}

void
Machine::scriptFaults(const std::vector<fault::ScriptedFault> &script)
{
    if (script.empty())
        return;
    if (!_faultInjector)
        attachFaultInjector();
    _faultInjector->script(script);
}

Machine::~Machine() = default;

RunResult
Machine::run()
{
    hscd_assert(!_ran, "Machine::run() is single-shot");
    _ran = true;
    return Executor(*this).run();
}

RunResult
simulate(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    Machine m(cp, cfg);
    return m.run();
}

} // namespace sim
} // namespace hscd
