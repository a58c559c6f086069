#include "sim/machine.hh"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <type_traits>
#include <utility>

#include "common/log.hh"
#include "common/rng.hh"
#include "common/strutil.hh"
#include "mem/base_scheme.hh"
#include "mem/directory_scheme.hh"
#include "mem/sc_scheme.hh"
#include "mem/tpi_scheme.hh"
#include "mem/vc_scheme.hh"
#include "obs/metrics.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"
#include "sim/interp.hh"
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

namespace {

/**
 * Copy each scheme counter into the same-named member of @p row (a
 * RunResult or an obs::MetricSample); counters @p row has no member
 * for are skipped.
 */
template <class Row, class Stats>
void
copySchemeCounters(Row &row, const Stats &st)
{
#define HSCD_COPY_COUNTER(type, member, ...)                                 \
    if constexpr (requires { row.member = st.member.value(); })              \
        row.member = st.member.value();
    HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_COPY_COUNTER)
    HSCD_SCHEME_ONLY_STATS(HSCD_COPY_COUNTER)
#undef HSCD_COPY_COUNTER
}

} // namespace

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
 * Execution engine: walks the program with a master serial stream and
 * interleaves parallel-epoch task streams in global time order.
 *
 * Two sources can feed the engine. The interpreted path walks HIR
 * statements through TaskStream per reference; the epoch-stream fast
 * path (sim/stream.hh) replays the program's recorded iterations
 * instead. mergeEpoch places DOALL iterations on processors with one
 * rule for both (initialShare and refill), and every operation goes
 * through the same issueRef/merge/boundary machinery, templated on the
 * concrete coherence scheme so the per-reference access call is direct
 * rather than virtual; results are
 * byte-identical by construction (and enforced by the equivalence
 * tests).
 */
class Executor
{
  public:
    explicit Executor(Machine &m)
        : _m(m), _cfg(m._cfg), _prog(m._cp.program),
          _marking(m._cp.marking), _scheme(*m._scheme),
          _tl(m._timeline), _mx(m._metrics),
          _lastStamp(m._memory.words(), 0),
          _procTime(m._cfg.procs, 0),
          _busy(m._cfg.procs, 0),
          _epochAccess(m._memory.words()),
          _inCritical(m._cfg.procs, 0),
          _rng(m._cfg.migrationSeed)
    {
        if (_cfg.shadowEpochCheck) {
            _shadowWriterProc.assign(m._memory.words(), 0);
            _shadowWriterEpoch.assign(m._memory.words(), 0);
        }
        _facts.resize(_prog.refCount());
        for (hir::RefId id = 0; id < _prog.refCount(); ++id) {
            const hir::ArrayRefStmt &stmt = *_prog.refInfo(id).stmt;
            const compiler::Mark &mark = _marking.mark(id);
            RefFacts &f = _facts[id];
            f.array = stmt.array;
            f.write = stmt.isWrite;
            f.markCritical = mark.reason == compiler::MarkReason::Critical;
            if (!stmt.isWrite) {
                f.mark = mark.kind;
                f.distance = mark.distance;
            }
        }
        _ready.reserve(_cfg.procs);
    }

    RunResult
    run()
    {
        try {
            return dispatchByScheme();
        } catch (fault::RunAbort &ab) {
            // Structured termination: counters are harvested up to the
            // point of death, and the abort record (with its post-mortem
            // snapshot) rides along in the RunResult instead of the run
            // spinning forever or dying on an assert. The same path
            // serves the interpreter and the fast path - the abort is
            // thrown from machinery both share.
            finish();
            if (_tl)
                _tl->instant(obs::Timeline::InstantKind::Abort,
                             ab.info.proc, _epoch, ab.info.cycle,
                             static_cast<std::uint64_t>(ab.info.kind));
            _res.abort = std::move(ab.info);
            return _res;
        }
    }

  private:
    RunResult
    dispatchByScheme()
    {
        std::shared_ptr<const StreamProgram> sp;
        if (_cfg.fastPath) {
            obs::PhaseTimer t(_m._profiled ? &_res.profile.streamMs
                                           : nullptr);
            sp = epochStream(_m._cp, _cfg);
        }
        switch (_cfg.scheme) {
          case SchemeKind::Base:
            return dispatch(static_cast<mem::BaseScheme &>(_scheme), sp);
          case SchemeKind::SC:
            return dispatch(static_cast<mem::ScScheme &>(_scheme), sp);
          case SchemeKind::TPI:
            return dispatch(static_cast<mem::TpiScheme &>(_scheme), sp);
          case SchemeKind::HW:
            return dispatch(static_cast<mem::DirectoryScheme &>(_scheme),
                            sp);
          case SchemeKind::VC:
            return dispatch(static_cast<mem::VcScheme &>(_scheme), sp);
        }
        panic("unknown scheme kind");
    }

  private:
    /**
     * What the engine needs to know about a reference that does not vary
     * between its dynamic instances. Built once per run from the program
     * and the current marking; both operation sources carry only the
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

    /**
     * Iterations of one epoch that a processor runs next: indices
     * k = begin, begin + stride, ... below end, where index k is the
     * DOALL value lo + k * step.
     */
    struct IterShare
    {
        std::size_t begin = 0;
        std::size_t end = 0;
        std::size_t stride = 1;
    };

    /** Replays one processor's share of a recorded epoch. */
    class StreamCursor
    {
      public:
        explicit StreamCursor(const EpochStream &ep) : _ep(ep) {}

        /** Run @p share next (before the first op or after an End). */
        void assign(IterShare share) { _share = share; }

        /** Next op (End when the share is exhausted). */
        StreamOp
        next()
        {
            while (_cur == _end) {
                if (_share.begin >= _share.end)
                    return StreamOp{};
                const std::size_t k = _share.begin;
                _share.begin += _share.stride;
                _cur = _ep.ops.data() + _ep.iterBegin[k];
                _end = _ep.ops.data() + _ep.iterBegin[k + 1];
                _iter = _ep.lo + static_cast<std::int64_t>(k) * _ep.step;
            }
            // Sixteen processors' streams are read in turn; fetch this
            // one's a few lines ahead (an address, never read, so running
            // past the end is harmless).
            __builtin_prefetch(reinterpret_cast<const void *>(
                reinterpret_cast<std::uintptr_t>(_cur) + kPrefetchBytes));
            return *_cur++;
        }

        /** Iteration of the op last returned (-1 before the first). */
        std::int64_t iter() const { return _iter; }

      private:
        static constexpr std::uintptr_t kPrefetchBytes = 256;

        const EpochStream &_ep;
        IterShare _share{};
        const StreamOp *_cur = nullptr;
        const StreamOp *_end = nullptr;
        std::int64_t _iter = -1;
    };

    template <class Scheme>
    RunResult
    dispatch(Scheme &scheme, const std::shared_ptr<const StreamProgram> &sp)
    {
        return sp ? runStream(scheme, *sp) : runInterp(scheme);
    }

    template <class Scheme>
    RunResult
    runInterp(Scheme &scheme)
    {
        RunCtx ctx;
        TaskStream master(_prog, ctx, _prog.main().body);
        while (true) {
            TaskOp op = master.next();
            if (op.kind == TaskOp::Kind::End)
                break;
            switch (op.kind) {
              case TaskOp::Kind::Ref:
                issueRef(scheme, _serialProc, streamOpOf(op), -1);
                break;
              case TaskOp::Kind::Barrier:
                boundary();
                break;
              case TaskOp::Kind::BeginDoall:
                boundary();
                runParallelInterp(scheme, op, master.env(), ctx);
                boundary();
                migrateSerialTask();
                break;
              default:
                serialOp(streamOpOf(op));
                break;
            }
        }
        finish();
        return _res;
    }

    template <class Scheme>
    RunResult
    runStream(Scheme &scheme, const StreamProgram &sp)
    {
        for (const StreamOp &rec : sp.master) {
            switch (rec.kind) {
              case StreamOp::Kind::Ref:
                issueRef(scheme, _serialProc, rec, -1);
                break;
              case StreamOp::Kind::Barrier:
                boundary();
                break;
              case StreamOp::Kind::BeginDoall:
                boundary();
                runParallelStream(
                    scheme,
                    sp.epochs[static_cast<std::size_t>(rec.aux)]);
                boundary();
                migrateSerialTask();
                break;
              default:
                serialOp(rec);
                break;
            }
        }
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
        if (_tl && !_spansEmitted && _procTime[_serialProc] > _epochStartT) {
            // Serial region of the closing epoch (parallel epochs emit
            // their spans in mergeEpoch).
            _tl->procSpan(_serialProc, _epoch, _epochStartT,
                          _procTime[_serialProc]);
        }
        _spansEmitted = false;
        t += _cfg.barrierCycles;
        ++_epoch;
        if (_m._trace)
            _m._trace->onBoundary(_epoch);
        const Cycles reset = _scheme.epochBoundary(_epoch);
        t += reset;
        if (_tl) {
            if (reset > 0) {
                _tl->resetWindow(_epoch, t - reset, reset);
                _tl->instant(obs::Timeline::InstantKind::TagReset,
                             obs::Timeline::memTrack(_cfg.procs), _epoch,
                             t - reset, _scheme.stats().tagResets.value());
            }
            if (_m._faultInjector) {
                const Counter n = _m._faultInjector->stats().totalInjected();
                if (n != _faultsSeen) {
                    _tl->instant(obs::Timeline::InstantKind::FaultInjected,
                                 obs::Timeline::memTrack(_cfg.procs),
                                 _epoch, t, n - _faultsSeen);
                    _faultsSeen = n;
                }
            }
        }
        for (ProcId p = 0; p < _cfg.procs; ++p)
            _procTime[p] = t;
        _m._network.endWindow(t);
        ++_accessGen; // invalidates every per-epoch access record
        _serialPosted.clear();
        ++_res.epochs;
        _epochStartT = t;
        if (_mx && _mx->dueEpoch(_epoch))
            _mx->record(sampleNow(t));
    }

    /** Snapshot the cumulative counters for a metrics row. */
    obs::MetricSample
    sampleNow(Cycles now) const
    {
        obs::MetricSample s;
        s.epoch = _epoch;
        s.cycle = now;
        copySchemeCounters(s, _scheme.stats());
        s.trafficPackets = _m._network.totalPackets();
        s.trafficWords = _m._network.totalWords();
        if (_m._faultInjector)
            s.faultsInjected = _m._faultInjector->stats().totalInjected();
        Cycles pending = 0;
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            const Cycles drain = _scheme.writeDrainTime(p);
            if (drain > now)
                pending += drain - now;
        }
        s.writePending = pending;
        s.networkLoad = _m._network.load();
        return s;
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

        if (_tl && !_spansEmitted && _procTime[_serialProc] > _epochStartT) {
            // Trailing serial region (the program ends without a final
            // barrier).
            _tl->procSpan(_serialProc, _epoch, _epochStartT,
                          _procTime[_serialProc]);
        }

        copySchemeCounters(_res, _scheme.stats());
        _res.readMissRate = _scheme.readMissRate();
        _res.avgMissLatency = _scheme.stats().missLatency.mean();
        _res.trafficPackets = _m._network.totalPackets();
        _res.trafficWords = _m._network.totalWords();

        Cycles busy_sum = 0;
        for (ProcId p = 0; p < _cfg.procs; ++p) {
            _res.busyMax = std::max(_res.busyMax, _busy[p]);
            busy_sum += _busy[p];
        }
        _res.busyAvg = double(busy_sum) / double(_cfg.procs);
        _res.serialCycles =
            _res.cycles > _parallelWall ? _res.cycles - _parallelWall : 0;

        if (const fault::FaultInjector *inj = _m._faultInjector.get()) {
            const fault::FaultStats &fs = inj->stats();
            _res.faultsInjected = fs.totalInjected();
            _res.faultsRecovered = fs.recovered;
            _res.faultRetries = fs.retries;
        }
    }

    /** DOALL legality: cross-task same-word conflicts are data races. */
    void
    checkLegality(Addr addr, std::int64_t task, bool write, bool critical)
    {
        hscd_dassert(addr / 4 < _epochAccess.size(),
                     "access record for address %#x out of range", addr);
        AccessRec &rec = _epochAccess[addr / 4];
        if (rec.gen != _accessGen) {
            rec.gen = _accessGen;
            rec.task = task;
            rec.wrote = write;
            rec.critical = critical;
            return;
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
    }

    template <class Scheme>
    void
    issueRef(Scheme &scheme, ProcId proc, const StreamOp &op,
             std::int64_t task)
    {
        hscd_dassert(op.ref < _facts.size(), "reference %d has no facts",
                     op.ref);
        const RefFacts &f = _facts[op.ref];
        const Addr addr = static_cast<Addr>(op.aux);
        bool critical = f.markCritical || _inCritical[proc] != 0;
        checkLegality(addr, task, f.write, critical);

        MemOp mop;
        mop.proc = proc;
        mop.addr = addr;
        mop.write = f.write;
        mop.arrayId = f.array;
        // Lock- or sync-ordered epochs allow another task to write the
        // same word later in the epoch; TPI must not vouch for such
        // writes beyond EC - 1.
        mop.critical = _inCritical[proc] != 0 || _syncEpoch;
        mop.now = _procTime[proc];
        if (f.write) {
            mop.stamp = ++_stampCounter;
            _lastStamp[addr / 4] = mop.stamp;
            if (_cfg.shadowEpochCheck) {
                _shadowWriterProc[addr / 4] = proc;
                _shadowWriterEpoch[addr / 4] = _epoch;
            }
        } else {
            mop.mark = f.mark;
            mop.distance = f.distance;
        }

        if (_m._trace)
            _m._trace->onAccess(mop);
        mem::AccessResult res = scheme.access(mop);
        _procTime[proc] += res.stall;

        if (_m._trace)
            _m._trace->onOutcome(mop, res, _epoch);
        if (_tl && !res.hit && res.cls != mem::MissClass::None) {
            _tl->missFlow(proc, _epoch, mop.addr, mop.now, res.stall,
                          static_cast<std::uint8_t>(res.cls),
                          static_cast<std::uint8_t>(mop.mark),
                          mop.distance);
        }
        if (_mx && _mx->dueCycle(_procTime[proc]))
            _mx->record(sampleNow(_procTime[proc]));

        if (!f.write) {
            ValueStamp expected = _lastStamp[addr / 4];
            if (res.observed != expected) {
                ++_res.oracleViolations;
                if (_res.firstViolations.size() < 8) {
                    _res.firstViolations.push_back(OracleViolation{
                        addr, op.ref, res.observed, expected, _epoch,
                        proc});
                }
            }
            // Shadow-epoch race detector: a genuine cache hit must
            // observe the freshest value ever written to the word; a
            // stale hit means the compiler's mark let a cached copy
            // satisfy a read the last writer should have invalidated.
            if (_cfg.shadowEpochCheck && res.hit &&
                res.observed != expected)
            {
                ++_res.shadowViolations;
                if (_res.firstShadowViolations.size() < 8) {
                    _res.firstShadowViolations.push_back(ShadowViolation{
                        addr, op.ref, proc, _epoch,
                        _shadowWriterProc[addr / 4],
                        _shadowWriterEpoch[addr / 4]});
                }
            }
        }
    }

    /** Does the DOALL body contain post/wait (memoized)? */
    bool
    doallHasSync(const hir::LoopStmt *loop)
    {
        auto it = _doallSync.find(loop);
        if (it != _doallSync.end())
            return it->second;
        bool has = doallBodyHasSync(_prog, *loop);
        _doallSync[loop] = has;
        return has;
    }

    /**
     * The placement rule both operation sources use: processor @p p's
     * first share of an @p n-iteration epoch is its Block chunk, its
     * Cyclic stride, or its first Dynamic chunk.
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

    template <class Scheme>
    void
    runParallelInterp(Scheme &scheme, const TaskOp &doall,
                      const hir::Env &outer, RunCtx &ctx)
    {
        std::vector<std::unique_ptr<TaskStream>> streams;
        streams.reserve(_cfg.procs);
        for (ProcId p = 0; p < _cfg.procs; ++p)
            streams.push_back(std::make_unique<TaskStream>(
                _prog, ctx, *doall.doall, outer));

        const std::size_t n =
            doall.lo > doall.hi
                ? 0
                : static_cast<std::size_t>((doall.hi - doall.lo) /
                                           doall.step) + 1;
        mergeEpoch(
            scheme, n, doallHasSync(doall.doall),
            [&](ProcId p) { return streamOpOf(streams[p]->next()); },
            [&](ProcId p) { return streams[p]->currentIteration(); },
            [&](ProcId p, IterShare share) {
                for (std::size_t k = share.begin; k < share.end;
                     k += share.stride)
                    streams[p]->addIteration(
                        doall.lo + static_cast<std::int64_t>(k) * doall.step);
            });
    }

    template <class Scheme>
    void
    runParallelStream(Scheme &scheme, const EpochStream &ep)
    {
        std::vector<StreamCursor> cursors(_cfg.procs, StreamCursor(ep));
        mergeEpoch(
            scheme, ep.iterations(), ep.hasSync,
            [&](ProcId p) { return cursors[p].next(); },
            [&](ProcId p) { return cursors[p].iter(); },
            [&](ProcId p, IterShare share) { cursors[p].assign(share); });
    }

    /**
     * One lock, post/wait, call-boundary or end op of processor @p p,
     * already popped from the ready heap; re-queues p and any processor
     * the op wakes.
     */
    template <class AssignFn>
    void
    rareOp(const StreamOp &op, ProcId p, EpochSync &sync, AssignFn &assign)
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
                assign(p, share);
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
     * iterations. @p assign hands processor p a share of the iterations
     * (initialShare for everyone first, then refill whenever a stream is
     * exhausted), @p nextOp yields the next operation of p's task
     * stream, and @p iterOf its current iteration (the legality
     * checker's task id).
     */
    template <class Scheme, class NextFn, class IterFn, class AssignFn>
    void
    mergeEpoch(Scheme &scheme, std::size_t n, bool hasSync, NextFn &&nextOp,
               IterFn &&iterOf, AssignFn &&assign)
    {
        ++_res.parallelEpochs;
        _res.tasks += n;
        _syncEpoch = hasSync;

        const unsigned P = _cfg.procs;
        const Cycles epoch_start = _procTime[0]; // all equal post-barrier

        EpochSync sync;
        sync.iterations = n;
        sync.unplaced = _cfg.sched == SchedPolicy::Dynamic
                            ? std::min(n, std::size_t(P) * _cfg.dynamicChunk)
                            : n;
        _ready.clear();
        for (ProcId p = 0; p < P; ++p) {
            assign(p, initialShare(n, p));
            _ready.push(_procTime[p], p);
        }

        // Watchdog: if this many consecutive operations complete without
        // any processor's clock moving, the epoch is livelocked (e.g. a
        // zero-cost self-scheduling refill loop) and the run dies with a
        // post-mortem instead of spinning.
        const std::uint64_t watchdog = _cfg.watchdogStallOps;
        std::uint64_t stalled_ops = 0;

        while (!_ready.empty()) {
            const ProcId p = _ready.top().proc;
            const Cycles t_before = _procTime[p];
            const StreamOp op = nextOp(p);
            if (op.kind == StreamOp::Kind::Ref) {
                // Only p re-queues: one sift-down instead of pop + push.
                issueRef(scheme, p, op, iterOf(p));
                _ready.replaceTop(_procTime[p]);
            } else if (op.kind == StreamOp::Kind::Compute) {
                _procTime[p] += static_cast<Cycles>(op.aux);
                _ready.replaceTop(_procTime[p]);
            } else {
                // The rare ops may wake other processors, so p leaves
                // the heap before anyone is pushed.
                _ready.pop();
                rareOp(op, p, sync, assign);
            }
            if (_procTime[p] != t_before)
                stalled_ops = 0;
            else if (watchdog && ++stalled_ops >= watchdog)
                watchdogAbort(p, stalled_ops, sync);
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

        Cycles wall = 0;
        for (unsigned p = 0; p < P; ++p) {
            _busy[p] += _procTime[p] - epoch_start;
            wall = std::max(wall, _procTime[p] - epoch_start);
        }
        _parallelWall += wall;

        if (_tl) {
            for (unsigned p = 0; p < P; ++p)
                if (_procTime[p] > epoch_start)
                    _tl->procSpan(p, _epoch, epoch_start, _procTime[p]);
            _spansEmitted = true;
        }
    }

    struct AccessRec
    {
        std::int64_t task = 0;
        std::uint64_t gen = 0;  ///< epoch generation tag (0 = never)
        bool wrote = false;
        bool critical = false;
    };

    Machine &_m;
    const MachineConfig &_cfg;
    const hir::Program &_prog;
    const compiler::Marking &_marking;
    mem::CoherenceScheme &_scheme;
    /** Observability recorders (null = hooks compile to a null check). */
    obs::Timeline *_tl;
    obs::MetricsRecorder *_mx;
    Cycles _epochStartT = 0;
    Counter _faultsSeen = 0;
    bool _spansEmitted = false;

    std::vector<ValueStamp> _lastStamp;
    /** Shadow-epoch detector state (empty unless shadowEpochCheck). */
    std::vector<ProcId> _shadowWriterProc;
    std::vector<EpochId> _shadowWriterEpoch;
    ValueStamp _stampCounter = 0;
    std::vector<Cycles> _procTime;
    /** Processors ready to issue in a parallel epoch, earliest first. */
    ReadyHeap _ready;
    /** Static per-reference facts, indexed by RefId (see RefFacts). */
    std::vector<RefFacts> _facts;
    std::vector<Cycles> _busy;
    Cycles _parallelWall = 0;
    /**
     * Per-epoch access records, flat-indexed by word with a generation
     * tag instead of a hash map keyed by address: the legality check
     * runs once per simulated reference, and bumping the generation at
     * each boundary replaces the per-epoch clear.
     */
    std::vector<AccessRec> _epochAccess;
    std::uint64_t _accessGen = 1;
    std::vector<char> _inCritical;
    std::set<std::int64_t> _serialPosted;
    std::map<const hir::LoopStmt *, bool> _doallSync;
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
Machine::Machine(const compiler::CompiledProgram &cp, MachineConfig cfg)
    : _cp(cp), _cfg(validated(std::move(cfg))), _root("machine"),
      _memory(cp.program.dataBytes()),
      _network(&_root, _cfg.procs, _cfg.networkRadix, _cfg.maxNetworkLoad,
               _cfg.topology),
      _scheme(mem::makeScheme(_cfg, _memory, _network, &_root))
{
    if (_cfg.fault.enabled()) {
        _faultInjector = std::make_unique<fault::FaultInjector>(_cfg.fault);
        _network.setFaultInjector(_faultInjector.get());
        _scheme->setFaultInjector(_faultInjector.get());
    }
}

Machine::~Machine() = default;

RunResult
Machine::run()
{
    hscd_assert(!_ran, "Machine::run() is single-shot");
    _ran = true;
    Executor ex(*this);
    if (!_profiled)
        return ex.run();
    const double t0 = obs::nowMs();
    RunResult res = ex.run();
    // execMs includes the stream build; profile.streamMs reports the
    // build's share separately.
    res.profile.execMs += obs::nowMs() - t0;
    res.profile.rssPeakKb = obs::currentRssPeakKb();
    return res;
}

RunResult
simulate(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    Machine m(cp, cfg);
    return m.run();
}

} // namespace sim
} // namespace hscd
