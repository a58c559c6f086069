#include "sim/stream.hh"

#include <atomic>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "common/log.hh"
#include "sim/interp.hh"

namespace hscd {
namespace sim {

namespace {

/**
 * Per-stream and per-program op budgets. A recording larger than the
 * hard cap is not built at all (the run falls back to the interpreter);
 * a program's cache evicts least-recently-used shapes once the cached
 * total passes the budget. At 16 bytes per op the budget bounds a
 * program's resident streams to ~128 MB.
 */
constexpr std::size_t kMaxStreamOps = std::size_t(1) << 24;
constexpr std::size_t kCacheBudgetOps = std::size_t(1) << 23;

/**
 * Alternate-policy branches draw from a run-wide alternation counter, so
 * evaluating one from inside a parallel epoch makes its outcome depend
 * on the cross-processor interleaving - which depends on scheme timing.
 * Such programs cannot be recorded once and replayed for every scheme.
 */
bool
alternateInParallel(const hir::Program &prog, const hir::StmtList &body,
                    bool inParallel,
                    std::set<std::pair<const hir::StmtList *, bool>> &seen)
{
    if (!seen.insert({&body, inParallel}).second)
        return false;
    for (const auto &s : body) {
        switch (s->kind()) {
          case hir::StmtKind::Loop: {
            const auto &l = static_cast<const hir::LoopStmt &>(*s);
            if (alternateInParallel(prog, l.body,
                                    inParallel || l.parallel, seen))
                return true;
            break;
          }
          case hir::StmtKind::IfUnknown: {
            const auto &br = static_cast<const hir::IfUnknownStmt &>(*s);
            if (inParallel && br.policy == hir::TakePolicy::Alternate)
                return true;
            if (alternateInParallel(prog, br.thenBody, inParallel, seen) ||
                alternateInParallel(prog, br.elseBody, inParallel, seen))
                return true;
            break;
          }
          case hir::StmtKind::Critical:
            if (alternateInParallel(
                    prog, static_cast<const hir::CriticalStmt &>(*s).body,
                    inParallel, seen))
                return true;
            break;
          case hir::StmtKind::Call:
            if (alternateInParallel(
                    prog,
                    prog.procedures()[static_cast<const hir::CallStmt &>(
                                          *s).callee].body,
                    inParallel, seen))
                return true;
            break;
          default:
            break;
        }
    }
    return false;
}

bool
programShapeEligible(const hir::Program &prog)
{
    std::set<std::pair<const hir::StmtList *, bool>> seen;
    return !alternateInParallel(prog, prog.main().body, false, seen);
}

bool
bodyHasSync(const hir::Program &prog, const hir::StmtList &body,
            std::set<const hir::StmtList *> &seen)
{
    if (!seen.insert(&body).second)
        return false;
    for (const auto &s : body) {
        switch (s->kind()) {
          case hir::StmtKind::Sync:
            return true;
          case hir::StmtKind::Loop:
            if (bodyHasSync(
                    prog, static_cast<const hir::LoopStmt &>(*s).body,
                    seen))
                return true;
            break;
          case hir::StmtKind::IfUnknown: {
            const auto &br = static_cast<const hir::IfUnknownStmt &>(*s);
            if (bodyHasSync(prog, br.thenBody, seen) ||
                bodyHasSync(prog, br.elseBody, seen))
                return true;
            break;
          }
          case hir::StmtKind::Critical:
            if (bodyHasSync(
                    prog,
                    static_cast<const hir::CriticalStmt &>(*s).body, seen))
                return true;
            break;
          case hir::StmtKind::Call:
            if (bodyHasSync(
                    prog,
                    prog.procedures()[static_cast<const hir::CallStmt &>(
                                          *s).callee].body,
                    seen))
                return true;
            break;
          default:
            break;
        }
    }
    return false;
}

/** Recording pass: interpret once, emit flat ops. */
class StreamBuilder
{
  public:
    StreamBuilder(const compiler::CompiledProgram &cp,
                  const MachineConfig &cfg)
        : _prog(cp.program), _cfg(cfg)
    {}

    std::shared_ptr<const StreamProgram>
    build()
    {
        auto sp = std::make_shared<StreamProgram>();
        RunCtx ctx;
        TaskStream master(_prog, ctx, _prog.main().body);
        while (true) {
            TaskOp op = master.next();
            if (op.kind == TaskOp::Kind::End)
                break;
            if (op.kind == TaskOp::Kind::BeginDoall) {
                StreamOp rec;
                rec.kind = StreamOp::Kind::BeginDoall;
                rec.aux = static_cast<std::int64_t>(sp->epochs.size());
                sp->master.push_back(rec);
                if (!recordEpoch(*sp, op, master.env(), ctx))
                    return nullptr; // op cap exceeded
            } else {
                sp->master.push_back(streamOpOf(op));
            }
            if (++_ops > kMaxStreamOps)
                return nullptr;
        }
        return sp;
    }

  private:
    /**
     * Record one parallel epoch. Iteration placement mirrors the
     * executor exactly (same chunking arithmetic); each processor's
     * stream is then interpreted to completion independently, which is
     * legal precisely because eligible programs' task streams do not
     * read cross-stream interpreter state.
     */
    bool
    recordEpoch(StreamProgram &sp, const TaskOp &doall,
                const hir::Env &outer, RunCtx &ctx)
    {
        EpochStream ep;
        ep.hasSync = doallBodyHasSync(_prog, *doall.doall);
        const unsigned P = _cfg.procs;

        std::vector<std::unique_ptr<TaskStream>> streams;
        streams.reserve(P);
        for (unsigned p = 0; p < P; ++p)
            streams.push_back(std::make_unique<TaskStream>(
                _prog, ctx, *doall.doall, outer));

        std::vector<std::int64_t> iters;
        for (std::int64_t i = doall.lo; i <= doall.hi; i += doall.step)
            iters.push_back(i);
        ep.taskCount = iters.size();

        switch (_cfg.sched) {
          case SchedPolicy::Block: {
            std::size_t chunk = (iters.size() + P - 1) / P;
            for (unsigned p = 0; p < P; ++p) {
                std::size_t b = p * chunk;
                std::size_t e = std::min(iters.size(), b + chunk);
                for (std::size_t i = b; i < e; ++i)
                    streams[p]->addIteration(iters[i]);
            }
            break;
          }
          case SchedPolicy::Cyclic:
            for (std::size_t i = 0; i < iters.size(); ++i)
                streams[i % P]->addIteration(iters[i]);
            break;
          case SchedPolicy::Dynamic:
            panic("cannot record a dynamically scheduled epoch");
        }

        ep.perProc.resize(P);
        for (unsigned p = 0; p < P; ++p) {
            std::vector<StreamOp> &out = ep.perProc[p];
            std::int64_t cur = -1;
            while (true) {
                TaskOp op = streams[p]->next();
                if (op.kind == TaskOp::Kind::End)
                    break;
                if (streams[p]->currentIteration() != cur) {
                    cur = streams[p]->currentIteration();
                    StreamOp is;
                    is.kind = StreamOp::Kind::IterStart;
                    is.aux = cur;
                    out.push_back(is);
                    ++_ops;
                }
                out.push_back(streamOpOf(op));
                if (++_ops > kMaxStreamOps)
                    return false;
            }
        }
        sp.epochs.push_back(std::move(ep));
        return true;
    }

    const hir::Program &_prog;
    const MachineConfig &_cfg;
    std::size_t _ops = 0;
};

/**
 * Per-CompiledProgram cache, hung off CompiledProgram::simCache.
 * Entries are keyed by the config fields that shape a stream; a null
 * entry caches "too big to record". The slot mutex serializes builds,
 * which both guarantees insert-once and keeps concurrent sweep threads
 * from recording the same shape twice.
 */
struct CacheSlot
{
    using Key = std::pair<unsigned, int>; ///< (procs, sched)

    std::mutex mu;
    std::optional<bool> eligible;
    std::map<Key, std::shared_ptr<const StreamProgram>> entries;
    std::list<Key> lru; ///< front = most recently used
    std::size_t totalOps = 0;
};

std::mutex g_slotMu;

// Process-wide cache telemetry, aggregated across every program's slot
// (slots die with their CompiledProgram; a long-lived server wants the
// running totals to survive for /stats).
std::atomic<std::uint64_t> g_streamBuilds{0};
std::atomic<std::uint64_t> g_streamHits{0};
std::atomic<std::uint64_t> g_streamEvictions{0};

CacheSlot &
slotFor(const compiler::CompiledProgram &cp)
{
    std::lock_guard<std::mutex> g(g_slotMu);
    if (!cp.simCache)
        cp.simCache = std::make_shared<CacheSlot>();
    return *static_cast<CacheSlot *>(cp.simCache.get());
}

void
touchLru(CacheSlot &slot, const CacheSlot::Key &key)
{
    slot.lru.remove(key);
    slot.lru.push_front(key);
}

} // namespace

StreamOp
streamOpOf(const TaskOp &op)
{
    StreamOp rec;
    switch (op.kind) {
      case TaskOp::Kind::Ref:
        rec.kind = StreamOp::Kind::Ref;
        rec.aux = static_cast<std::int64_t>(op.addr);
        rec.ref = op.ref;
        break;
      case TaskOp::Kind::Compute:
        rec.kind = StreamOp::Kind::Compute;
        rec.aux = static_cast<std::int64_t>(op.cycles);
        break;
      case TaskOp::Kind::LockAcquire:
        rec.kind = StreamOp::Kind::LockAcquire;
        break;
      case TaskOp::Kind::LockRelease:
        rec.kind = StreamOp::Kind::LockRelease;
        break;
      case TaskOp::Kind::Post:
        rec.kind = StreamOp::Kind::Post;
        rec.aux = op.flag;
        break;
      case TaskOp::Kind::Wait:
        rec.kind = StreamOp::Kind::Wait;
        rec.aux = op.flag;
        break;
      case TaskOp::Kind::CallBoundary:
        rec.kind = StreamOp::Kind::CallBoundary;
        break;
      case TaskOp::Kind::Barrier:
        rec.kind = StreamOp::Kind::Barrier;
        break;
      case TaskOp::Kind::End:
        rec.kind = StreamOp::Kind::End;
        break;
      case TaskOp::Kind::BeginDoall:
        panic("a DOALL has no single-record stream form");
    }
    return rec;
}

std::size_t
StreamProgram::opCount() const
{
    std::size_t n = master.size();
    for (const EpochStream &ep : epochs)
        for (const std::vector<StreamOp> &v : ep.perProc)
            n += v.size();
    return n;
}

bool
doallBodyHasSync(const hir::Program &prog, const hir::LoopStmt &loop)
{
    std::set<const hir::StmtList *> seen;
    return bodyHasSync(prog, loop.body, seen);
}

bool
streamEligible(const compiler::CompiledProgram &cp,
               const MachineConfig &cfg)
{
    if (cfg.sched == SchedPolicy::Dynamic)
        return false;
    return programShapeEligible(cp.program);
}

std::shared_ptr<const StreamProgram>
buildStreamProgram(const compiler::CompiledProgram &cp,
                   const MachineConfig &cfg)
{
    if (!streamEligible(cp, cfg))
        return nullptr;
    return StreamBuilder(cp, cfg).build();
}

std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    if (cfg.sched == SchedPolicy::Dynamic)
        return nullptr;

    CacheSlot &slot = slotFor(cp);
    std::lock_guard<std::mutex> g(slot.mu);

    if (!slot.eligible.has_value())
        slot.eligible = programShapeEligible(cp.program);
    if (!*slot.eligible)
        return nullptr;

    CacheSlot::Key key{cfg.procs, static_cast<int>(cfg.sched)};
    auto it = slot.entries.find(key);
    if (it != slot.entries.end()) {
        touchLru(slot, key);
        ++g_streamHits;
        return it->second;
    }

    auto sp = StreamBuilder(cp, cfg).build();
    slot.entries[key] = sp;
    slot.lru.push_front(key);
    ++g_streamBuilds;
    if (sp)
        slot.totalOps += sp->opCount();

    // Evict least-recently-used shapes past the budget. Dropping the
    // shared_ptr is safe even mid-run: in-flight executors hold their
    // own reference.
    while (slot.totalOps > kCacheBudgetOps && slot.lru.size() > 1) {
        CacheSlot::Key victim = slot.lru.back();
        slot.lru.pop_back();
        auto vit = slot.entries.find(victim);
        if (vit != slot.entries.end()) {
            if (vit->second)
                slot.totalOps -= vit->second->opCount();
            slot.entries.erase(vit);
            ++g_streamEvictions;
        }
    }
    return sp;
}

StreamCacheStats
streamCacheStats()
{
    StreamCacheStats s;
    s.builds = g_streamBuilds.load();
    s.hits = g_streamHits.load();
    s.evictions = g_streamEvictions.load();
    return s;
}

} // namespace sim
} // namespace hscd
