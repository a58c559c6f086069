#include "sim/stream.hh"

#include <atomic>
#include <mutex>
#include <set>

#include "common/log.hh"
#include "sim/interp.hh"

namespace hscd {
namespace sim {

namespace {

/**
 * A recording larger than this is not built at all (the run falls back
 * to the interpreter). At 16 bytes per op it bounds a program's
 * resident stream to 256 MB.
 */
constexpr std::size_t kMaxStreamOps = std::size_t(1) << 24;

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

/**
 * Record the whole program: the serial master in order, and each DOALL
 * one iteration at a time through a single task-mode stream. Null when
 * the recording passes kMaxStreamOps.
 */
std::shared_ptr<const StreamProgram>
record(const hir::Program &prog)
{
    auto sp = std::make_shared<StreamProgram>();
    std::size_t ops = 0;
    RunCtx ctx;
    TaskStream master(prog, ctx, prog.main().body);
    for (TaskOp op = master.next(); op.kind != TaskOp::Kind::End;
         op = master.next())
    {
        if (++ops > kMaxStreamOps)
            return nullptr;
        if (op.kind != TaskOp::Kind::BeginDoall) {
            sp->master.push_back(streamOpOf(op));
            continue;
        }
        StreamOp begin;
        begin.kind = StreamOp::Kind::BeginDoall;
        begin.aux = static_cast<std::int64_t>(sp->epochs.size());
        sp->master.push_back(begin);

        EpochStream &ep = sp->epochs.emplace_back();
        ep.hasSync = doallBodyHasSync(prog, *op.doall);
        ep.lo = op.lo;
        ep.step = op.step;
        ep.iterBegin.push_back(0);
        TaskStream task(prog, ctx, *op.doall, master.env());
        for (std::int64_t i = op.lo; i <= op.hi; i += op.step) {
            task.addIteration(i);
            for (TaskOp t = task.next(); t.kind != TaskOp::Kind::End;
                 t = task.next())
            {
                if (++ops > kMaxStreamOps)
                    return nullptr;
                ep.ops.push_back(streamOpOf(t));
            }
            ep.iterBegin.push_back(
                static_cast<std::uint32_t>(ep.ops.size()));
        }
    }
    return sp;
}

/**
 * Per-CompiledProgram cache, hung off CompiledProgram::simCache. A null
 * stream once recorded caches "too big to record". The slot mutex
 * serializes the recording, which both guarantees insert-once and keeps
 * concurrent sweep threads from recording the same program twice.
 */
struct CacheSlot
{
    std::mutex mu;
    bool recorded = false;
    std::shared_ptr<const StreamProgram> stream;
};

std::mutex g_slotMu;

// Process-wide cache telemetry, aggregated across every program's slot
// (slots die with their CompiledProgram; a long-lived server wants the
// running totals to survive for /stats).
std::atomic<std::uint64_t> g_streamBuilds{0};
std::atomic<std::uint64_t> g_streamHits{0};

CacheSlot &
slotFor(const compiler::CompiledProgram &cp)
{
    std::lock_guard<std::mutex> g(g_slotMu);
    if (!cp.simCache)
        cp.simCache = std::make_shared<CacheSlot>();
    return *static_cast<CacheSlot *>(cp.simCache.get());
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
        n += ep.ops.size();
    return n;
}

bool
doallBodyHasSync(const hir::Program &prog, const hir::LoopStmt &loop)
{
    std::set<const hir::StmtList *> seen;
    return bodyHasSync(prog, loop.body, seen);
}

std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &cfg)
{
    if (cfg.sched == SchedPolicy::Dynamic)
        return nullptr;

    CacheSlot &slot = slotFor(cp);
    std::lock_guard<std::mutex> g(slot.mu);
    if (slot.recorded) {
        ++g_streamHits;
    } else {
        slot.stream = record(cp.program);
        slot.recorded = true;
        ++g_streamBuilds;
    }
    return slot.stream;
}

StreamCacheStats
streamCacheStats()
{
    StreamCacheStats s;
    s.builds = g_streamBuilds.load();
    s.hits = g_streamHits.load();
    return s;
}

} // namespace sim
} // namespace hscd
