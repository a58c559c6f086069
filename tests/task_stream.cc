#include "task_stream.hh"

#include "common/log.hh"

namespace hscd {
namespace sim {

using hir::ArrayRefStmt;
using hir::CallStmt;
using hir::ComputeStmt;
using hir::CriticalStmt;
using hir::IfUnknownStmt;
using hir::IntExpr;
using hir::LoopStmt;
using hir::Program;
using hir::StmtKind;
using hir::StmtList;
using hir::TakePolicy;

TaskStream::TaskStream(const Program &prog, RunCtx &ctx,
                       const StmtList &body)
    : _prog(prog), _ctx(ctx)
{
    for (const auto &[name, value] : prog.params().vars())
        _env.bind(name, value);
    push(body);
}

TaskStream::TaskStream(const Program &prog, RunCtx &ctx,
                       const LoopStmt &doall, hir::Env outer_env)
    : _prog(prog), _ctx(ctx), _env(std::move(outer_env)), _taskMode(true),
      _doall(&doall)
{
}

void
TaskStream::addIteration(std::int64_t iter)
{
    _pending.push_back(iter);
}

std::int64_t
TaskStream::evalClamped(const IntExpr &e) const
{
    return e.eval(_env);
}

Addr
TaskStream::refAddr(const ArrayRefStmt &ref)
{
    const hir::ArrayDecl &decl = _prog.array(ref.array);
    // Reused across references: once it has grown to the deepest
    // array's rank, evaluating a subscript list allocates nothing.
    _subscripts.resize(ref.subs.size());
    for (std::size_t d = 0; d < ref.subs.size(); ++d) {
        const IntExpr &e = ref.subs[d];
        std::int64_t dim = decl.dims[d];
        std::int64_t v = e.eval(_env, e.hasUnknown() ? dim : 0);
        if (e.hasUnknown())
            v = ((v % dim) + dim) % dim;
        _subscripts[d] = v;
    }
    return _prog.array(ref.array).elementAddr(_subscripts);
}

void
TaskStream::push(const StmtList &list)
{
    Frame f;
    f.list = &list;
    _frames.push_back(std::move(f));
}

void
TaskStream::pushLoop(const LoopStmt &loop)
{
    std::int64_t lo = evalClamped(loop.lo);
    std::int64_t hi = evalClamped(loop.hi);
    if (lo > hi)
        return;
    Frame f;
    f.list = &loop.body;
    f.loop = &loop;
    f.cur = lo;
    f.hi = hi;
    auto prev = _env.lookup(loop.var);
    f.hadPrev = prev.has_value();
    f.prevValue = prev.value_or(0);
    _env.bind(loop.var, lo);
    _frames.push_back(std::move(f));
}

void
TaskStream::popFrame()
{
    Frame &f = _frames.back();
    if (f.loop) {
        if (f.hadPrev)
            _env.bind(f.loop->var, f.prevValue);
        else
            _env.unbind(f.loop->var);
    }
    _frames.pop_back();
}

bool
TaskStream::evalBranch(const IfUnknownStmt &br)
{
    switch (br.policy) {
      case TakePolicy::Always:
        return true;
      case TakePolicy::Never:
        return false;
      case TakePolicy::Alternate: {
        if (!_taskMode)
            return (_ctx.ifCounters[br.id]++ % 2) == 0;
        // _nextIter counts the iterations started, so it names this one.
        IterCount &c = _iterAlternates[br.id];
        if (c.iteration != _nextIter)
            c = IterCount{_nextIter, 0};
        return (c.trips++ % 2) == 0;
      }
      case TakePolicy::Hash:
        return ((_env.mixHash(_ctx.hashSeed + br.id) >> 7) & 1) != 0;
    }
    return true;
}

TaskOp
TaskStream::next()
{
    while (true) {
        if (_frames.empty()) {
            if (!_taskMode) {
                TaskOp op;
                op.kind = TaskOp::Kind::End;
                return op;
            }
            // Task mode: advance to the next queued iteration.
            if (_nextIter >= _pending.size()) {
                TaskOp op;
                op.kind = TaskOp::Kind::End;
                return op;
            }
            _currentIter = _pending[_nextIter++];
            _env.bind(_doall->var, _currentIter);
            push(_doall->body);
            continue;
        }

        Frame &f = _frames.back();
        if (f.idx >= f.list->size()) {
            if (f.loop) {
                f.cur += f.loop->step;
                if (f.cur <= f.hi) {
                    f.idx = 0;
                    _env.bind(f.loop->var, f.cur);
                    continue;
                }
            }
            bool release = f.releaseLockOnPop;
            bool call_ret = f.callBoundaryOnPop;
            popFrame();
            if (release) {
                TaskOp op;
                op.kind = TaskOp::Kind::LockRelease;
                return op;
            }
            if (call_ret) {
                TaskOp op;
                op.kind = TaskOp::Kind::CallBoundary;
                return op;
            }
            continue;
        }

        const hir::Stmt &s = *(*f.list)[f.idx];
        switch (s.kind()) {
          case StmtKind::ArrayRef: {
            const auto &r = static_cast<const ArrayRefStmt &>(s);
            ++f.idx;
            TaskOp op;
            op.kind = TaskOp::Kind::Ref;
            op.addr = refAddr(r);
            op.write = r.isWrite;
            op.ref = r.id;
            op.array = r.array;
            return op;
          }
          case StmtKind::Compute: {
            const auto &c = static_cast<const ComputeStmt &>(s);
            ++f.idx;
            TaskOp op;
            op.kind = TaskOp::Kind::Compute;
            op.cycles = c.cycles;
            return op;
          }
          case StmtKind::Loop: {
            const auto &l = static_cast<const LoopStmt &>(s);
            if (l.parallel && !_taskMode) {
                ++f.idx; // resume after the DOALL when we return
                TaskOp op;
                op.kind = TaskOp::Kind::BeginDoall;
                op.doall = &l;
                op.lo = evalClamped(l.lo);
                op.hi = evalClamped(l.hi);
                op.step = l.step;
                return op;
            }
            ++f.idx;
            pushLoop(l); // serial (or demoted-parallel) loop
            continue;
          }
          case StmtKind::IfUnknown: {
            const auto &br = static_cast<const IfUnknownStmt &>(s);
            ++f.idx;
            if (evalBranch(br)) {
                if (!br.thenBody.empty())
                    push(br.thenBody);
            } else if (!br.elseBody.empty()) {
                push(br.elseBody);
            }
            continue;
          }
          case StmtKind::Call: {
            const auto &c = static_cast<const CallStmt &>(s);
            ++f.idx;
            push(_prog.procedures()[c.callee].body);
            _frames.back().callBoundaryOnPop = true;
            TaskOp op;
            op.kind = TaskOp::Kind::CallBoundary; // procedure entry
            return op;
          }
          case StmtKind::Critical: {
            const auto &cs = static_cast<const CriticalStmt &>(s);
            ++f.idx;
            push(cs.body);
            _frames.back().releaseLockOnPop = true;
            TaskOp op;
            op.kind = TaskOp::Kind::LockAcquire;
            return op;
          }
          case StmtKind::Barrier: {
            ++f.idx;
            hscd_assert(!_taskMode, "barrier inside a task stream");
            TaskOp op;
            op.kind = TaskOp::Kind::Barrier;
            return op;
          }
          case StmtKind::Sync: {
            const auto &sy = static_cast<const hir::SyncStmt &>(s);
            ++f.idx;
            TaskOp op;
            op.kind = sy.isPost ? TaskOp::Kind::Post
                                : TaskOp::Kind::Wait;
            op.flag = sy.flag.eval(_env);
            return op;
          }
        }
    }
}

} // namespace sim
} // namespace hscd
