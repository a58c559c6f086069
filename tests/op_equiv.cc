#include "op_equiv.hh"

#include <sstream>
#include <string>
#include <vector>

#include "sim/stream.hh"
#include "task_stream.hh"

namespace hscd {
namespace testref {

namespace {

using sim::OpCursor;
using sim::StreamOp;
using sim::TaskOp;

/** The executor-visible kind of a reference op. */
StreamOp::Kind
kindOf(TaskOp::Kind k)
{
    switch (k) {
      case TaskOp::Kind::Ref: return StreamOp::Kind::Ref;
      case TaskOp::Kind::Compute: return StreamOp::Kind::Compute;
      case TaskOp::Kind::LockAcquire: return StreamOp::Kind::LockAcquire;
      case TaskOp::Kind::LockRelease: return StreamOp::Kind::LockRelease;
      case TaskOp::Kind::Post: return StreamOp::Kind::Post;
      case TaskOp::Kind::Wait: return StreamOp::Kind::Wait;
      case TaskOp::Kind::CallBoundary: return StreamOp::Kind::CallBoundary;
      case TaskOp::Kind::BeginDoall: return StreamOp::Kind::BeginDoall;
      case TaskOp::Kind::Barrier: return StreamOp::Kind::Barrier;
      case TaskOp::Kind::End: return StreamOp::Kind::End;
    }
    return StreamOp::Kind::End;
}

/** The value an op carries in StreamOp::aux, when it carries one. */
bool
sameOp(const TaskOp &r, const StreamOp &l)
{
    if (kindOf(r.kind) != l.kind)
        return false;
    switch (r.kind) {
      case TaskOp::Kind::Ref:
        return static_cast<Addr>(l.aux) == r.addr && l.ref == r.ref;
      case TaskOp::Kind::Compute:
        return static_cast<Cycles>(l.aux) == r.cycles;
      case TaskOp::Kind::Post:
      case TaskOp::Kind::Wait:
        return l.aux == r.flag;
      default:
        return true;
    }
}

std::string
show(const TaskOp &r)
{
    std::ostringstream os;
    os << "kind " << int(kindOf(r.kind)) << " addr " << r.addr << " ref "
       << r.ref << " cycles " << r.cycles << " flag " << r.flag;
    return os.str();
}

std::string
show(const StreamOp &l)
{
    std::ostringstream os;
    os << "kind " << int(l.kind) << " aux " << l.aux << " ref " << l.ref;
    return os.str();
}

} // namespace

::testing::AssertionResult
opsMatchReference(const compiler::CompiledProgram &cp, std::size_t *compared)
{
    const hir::Program &prog = cp.program;
    const std::shared_ptr<const sim::StreamProgram> sp =
        sim::epochStream(cp, MachineConfig{});
    sim::RunCtx ctx;
    sim::TaskStream ref(prog, ctx, prog.main().body);
    OpCursor master(*sp);
    master.startMaster();
    OpCursor task(*sp);
    std::size_t n = 0;
    for (std::size_t epoch = 0;; ++n) {
        const TaskOp r = ref.next();
        const StreamOp l = master.next();
        if (!sameOp(r, l))
            return ::testing::AssertionFailure()
                   << "master op " << n << ": reference " << show(r)
                   << ", lowered " << show(l);
        if (r.kind == TaskOp::Kind::End)
            break;
        if (r.kind != TaskOp::Kind::BeginDoall)
            continue;

        const std::size_t trips = master.doallTrips();
        if (master.doallLo() != r.lo || master.doallHi() != r.hi ||
            trips != static_cast<std::size_t>(
                         r.lo > r.hi ? 0 : (r.hi - r.lo) / r.step + 1))
            return ::testing::AssertionFailure()
                   << "DOALL " << epoch << ": reference bounds " << r.lo
                   << ".." << r.hi << " step " << r.step << ", lowered "
                   << master.doallLo() << ".." << master.doallHi() << " in "
                   << trips << " trips";
        std::vector<std::vector<TaskOp>> expect(trips);
        sim::TaskStream t(prog, ctx, *r.doall, ref.env());
        for (std::size_t k = 0; k < trips; ++k) {
            t.addIteration(r.lo + static_cast<std::int64_t>(k) * r.step);
            for (TaskOp op = t.next(); op.kind != TaskOp::Kind::End;
                 op = t.next())
                expect[k].push_back(op);
        }
        task.enterEpoch(master);
        for (std::size_t k = trips; k-- > 0;) {
            task.assign(sim::IterShare{k, k + 1, 1});
            const std::int64_t iter =
                r.lo + static_cast<std::int64_t>(k) * r.step;
            for (std::size_t i = 0;; ++i, ++n) {
                const StreamOp got = task.next();
                if (i == expect[k].size()) {
                    if (got.kind != StreamOp::Kind::End)
                        return ::testing::AssertionFailure()
                               << "DOALL " << epoch << " iteration " << iter
                               << ": lowered op " << i << " " << show(got)
                               << " past the reference's end";
                    break;
                }
                if (!sameOp(expect[k][i], got) || task.iter() != iter)
                    return ::testing::AssertionFailure()
                           << "DOALL " << epoch << " iteration " << iter
                           << " op " << i << ": reference "
                           << show(expect[k][i]) << ", lowered " << show(got)
                           << " (iteration " << task.iter() << ")";
            }
        }
        ++epoch;
    }
    if (compared)
        *compared = n;
    return ::testing::AssertionSuccess();
}

} // namespace testref
} // namespace hscd
