#include "op_equiv.hh"

#include <algorithm>
#include <map>
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

/** An op the executor orders: a Ref, a rare op or an End. */
struct Issued
{
    StreamOp::Kind kind;
    std::int64_t aux;
    hir::RefId ref;
    std::int64_t iter;

    bool operator==(const Issued &) const = default;
};

/** What one processor issued, and its Compute cycles per iteration. */
struct Trace
{
    std::vector<Issued> issued;
    std::map<std::int64_t, Cycles> computes; ///< non-zero sums only
    std::size_t folds = 0; ///< non-zero takeComputes() results

    void
    compute(std::int64_t iter, Cycles cycles)
    {
        if (cycles != 0)
            computes[iter] += cycles;
    }
};

/**
 * Run @p shares on @p c; with @p fold, take the Computes after two of
 * every three Refs and Computes in the same step.
 */
Trace
runShares(OpCursor &c, const std::vector<sim::IterShare> &shares, bool fold)
{
    Trace t;
    unsigned steps = 0;
    for (const sim::IterShare &share : shares) {
        c.assign(share);
        while (true) {
            const StreamOp op = c.next();
            if (op.kind == StreamOp::Kind::Compute)
                t.compute(c.iter(), static_cast<Cycles>(op.aux));
            else
                t.issued.push_back({op.kind, op.aux, op.ref, c.iter()});
            if (op.kind == StreamOp::Kind::End)
                break;
            if (fold && ++steps % 3 != 0 &&
                (op.kind == StreamOp::Kind::Ref ||
                 op.kind == StreamOp::Kind::Compute)) {
                const Cycles cycles = c.takeComputes();
                t.compute(c.iter(), cycles);
                t.folds += cycles != 0;
            }
        }
    }
    return t;
}

/**
 * Processor @p p's shares of @p n iterations: its Block chunk or Cyclic
 * stride as the executor's initialShare gives them, or under Dynamic
 * every @p procs-th chunk of two, dealt round-robin.
 */
std::vector<sim::IterShare>
sharesOf(SchedPolicy sched, std::size_t n, unsigned procs, unsigned p)
{
    switch (sched) {
      case SchedPolicy::Block: {
        const std::size_t chunk = (n + procs - 1) / procs;
        const std::size_t b = std::min(n, p * chunk);
        return {{b, std::min(n, b + chunk), 1}};
      }
      case SchedPolicy::Cyclic:
        return {{p, n, procs}};
      case SchedPolicy::Dynamic: {
        constexpr std::size_t kChunk = 2;
        std::vector<sim::IterShare> shares;
        for (std::size_t b = p * kChunk; b < n; b += procs * kChunk)
            shares.push_back({b, std::min(n, b + kChunk), 1});
        return shares;
      }
    }
    return {};
}

} // namespace

::testing::AssertionResult
computeFoldingMatchesNext(const compiler::CompiledProgram &cp,
                          SchedPolicy sched, unsigned procs,
                          std::size_t *folded)
{
    const std::shared_ptr<const sim::StreamProgram> sp =
        sim::epochStream(cp, MachineConfig{});
    OpCursor master(*sp);
    master.startMaster();
    OpCursor plain(*sp), folding(*sp);
    std::size_t epoch = 0;
    for (StreamOp op = master.next(); op.kind != StreamOp::Kind::End;
         op = master.next())
    {
        if (op.kind != StreamOp::Kind::BeginDoall)
            continue;
        const std::size_t n = master.doallTrips();
        for (unsigned p = 0; p < procs; ++p) {
            const std::vector<sim::IterShare> shares =
                sharesOf(sched, n, procs, p);
            plain.enterEpoch(master);
            folding.enterEpoch(master);
            const Trace want = runShares(plain, shares, false);
            const Trace got = runShares(folding, shares, true);
            if (got.issued != want.issued)
                return ::testing::AssertionFailure()
                       << "DOALL " << epoch << " processor " << p
                       << ": folding changed the issued ops ("
                       << got.issued.size() << " against "
                       << want.issued.size() << ")";
            if (got.computes != want.computes)
                return ::testing::AssertionFailure()
                       << "DOALL " << epoch << " processor " << p
                       << ": folding changed an iteration's Compute "
                          "cycles";
            if (folded)
                *folded += got.folds;
        }
        ++epoch;
    }
    return ::testing::AssertionSuccess();
}

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
