/** @file Unit tests for the TaskStream reference interpreter. */

#include <gtest/gtest.h>

#include "hir/builder.hh"
#include "task_stream.hh"

using namespace hscd;
using namespace hscd::hir;
using namespace hscd::sim;

namespace {

std::vector<TaskOp>
drain(TaskStream &s, std::size_t limit = 10000)
{
    std::vector<TaskOp> ops;
    while (ops.size() < limit) {
        TaskOp op = s.next();
        if (op.kind == TaskOp::Kind::End)
            break;
        ops.push_back(op);
    }
    return ops;
}

} // namespace

TEST(Interp, StraightLineOps)
{
    ProgramBuilder b;
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.read("A", {b.c(3)});
        b.compute(7);
        b.write("A", {b.c(3)});
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, TaskOp::Kind::Ref);
    EXPECT_FALSE(ops[0].write);
    EXPECT_EQ(ops[0].addr, p.array(0).elementAddr({3}));
    EXPECT_EQ(ops[1].kind, TaskOp::Kind::Compute);
    EXPECT_EQ(ops[1].cycles, 7u);
    EXPECT_TRUE(ops[2].write);
    EXPECT_EQ(s.next().kind, TaskOp::Kind::End);
}

TEST(Interp, SerialLoopIterates)
{
    ProgramBuilder b;
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.doserial("k", 2, 6, [&] { b.write("A", {b.v("k")}); }, 2);
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 3u); // k = 2, 4, 6
    EXPECT_EQ(ops[0].addr, p.array(0).elementAddr({2}));
    EXPECT_EQ(ops[1].addr, p.array(0).elementAddr({4}));
    EXPECT_EQ(ops[2].addr, p.array(0).elementAddr({6}));
}

TEST(Interp, ZeroTripLoopSkipped)
{
    ProgramBuilder b;
    b.param("N", 0);
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.doserial("k", 0, b.p("N") - 1, [&] { b.write("A", {b.v("k")}); });
        b.compute(1);
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].kind, TaskOp::Kind::Compute);
}

TEST(Interp, NestedLoopOrder)
{
    ProgramBuilder b;
    b.array("A", {4, 4});
    b.proc("MAIN", [&] {
        b.doserial("i", 0, 1, [&] {
            b.doserial("j", 0, 1, [&] {
                b.write("A", {b.v("i"), b.v("j")});
            });
        });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].addr, p.array(0).elementAddr({0, 0}));
    EXPECT_EQ(ops[1].addr, p.array(0).elementAddr({0, 1}));
    EXPECT_EQ(ops[2].addr, p.array(0).elementAddr({1, 0}));
    EXPECT_EQ(ops[3].addr, p.array(0).elementAddr({1, 1}));
}

TEST(Interp, DoallYieldsBeginWithEvaluatedBounds)
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.compute(1);
        b.doall("i", 0, b.p("N") - 1, [&] { b.write("A", {b.v("i")}); });
        b.compute(2);
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    EXPECT_EQ(s.next().kind, TaskOp::Kind::Compute);
    TaskOp d = s.next();
    ASSERT_EQ(d.kind, TaskOp::Kind::BeginDoall);
    EXPECT_EQ(d.lo, 0);
    EXPECT_EQ(d.hi, 7);
    EXPECT_EQ(d.step, 1);
    ASSERT_NE(d.doall, nullptr);
    // Master skips the body and resumes after the loop.
    TaskOp after = s.next();
    EXPECT_EQ(after.kind, TaskOp::Kind::Compute);
    EXPECT_EQ(after.cycles, 2u);
    EXPECT_EQ(s.next().kind, TaskOp::Kind::End);
}

TEST(Interp, TaskModeRunsAssignedIterations)
{
    ProgramBuilder b;
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 15, [&] {
            b.read("A", {b.v("i")});
            b.write("A", {b.v("i")});
        });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream master(p, ctx, p.main().body);
    TaskOp d = master.next();
    ASSERT_EQ(d.kind, TaskOp::Kind::BeginDoall);

    TaskStream task(p, ctx, *d.doall, master.env());
    task.addIteration(3);
    task.addIteration(7);
    auto ops = drain(task);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].addr, p.array(0).elementAddr({3}));
    EXPECT_EQ(ops[1].addr, p.array(0).elementAddr({3}));
    EXPECT_EQ(ops[2].addr, p.array(0).elementAddr({7}));
    EXPECT_TRUE(ops[3].write);
}

TEST(Interp, TaskStreamCurrentIteration)
{
    ProgramBuilder b;
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 15, [&] { b.write("A", {b.v("i")}); });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream master(p, ctx, p.main().body);
    TaskOp d = master.next();
    TaskStream task(p, ctx, *d.doall, master.env());
    EXPECT_EQ(task.currentIteration(), -1);
    task.addIteration(5);
    task.next();
    EXPECT_EQ(task.currentIteration(), 5);
}

TEST(Interp, DynamicIterationAppend)
{
    ProgramBuilder b;
    b.array("A", {16});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 15, [&] { b.write("A", {b.v("i")}); });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream master(p, ctx, p.main().body);
    TaskOp d = master.next();
    TaskStream task(p, ctx, *d.doall, master.env());
    task.addIteration(0);
    EXPECT_EQ(task.next().kind, TaskOp::Kind::Ref);
    EXPECT_EQ(task.next().kind, TaskOp::Kind::End);
    task.addIteration(9);
    TaskOp op = task.next();
    ASSERT_EQ(op.kind, TaskOp::Kind::Ref);
    EXPECT_EQ(op.addr, p.array(0).elementAddr({9}));
}

TEST(Interp, NestedDoallDemotedInsideTask)
{
    ProgramBuilder b;
    b.array("A", {4, 4});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 3, [&] {
            b.doall("j", 0, 3, [&] {
                b.write("A", {b.v("j"), b.v("i")});
            });
        });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream master(p, ctx, p.main().body);
    TaskOp d = master.next();
    TaskStream task(p, ctx, *d.doall, master.env());
    task.addIteration(2);
    auto ops = drain(task);
    ASSERT_EQ(ops.size(), 4u) << "inner DOALL executes serially in-task";
    EXPECT_EQ(ops[1].addr, p.array(0).elementAddr({1, 2}));
}

TEST(Interp, CriticalEmitsLockPairs)
{
    ProgramBuilder b;
    b.array("S", {4});
    b.proc("MAIN", [&] {
        b.critical([&] {
            b.read("S", {b.c(0)});
            b.write("S", {b.c(0)});
        });
        b.compute(1);
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_EQ(ops[0].kind, TaskOp::Kind::LockAcquire);
    EXPECT_EQ(ops[1].kind, TaskOp::Kind::Ref);
    EXPECT_EQ(ops[2].kind, TaskOp::Kind::Ref);
    EXPECT_EQ(ops[3].kind, TaskOp::Kind::LockRelease);
    EXPECT_EQ(ops[4].kind, TaskOp::Kind::Compute);
}

TEST(Interp, BarrierYieldedAtTopLevel)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.compute(1);
        b.barrier();
        b.compute(2);
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[1].kind, TaskOp::Kind::Barrier);
}

TEST(Interp, IfAlternatePolicy)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.doserial("k", 0, 3, [&] {
            b.ifUnknown(hir::TakePolicy::Alternate,
                        [&] { b.compute(1); },
                        [&] { b.compute(2); });
        });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].cycles, 1u);
    EXPECT_EQ(ops[1].cycles, 2u);
    EXPECT_EQ(ops[2].cycles, 1u);
    EXPECT_EQ(ops[3].cycles, 2u);
}

/**
 * Inside a DOALL an Alternate branch counts per iteration: every
 * iteration starts at the then-arm, whichever stream runs it and
 * whatever ran on that stream before. Serial code keeps one run-wide
 * count.
 */
TEST(Interp, AlternateRestartsEachIteration)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.doall("i", 0, 3, [&] {
            b.doserial("k", 0, 2, [&] {
                b.ifUnknown(hir::TakePolicy::Alternate,
                            [&] { b.compute(1); },
                            [&] { b.compute(2); });
            });
        });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream master(p, ctx, p.main().body);
    TaskOp d = master.next();
    ASSERT_EQ(d.kind, TaskOp::Kind::BeginDoall);

    auto cycles = [](const std::vector<TaskOp> &ops) {
        std::vector<Cycles> out;
        for (const TaskOp &op : ops)
            out.push_back(op.cycles);
        return out;
    };
    TaskStream first(p, ctx, *d.doall, master.env());
    first.addIteration(0);
    first.addIteration(1);
    EXPECT_EQ(cycles(drain(first)),
              (std::vector<Cycles>{1, 2, 1, 1, 2, 1}));
    TaskStream second(p, ctx, *d.doall, master.env());
    second.addIteration(2);
    EXPECT_EQ(cycles(drain(second)), (std::vector<Cycles>{1, 2, 1}));
}

TEST(Interp, IfAlwaysAndNever)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.ifUnknown(hir::TakePolicy::Always, [&] { b.compute(1); },
                    [&] { b.compute(2); });
        b.ifUnknown(hir::TakePolicy::Never, [&] { b.compute(3); },
                    [&] { b.compute(4); });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 2u);
    EXPECT_EQ(ops[0].cycles, 1u);
    EXPECT_EQ(ops[1].cycles, 4u);
}

TEST(Interp, CallExecutesCallee)
{
    ProgramBuilder b;
    b.array("A", {8});
    b.proc("MAIN", [&] {
        b.call("SUB");
        b.compute(9);
    });
    b.proc("SUB", [&] { b.write("A", {b.c(1)}); });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    // Calls bracket the callee with CallBoundary markers (used by the
    // prior-work flush-at-calls mode).
    ASSERT_EQ(ops.size(), 4u);
    EXPECT_EQ(ops[0].kind, TaskOp::Kind::CallBoundary);
    EXPECT_EQ(ops[1].kind, TaskOp::Kind::Ref);
    EXPECT_EQ(ops[2].kind, TaskOp::Kind::CallBoundary);
    EXPECT_EQ(ops[3].cycles, 9u);
}

TEST(Interp, UnknownSubscriptInBounds)
{
    ProgramBuilder b;
    b.array("A", {8});
    b.proc("MAIN", [&] {
        b.doserial("k", 0, 31, [&] { b.read("A", {b.unknown()}); });
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    Addr base = p.array(0).base;
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 32u);
    for (const TaskOp &op : ops) {
        EXPECT_GE(op.addr, base);
        EXPECT_LT(op.addr, base + 8 * 4);
    }
}

TEST(Interp, LoopVarRestoredAfterLoop)
{
    ProgramBuilder b;
    b.param("k", 99);
    b.array("A", {128});
    b.proc("MAIN", [&] {
        b.doserial("k", 0, 3, [&] { b.compute(1); });
        b.read("A", {b.v("k")}); // sees the param again
    });
    Program p = b.build();
    RunCtx ctx;
    TaskStream s(p, ctx, p.main().body);
    auto ops = drain(s);
    ASSERT_EQ(ops.size(), 5u);
    EXPECT_EQ(ops[4].addr, p.array(0).elementAddr({99}));
}
