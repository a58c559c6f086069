/** @file Unit tests for the HIR program structures, builder, and printer. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "hir/builder.hh"
#include "hir/printer.hh"

using namespace hscd;
using namespace hscd::hir;

namespace {

Program
simpleProgram()
{
    ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.array("B", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, b.p("N") - 1, [&] {
            b.read("B", {b.v("i")});
            b.compute(2);
            b.write("A", {b.v("i")});
        });
    });
    return b.build();
}

} // namespace

TEST(Builder, SimpleProgramShape)
{
    Program p = simpleProgram();
    EXPECT_EQ(p.arrays().size(), 2u);
    EXPECT_EQ(p.procedures().size(), 1u);
    EXPECT_EQ(p.refCount(), 2u);
    EXPECT_EQ(p.main().name, "MAIN");
    ASSERT_EQ(p.main().body.size(), 1u);
    EXPECT_EQ(p.main().body[0]->kind(), StmtKind::Loop);
    const auto &loop = static_cast<const LoopStmt &>(*p.main().body[0]);
    EXPECT_TRUE(loop.parallel);
    EXPECT_EQ(loop.body.size(), 3u);
}

TEST(Builder, ParamsBoundInProgramEnv)
{
    Program p = simpleProgram();
    EXPECT_EQ(*p.params().lookup("N"), 8);
}

TEST(Builder, ArrayDimsByParamName)
{
    ProgramBuilder b;
    b.param("M", 4);
    b.array("X", {"M", "16"});
    b.proc("MAIN", [&] { b.compute(1); });
    Program p = b.build();
    const ArrayDecl &x = p.array(p.findArray("X"));
    ASSERT_EQ(x.dims.size(), 2u);
    EXPECT_EQ(x.dims[0], 4);
    EXPECT_EQ(x.dims[1], 16);
    EXPECT_EQ(x.elements(), 64);
}

TEST(Builder, UnknownArrayDimParamFatal)
{
    ProgramBuilder b;
    EXPECT_THROW(b.array("X", std::vector<std::string>{"NOPE"}),
                 FatalError);
}

TEST(Builder, DuplicateArrayFatal)
{
    ProgramBuilder b;
    b.array("A", std::vector<std::int64_t>{4});
    EXPECT_THROW(b.array("A", std::vector<std::int64_t>{4}), FatalError);
}

TEST(Builder, NonPositiveExtentFatal)
{
    ProgramBuilder b;
    EXPECT_THROW(b.array("A", std::vector<std::int64_t>{0}), FatalError);
}

TEST(Builder, MissingMainFatal)
{
    ProgramBuilder b;
    b.proc("SUB", [&] { b.compute(1); });
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, CallResolution)
{
    ProgramBuilder b;
    b.array("A", std::vector<std::int64_t>{4});
    b.proc("MAIN", [&] { b.call("SUB"); });
    b.proc("SUB", [&] { b.write("A", {b.c(0)}); });
    Program p = b.build();
    const auto &call = static_cast<const CallStmt &>(*p.main().body[0]);
    EXPECT_EQ(call.callee, p.findProcedure("SUB"));
}

TEST(Builder, UnresolvedCallFatal)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] { b.call("GHOST"); });
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, RecursionFatal)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] { b.call("A"); });
    b.proc("A", [&] { b.call("B"); });
    b.proc("B", [&] { b.call("A"); });
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, BarrierInsideDoallFatal)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.doall("i", 0, 3, [&] { b.barrier(); });
    });
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, BarrierInsideCalledProcFromDoallFatal)
{
    ProgramBuilder b;
    b.proc("MAIN", [&] {
        b.doall("i", 0, 3, [&] { b.call("SUB"); });
    });
    b.proc("SUB", [&] { b.barrier(); });
    EXPECT_THROW(b.build(), FatalError);
}

TEST(Builder, WrongSubscriptCountFatal)
{
    ProgramBuilder b;
    b.array("A", std::vector<std::int64_t>{4, 4});
    EXPECT_THROW(
        b.proc("MAIN", [&] { b.read("A", {b.c(0)}); }), FatalError);
}

TEST(Builder, RefIdsSequential)
{
    ProgramBuilder b;
    b.array("A", std::vector<std::int64_t>{4});
    RefId r0 = invalidRef, r1 = invalidRef;
    b.proc("MAIN", [&] {
        r0 = b.read("A", {b.c(0)});
        r1 = b.write("A", {b.c(1)});
    });
    Program p = b.build();
    EXPECT_EQ(r0, 0u);
    EXPECT_EQ(r1, 1u);
    EXPECT_EQ(p.refInfo(r1).stmt->isWrite, true);
    EXPECT_EQ(p.refInfo(r0).stmt->isWrite, false);
}

TEST(Program, LayoutAssignsDisjointAlignedBases)
{
    Program p = simpleProgram();
    const ArrayDecl &a = p.array(p.findArray("A"));
    const ArrayDecl &bArr = p.array(p.findArray("B"));
    EXPECT_NE(a.base, 0u);
    EXPECT_EQ(a.base % 256, 0u);
    EXPECT_EQ(bArr.base % 256, 0u);
    // No overlap.
    EXPECT_TRUE(a.base + a.sizeBytes() <= bArr.base ||
                bArr.base + bArr.sizeBytes() <= a.base);
    EXPECT_GE(p.dataBytes(), a.sizeBytes() + bArr.sizeBytes());
}

TEST(Program, ElementAddrColumnMajor)
{
    ProgramBuilder b;
    b.array("M", std::vector<std::int64_t>{3, 5});
    b.proc("MAIN", [&] { b.compute(1); });
    Program p = b.build();
    ArrayId m = p.findArray("M");
    Addr base = p.array(m).base;
    EXPECT_EQ(p.array(m).elementAddr({0, 0}), base);
    // Column-major: first subscript varies fastest.
    EXPECT_EQ(p.array(m).elementAddr({1, 0}), base + wordBytes);
    EXPECT_EQ(p.array(m).elementAddr({0, 1}), base + 3 * wordBytes);
    EXPECT_EQ(p.array(m).elementAddr({2, 4}),
              base + (2 + 4 * 3) * wordBytes);
}

TEST(Program, ElementAddrOutOfRangePanics)
{
    Program p = simpleProgram();
    ArrayId a = p.findArray("A");
    EXPECT_THROW(p.array(a).elementAddr({8}), PanicError);
    EXPECT_THROW(p.array(a).elementAddr({-1}), PanicError);
}

TEST(Program, DescribeAddr)
{
    ProgramBuilder b;
    b.array("M", std::vector<std::int64_t>{3, 5});
    b.proc("MAIN", [&] { b.compute(1); });
    Program p = b.build();
    ArrayId m = p.findArray("M");
    EXPECT_EQ(p.describeAddr(p.array(m).elementAddr({2, 4})), "M(2,4)");
    EXPECT_NE(p.describeAddr(0).find("unmapped"), std::string::npos);
}

TEST(Program, FindArrayFatalOnMissing)
{
    Program p = simpleProgram();
    EXPECT_THROW(p.findArray("ZZZ"), FatalError);
    EXPECT_THROW(p.findProcedure("ZZZ"), FatalError);
}

TEST(Printer, ContainsStructure)
{
    ProgramBuilder b;
    b.param("N", 4);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 1, [&] {
            b.doall("i", 0, b.p("N") - 1, [&] {
                b.write("A", {b.v("i")});
            });
            b.barrier();
        });
        b.critical([&] { b.read("A", {b.c(0)}); });
        b.ifUnknown(TakePolicy::Alternate,
                    [&] { b.compute(1); },
                    [&] { b.compute(2); });
        b.call("SUB");
    });
    b.proc("SUB", [&] { b.compute(3); });
    Program p = b.build();
    const std::string s = programToString(p);
    EXPECT_NE(s.find("PROGRAM MAIN"), std::string::npos);
    EXPECT_NE(s.find("SUBROUTINE SUB"), std::string::npos);
    EXPECT_NE(s.find("DOALL i = 0, N - 1"), std::string::npos);
    EXPECT_NE(s.find("DO t = 0, 1"), std::string::npos);
    EXPECT_NE(s.find("BARRIER"), std::string::npos);
    EXPECT_NE(s.find("CRITICAL"), std::string::npos);
    EXPECT_NE(s.find("IF (unknown#0) THEN"), std::string::npos);
    EXPECT_NE(s.find("ELSE"), std::string::npos);
    EXPECT_NE(s.find("CALL SUB"), std::string::npos);
    EXPECT_NE(s.find("A(i) = ..."), std::string::npos);
    EXPECT_NE(s.find("PARAMETER (N = 4)"), std::string::npos);
}

TEST(Printer, RefIdAnnotations)
{
    Program p = simpleProgram();
    const std::string s = programToString(p);
    EXPECT_NE(s.find("! ref 0"), std::string::npos);
    PrintOptions opts;
    opts.showRefIds = false;
    const std::string s2 = programToString(p, opts);
    EXPECT_EQ(s2.find("! ref"), std::string::npos);
}
