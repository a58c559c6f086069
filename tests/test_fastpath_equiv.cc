/**
 * @file
 * Equivalence tests for the lowered program (src/sim/stream.hh), the
 * executor's one operation source.
 *
 * The lowered program must yield exactly the op sequence of the
 * TaskStream reference interpreter (tests/task_stream.hh): the master's
 * ops and every DOALL iteration's ops. The paper workloads, the 50-seed
 * generated corpus, Alternate branches inside DOALLs, Hash branches,
 * unknown and unbounded subscripts, calls, critical sections and
 * post/wait chains are held to it here; the synthetic families in
 * test_synth_differential.cc. Simulated results are pinned by
 * fingerprints (DynamicScheduleFingerprintsPinned here, simbench's pins,
 * the golden miss-rate tables and ObsEquivalence.ArtifactsPinned).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hir/builder.hh"
#include "op_equiv.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;
using testref::opsMatchReference;

namespace {

MachineConfig
baseCfg(SchemeKind k, unsigned procs = 4)
{
    MachineConfig c;
    c.scheme = k;
    c.procs = procs;
    return c;
}

constexpr SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                      SchemeKind::TPI, SchemeKind::HW,
                                      SchemeKind::VC};

/**
 * A run of @p cached, whose lowered program is cached and reused,
 * equals a run of @p fresh, lowered inside the run: field by field and
 * by fingerprint.
 */
::testing::AssertionResult
cachedAgreesWithFresh(const compiler::CompiledProgram &cached,
                      const compiler::CompiledProgram &fresh,
                      const MachineConfig &cfg)
{
    epochStream(cached, cfg);
    const RunResult a = simulate(cached, cfg);
    const RunResult b = simulate(fresh, cfg);
    if (!(a == b))
        return ::testing::AssertionFailure()
               << schemeName(cfg.scheme) << ": results differ\n  cached: "
               << a.summary() << "\n  fresh:  " << b.summary();
    if (a.fingerprint() != b.fingerprint())
        return ::testing::AssertionFailure()
               << schemeName(cfg.scheme) << ": fingerprints differ";
    return ::testing::AssertionSuccess();
}

/** Does @p body reach an Alternate-policy branch inside a DOALL? */
bool
alternateInDoall(const hir::Program &prog, const hir::StmtList &body,
                 bool inDoall)
{
    for (const auto &s : body) {
        switch (s->kind()) {
          case hir::StmtKind::Loop: {
            const auto &l = static_cast<const hir::LoopStmt &>(*s);
            if (alternateInDoall(prog, l.body, inDoall || l.parallel))
                return true;
            break;
          }
          case hir::StmtKind::IfUnknown: {
            const auto &br = static_cast<const hir::IfUnknownStmt &>(*s);
            if ((inDoall && br.policy == hir::TakePolicy::Alternate) ||
                alternateInDoall(prog, br.thenBody, inDoall) ||
                alternateInDoall(prog, br.elseBody, inDoall))
                return true;
            break;
          }
          case hir::StmtKind::Critical:
            if (alternateInDoall(
                    prog, static_cast<const hir::CriticalStmt &>(*s).body,
                    inDoall))
                return true;
            break;
          case hir::StmtKind::Call:
            if (alternateInDoall(
                    prog,
                    prog.procedures()[static_cast<const hir::CallStmt &>(
                                          *s).callee].body,
                    inDoall))
                return true;
            break;
          default:
            break;
        }
    }
    return false;
}

} // namespace

/**
 * Every paper workload (scale 1) lowers to the reference's op sequence,
 * qcd2's Hash branch and unknown subscripts included, and runs clean
 * on every scheme.
 */
TEST(FastpathEquiv, BenchmarksAllSchemes)
{
    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(name, 1));
        std::size_t ops = 0;
        EXPECT_TRUE(opsMatchReference(cp, &ops)) << name;
        EXPECT_GT(ops, 1000u) << name;
        for (SchemeKind k : kAllSchemes) {
            const RunResult r = simulate(cp, baseCfg(k));
            EXPECT_EQ(r.oracleViolations, 0u) << name << " " << schemeName(k);
            EXPECT_EQ(r.doallViolations, 0u) << name << " " << schemeName(k);
        }
    }
}

/** The 50-seed random legal-DOALL corpus, op for op. */
TEST(FastpathEquiv, FuzzCorpus)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(opt));
        EXPECT_TRUE(opsMatchReference(cp)) << "gen:" << seed;
    }
}

/**
 * The merge loop folds the Computes after a Ref or Compute into that
 * step (OpCursor::takeComputes); the cursor must still yield every
 * other op, and the same Compute cycles per iteration, under every
 * schedule's shares. The paper workloads and the 50-seed corpus.
 */
TEST(FastpathEquiv, ComputeFoldingMatchesNext)
{
    constexpr SchedPolicy kScheds[] = {SchedPolicy::Block,
                                       SchedPolicy::Cyclic,
                                       SchedPolicy::Dynamic};
    std::vector<std::pair<std::string, compiler::CompiledProgram>> progs;
    for (const std::string &name : workloads::benchmarkNames())
        progs.emplace_back(name, compiler::compileProgram(
                                     workloads::buildBenchmark(name, 1)));
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        progs.emplace_back("gen:" + std::to_string(seed),
                           compiler::compileProgram(
                               testgen::randomLegalProgram(opt)));
    }
    for (const auto &[name, cp] : progs) {
        std::size_t folded = 0;
        for (SchedPolicy sched : kScheds)
            EXPECT_TRUE(
                testref::computeFoldingMatchesNext(cp, sched, 4, &folded))
                << name << " " << schedName(sched);
        if (name.rfind("gen:", 0) != 0) {
            EXPECT_GT(folded, 0u) << name << " folds no Compute";
        }
    }
}

/**
 * Config dimensions that feed the issue path: a run on a program whose
 * lowered form is cached and reused by earlier runs equals a run that
 * lowers a fresh compile of the same program.
 */
TEST(FastpathEquiv, ConfigVariations)
{
    testgen::GenOptions opt;
    opt.seed = 7;
    compiler::CompiledProgram cp =
        compiler::compileProgram(testgen::randomLegalProgram(opt));
    auto fresh = [&] {
        return compiler::compileProgram(testgen::randomLegalProgram(opt));
    };

    for (SchemeKind k : {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW}) {
        {
            MachineConfig cfg = baseCfg(k);
            cfg.sched = SchedPolicy::Cyclic;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg)) << "cyclic";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.sched = SchedPolicy::Dynamic;
            cfg.dynamicChunk = 2;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg))
                << "dynamic";
        }
        {
            MachineConfig cfg = baseCfg(k, 8);
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg)) << "procs=8";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.migrationRate = 0.5;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg))
                << "migration";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.flushAtCalls = true;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg))
                << "flushAtCalls";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.sequentialConsistency = true;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg))
                << "seqConsistency";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.shadowEpochCheck = true;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg))
                << "shadowEpochCheck";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.writeBufferAsCache = true;
            EXPECT_TRUE(cachedAgreesWithFresh(cp, fresh(), cfg))
                << "writeBufferAsCache";
        }
    }
}

/**
 * The lowered program is O(program text): a DOALL whose dynamic op
 * count is past 2^24 lowers to as many ops as the same DOALL with 16
 * trips, and every schedule, Dynamic included, gets it.
 */
TEST(FastpathEquiv, LoweringIsBoundedByProgramText)
{
    auto program = [](std::int64_t trips) {
        hir::ProgramBuilder b;
        b.param("N", trips);
        b.array("A", {"N"});
        b.array("B", {64});
        b.proc("MAIN", [&] {
            b.doall("i", 0, b.p("N") - 1, [&] {
                b.doserial("k", 0, 63, [&] {
                    b.read("B", {b.v("k")});
                    b.compute(1);
                });
                b.write("A", {b.v("i")});
            });
        });
        return compiler::compileProgram(b.build());
    };
    // 64 * 2 + 1 ops per iteration, 2^18 iterations: past 2^25.
    const compiler::CompiledProgram big = program(std::int64_t(1) << 18);
    const compiler::CompiledProgram small = program(16);
    const std::shared_ptr<const StreamProgram> sp =
        epochStream(big, baseCfg(SchemeKind::TPI));
    ASSERT_NE(sp, nullptr);
    EXPECT_EQ(sp->opCount(),
              epochStream(small, baseCfg(SchemeKind::TPI))->opCount());
    EXPECT_LT(sp->opCount(), 16u);
    for (SchedPolicy sched :
         {SchedPolicy::Block, SchedPolicy::Cyclic, SchedPolicy::Dynamic}) {
        MachineConfig cfg = baseCfg(SchemeKind::TPI);
        cfg.sched = sched;
        EXPECT_EQ(epochStream(big, cfg), sp) << int(sched);
    }
    EXPECT_TRUE(opsMatchReference(small));
}

/**
 * An Alternate-policy unknown branch inside a DOALL body counts its
 * trips per iteration, so its outcomes do not depend on which processor
 * runs the iteration or what ran there before.
 */
TEST(FastpathEquiv, AlternateInDoallRecords)
{
    hir::ProgramBuilder b;
    b.param("N", 32);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 31, [&] {
            b.ifUnknown(hir::TakePolicy::Alternate,
                        [&] { b.read("A", {b.v("i")}); },
                        [&] { b.compute(2); });
            b.write("A", {b.v("i")});
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    EXPECT_TRUE(opsMatchReference(cp));
    // Every placement takes the then-arm once per iteration.
    const Counter reads = simulate(cp, baseCfg(SchemeKind::TPI, 1)).reads;
    for (unsigned procs : {1u, 3u, 4u})
        for (SchedPolicy sched : {SchedPolicy::Block, SchedPolicy::Cyclic,
                                  SchedPolicy::Dynamic}) {
            MachineConfig c = baseCfg(SchemeKind::TPI, procs);
            c.sched = sched;
            const RunResult r = simulate(cp, c);
            EXPECT_EQ(r.reads, reads) << "procs=" << procs;
            EXPECT_EQ(r.oracleViolations, 0u) << "procs=" << procs;
        }

    // The same branch in serial code counts run-wide.
    hir::ProgramBuilder s;
    s.param("N", 32);
    s.array("A", {"N"});
    s.proc("MAIN", [&] {
        s.doserial("t", 0, 3, [&] {
            s.ifUnknown(hir::TakePolicy::Alternate,
                        [&] { s.write("A", {s.c(0)}); },
                        [&] { s.compute(2); });
            s.doall("i", 0, 31, [&] { s.write("A", {s.v("i")}); });
        });
    });
    compiler::CompiledProgram scp = compiler::compileProgram(s.build());
    EXPECT_TRUE(opsMatchReference(scp));
}

/**
 * The generator emits Alternate-policy branches inside DOALL bodies too
 * (tests/program_gen.hh): the corpus must actually contain such
 * programs, and every one must match the reference.
 */
TEST(FastpathEquiv, GeneratedAlternateInDoallRecords)
{
    unsigned found = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(opt));
        if (!alternateInDoall(cp.program, cp.program.main().body, false))
            continue;
        ++found;
        EXPECT_TRUE(opsMatchReference(cp)) << "gen:" << seed;
    }
    // The shape must be exercised, or this test is vacuous.
    EXPECT_GT(found, 0u);
}

/**
 * Every slow op against the reference: Hash branches and unknown
 * subscripts in the master and in a DOALL (both hash the live
 * bindings, here with a loop variable shadowing a parameter), a
 * subscript whose range the lowering cannot bound, a procedure called
 * from a DOALL that reads the caller's loop variable, a critical
 * section, post/wait on affine flags, step loops and a nested DOALL.
 */
TEST(FastpathEquiv, SlowOpsMatchReference)
{
    hir::ProgramBuilder b;
    b.param("N", 24);
    b.param("k", 5);
    b.array("A", {"N", "N"});
    b.array("X", {64});
    b.array("S", {4});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 2, [&] {
            b.ifUnknown(hir::TakePolicy::Hash,
                        [&] { b.read("X", {b.unknown()}); },
                        [&] { b.write("X", {b.v("t") + b.v("k")}); });
            b.doall("i", 1, b.p("N") - 1, [&] {
                b.doserial("k", 0, b.v("i") - 1, [&] {
                    b.read("A", {b.v("i") - b.v("k"), b.v("k")});
                    b.ifUnknown(hir::TakePolicy::Hash, [&] {
                        b.read("X", {b.unknown() + b.v("k")});
                    });
                });
                b.call("SUB");
                b.critical([&] {
                    b.read("S", {b.c(0)});
                    b.write("S", {b.c(0)});
                });
                b.doall("j", 0, b.p("N") - 1, [&] {
                    b.read("A", {b.v("j"), b.v("i")});
                }, 3);
            });
            b.doall("d", 1, 20, [&] {
                b.post(0);
                b.wait(b.v("d") - 1);
                b.read("X", {b.v("d") - 1});
                b.write("X", {b.v("d")});
                b.post(b.v("d"));
            });
        });
    });
    b.proc("SUB", [&] {
        b.write("A", {b.v("i"), b.unknown()});
        b.ifUnknown(hir::TakePolicy::Alternate,
                    [&] { b.read("X", {b.v("i")}); });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
    std::size_t ops = 0;
    EXPECT_TRUE(opsMatchReference(cp, &ops));
    EXPECT_GT(ops, 2000u);
}

/**
 * A subscript out of its array's range panics with
 * ArrayDecl::elementAddr's message when the op runs, not when the
 * program is lowered; an unbound variable (lint HIR001) panics with
 * IntExpr::eval's message when the program is lowered.
 */
TEST(FastpathEquiv, BadSubscriptsPanic)
{
    auto expectPanic = [](const std::string &what, auto &&fn) {
        try {
            fn();
            ADD_FAILURE() << "no panic for " << what;
        } catch (const PanicError &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    {
        hir::ProgramBuilder b;
        b.array("A", {8});
        b.proc("MAIN", [&] {
            b.doall("i", 0, 8, [&] { b.write("A", {b.v("i")}); });
        });
        const compiler::CompiledProgram cp =
            compiler::compileProgram(b.build());
        ASSERT_NE(epochStream(cp, baseCfg(SchemeKind::TPI)), nullptr);
        expectPanic("subscript 8 out of range [0,8)",
                    [&] { simulate(cp, baseCfg(SchemeKind::TPI)); });
    }
    {
        hir::ProgramBuilder b;
        b.array("A", {8});
        b.proc("MAIN", [&] {
            b.doall("i", 0, 7, [&] { b.read("A", {b.v("q")}); });
        });
        const compiler::CompiledProgram cp =
            compiler::compileProgram(b.build());
        expectPanic("unbound variable 'q'",
                    [&] { epochStream(cp, baseCfg(SchemeKind::TPI)); });
    }
}

/**
 * One lowering per program: every processor count and schedule gets the
 * same cached program, lowered once, and it matches the reference. The
 * program covers the placement edge cases: a trip count no processor
 * count above 1 divides, a zero-trip DOALL, a DOALL with fewer
 * iterations than processors, and a post/wait chain.
 */
TEST(FastpathEquiv, OneRecordingServesEveryShape)
{
    hir::ProgramBuilder b;
    b.param("N", 40);
    b.array("A", {"N"});
    b.array("B", {"N"});
    b.array("S", {4});
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 1, [&] {
            b.doall("i", 0, 36, [&] { // 37 iterations
                b.read("B", {b.v("i")});
                b.doserial("k", 0, 2, [&] {
                    b.ifUnknown(hir::TakePolicy::Alternate,
                                [&] { b.read("B", {b.v("i") + 1}); },
                                [&] { b.compute(3); });
                });
                b.write("A", {b.v("i")});
            });
            b.doall("z", 5, 4, [&] { b.write("A", {b.v("z")}); });
            b.doall("j", 0, 9, [&] { // fewer than 16 or 64 processors
                b.read("A", {b.v("j") * 3});
                b.critical([&] {
                    b.read("S", {b.c(0)});
                    b.write("S", {b.c(0)});
                });
                b.write("B", {b.v("j")});
            });
            b.doall("d", 1, 38, [&] {
                b.post(0);
                b.wait(b.v("d") - 1);
                b.read("A", {b.v("d") - 1});
                b.write("A", {b.v("d")});
                b.post(b.v("d"));
            });
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());

    const std::uint64_t builds = streamCacheStats().builds;
    const std::shared_ptr<const StreamProgram> sp =
        epochStream(cp, baseCfg(SchemeKind::TPI, 1));
    ASSERT_NE(sp, nullptr);
    bool zeroTrip = false;
    OpCursor master(*sp);
    master.startMaster();
    for (StreamOp op = master.next(); op.kind != StreamOp::Kind::End;
         op = master.next())
        zeroTrip |= op.kind == StreamOp::Kind::BeginDoall &&
                    master.doallTrips() == 0;
    EXPECT_TRUE(zeroTrip);
    EXPECT_TRUE(opsMatchReference(cp));

    for (unsigned procs : {1u, 3u, 4u, 16u, 64u}) {
        for (SchedPolicy sched : {SchedPolicy::Block, SchedPolicy::Cyclic,
                                  SchedPolicy::Dynamic}) {
            for (SchemeKind k : kAllSchemes) {
                MachineConfig cfg = baseCfg(k, procs);
                cfg.sched = sched;
                EXPECT_EQ(epochStream(cp, cfg), sp) << "procs=" << procs;
                const RunResult r = simulate(cp, cfg);
                EXPECT_EQ(r.oracleViolations, 0u)
                    << "procs=" << procs << " sched=" << int(sched);
                EXPECT_EQ(r.tasks, 37u * 2 + 10 * 2 + 38 * 2)
                    << "procs=" << procs << " sched=" << int(sched);
            }
        }
    }
    EXPECT_EQ(streamCacheStats().builds, builds + 1);
}

/**
 * The lowered-program cache lives on the shared CompiledProgram;
 * concurrent simulations under different configs must lower it once and
 * share it without races (also runs under TSan via the tsan ctest
 * label). The first round starts on a program not yet lowered, so its
 * threads race the lowering itself.
 */
TEST(FastpathEquiv, ConcurrentSharedProgramCache)
{
    const std::string name = workloads::benchmarkNames().front();
    const compiler::CompiledProgram serial =
        compiler::compileProgram(workloads::buildBenchmark(name, 1));
    const compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildBenchmark(name, 1));

    struct Cell
    {
        MachineConfig cfg;
        RunResult expect;
    };
    std::vector<Cell> cells;
    for (SchemeKind k : kAllSchemes) {
        for (unsigned procs : {2u, 4u, 8u}) {
            Cell c;
            c.cfg = baseCfg(k, procs);
            if (procs == 8)
                c.cfg.sched = SchedPolicy::Dynamic;
            c.expect = simulate(serial, c.cfg);
            cells.push_back(c);
        }
    }

    const std::uint64_t builds = streamCacheStats().builds;
    std::vector<RunResult> got(cells.size());
    std::vector<std::thread> threads;
    for (int rep = 0; rep < 2; ++rep) {
        threads.clear();
        for (std::size_t i = 0; i < cells.size(); ++i)
            threads.emplace_back([&, i] {
                got[i] = simulate(cp, cells[i].cfg);
            });
        for (std::thread &t : threads)
            t.join();
        for (std::size_t i = 0; i < cells.size(); ++i)
            EXPECT_TRUE(got[i] == cells[i].expect) << i;
    }
    EXPECT_EQ(streamCacheStats().builds, builds + 1);
}

/**
 * The lowered program carries no marks: the executor reads them from
 * the marking at run time. A mark overridden after the program was
 * lowered and cached must therefore take effect exactly as on a program
 * lowered after the override.
 */
TEST(FastpathEquiv, MarkOverrideAfterStreamIsCached)
{
    auto build = [] {
        hir::ProgramBuilder b;
        b.param("N", 64);
        b.array("C", {"N"});
        b.array("A", {"N"});
        b.proc("MAIN", [&] {
            b.doserial("t", 0, 2, [&] {
                b.doall("i", 0, 63, [&] {
                    b.read("C", {b.v("i")});
                    b.write("A", {b.v("i")});
                });
            });
        });
        return compiler::compileProgram(b.build());
    };
    compiler::CompiledProgram cp = build();
    const MachineConfig cfg = baseCfg(SchemeKind::TPI);

    // The only read, of read-only C, is marked Normal.
    hir::RefId read = hir::invalidRef;
    for (hir::RefId id = 0; id < cp.program.refCount(); ++id)
        if (!cp.program.refInfo(id).stmt->isWrite)
            read = id;
    ASSERT_NE(read, hir::invalidRef);
    ASSERT_EQ(cp.marking.mark(read).kind, compiler::MarkKind::Normal);

    const std::shared_ptr<const StreamProgram> cached = epochStream(cp, cfg);
    ASSERT_NE(cached, nullptr);
    const RunResult before = simulate(cp, cfg);

    compiler::Mark bypass = cp.marking.mark(read);
    bypass.kind = compiler::MarkKind::Bypass;
    cp.marking.overrideMark(read, bypass);

    // A fresh compile, overridden the same way before it is lowered.
    compiler::CompiledProgram fresh = build();
    fresh.marking.overrideMark(read, bypass);
    const RunResult uncached = simulate(fresh, cfg);
    const RunResult fast = simulate(cp, cfg);
    EXPECT_EQ(epochStream(cp, cfg), cached) << "program was re-lowered";
    EXPECT_TRUE(uncached == fast) << "uncached: " << uncached.summary()
                                  << "\ncached:   " << fast.summary();
    EXPECT_EQ(uncached.fingerprint(), fast.fingerprint());
    // The override is visible at all: every re-read of C now misses.
    EXPECT_GT(fast.readMisses, before.readMisses);
}

/**
 * Dynamic self-scheduling's results, pinned. The fingerprints were
 * captured while Dynamic still ran on an interpreter of its own, for
 * chunks 1 and 3 at P = 3 and 5, on two
 * workloads and two generated programs with post/wait chains and
 * critical sections. An intentional change regenerates the rows with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter=FastpathEquiv.DynamicScheduleFingerprintsPinned \
 *       2>&1 | grep GOLDEN
 */
TEST(FastpathEquiv, DynamicScheduleFingerprintsPinned)
{
    struct Pin
    {
        const char *program;
        unsigned procs;
        unsigned chunk;
        SchemeKind scheme;
        std::uint64_t fingerprint;
    };
    static const Pin kPins[] = {
        {"QCD2", 3, 1, SchemeKind::TPI, 0x8d91e3f6c136100cULL},
        {"QCD2", 3, 1, SchemeKind::HW, 0x74e56eff1bc278b8ULL},
        {"QCD2", 3, 3, SchemeKind::TPI, 0x0c71d21000cdbcdfULL},
        {"QCD2", 3, 3, SchemeKind::HW, 0xcc4f12b08da6a125ULL},
        {"QCD2", 5, 1, SchemeKind::TPI, 0x2f7404ffc78f4462ULL},
        {"QCD2", 5, 1, SchemeKind::HW, 0x0c41e760d5f12f2aULL},
        {"QCD2", 5, 3, SchemeKind::TPI, 0xdc6837c1c9b89aa3ULL},
        {"QCD2", 5, 3, SchemeKind::HW, 0x61e1591838fec731ULL},
        {"TRFD", 3, 1, SchemeKind::TPI, 0x9c7a09bac1b577d7ULL},
        {"TRFD", 3, 1, SchemeKind::HW, 0x868c0afa54874c23ULL},
        {"TRFD", 3, 3, SchemeKind::TPI, 0x5bcbfdbd6e95da34ULL},
        {"TRFD", 3, 3, SchemeKind::HW, 0xed366c757225b407ULL},
        {"TRFD", 5, 1, SchemeKind::TPI, 0xc980290aeb59d087ULL},
        {"TRFD", 5, 1, SchemeKind::HW, 0xef9f5c66369fb4b1ULL},
        {"TRFD", 5, 3, SchemeKind::TPI, 0x3fff4c47a0f6c754ULL},
        {"TRFD", 5, 3, SchemeKind::HW, 0xd3790a4aa3e1f3d5ULL},
        {"gen:31", 3, 1, SchemeKind::TPI, 0x61abf3802acd8d6cULL},
        {"gen:31", 3, 1, SchemeKind::HW, 0xddeac5b061d15bdaULL},
        {"gen:31", 3, 3, SchemeKind::TPI, 0xcf15d81f1b25bc0fULL},
        {"gen:31", 3, 3, SchemeKind::HW, 0x7f5eb58be6ad7cedULL},
        {"gen:31", 5, 1, SchemeKind::TPI, 0x985327c348d18529ULL},
        {"gen:31", 5, 1, SchemeKind::HW, 0x7d2e43ac85872d43ULL},
        {"gen:31", 5, 3, SchemeKind::TPI, 0xd44f776afa7097bfULL},
        {"gen:31", 5, 3, SchemeKind::HW, 0x55f95724f0986b0dULL},
        {"gen:46", 3, 1, SchemeKind::TPI, 0x7ca61e0707f1d71eULL},
        {"gen:46", 3, 1, SchemeKind::HW, 0xe471bd07f1e76488ULL},
        {"gen:46", 3, 3, SchemeKind::TPI, 0xe0738ab1a8184477ULL},
        {"gen:46", 3, 3, SchemeKind::HW, 0xb4fc438a331104e8ULL},
        {"gen:46", 5, 1, SchemeKind::TPI, 0x059020ae3daf0f73ULL},
        {"gen:46", 5, 1, SchemeKind::HW, 0x49154ab6ea200078ULL},
        {"gen:46", 5, 3, SchemeKind::TPI, 0xefc2ad65d38cd0f1ULL},
        {"gen:46", 5, 3, SchemeKind::HW, 0xecb708156bef0e91ULL},
    };

    std::vector<std::pair<std::string, compiler::CompiledProgram>> progs;
    for (const char *name : {"QCD2", "TRFD"})
        progs.emplace_back(name, compiler::compileProgram(
                                     workloads::buildBenchmark(name, 1)));
    for (std::uint64_t seed : {31u, 46u}) {
        testgen::GenOptions opt;
        opt.seed = seed;
        progs.emplace_back("gen:" + std::to_string(seed),
                           compiler::compileProgram(
                               testgen::randomLegalProgram(opt)));
    }

    const bool print = std::getenv("HSCD_PRINT_GOLDEN") != nullptr;
    std::size_t next = 0;
    for (const auto &[name, cp] : progs) {
        for (unsigned procs : {3u, 5u}) {
            for (unsigned chunk : {1u, 3u}) {
                for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
                    MachineConfig cfg = baseCfg(k, procs);
                    cfg.sched = SchedPolicy::Dynamic;
                    cfg.dynamicChunk = chunk;
                    const RunResult r = simulate(cp, cfg);
                    EXPECT_EQ(r.oracleViolations, 0u) << name;
                    const std::uint64_t fp = r.fingerprint();
                    if (print) {
                        std::printf("GOLDEN {\"%s\", %u, %u, SchemeKind::%s, "
                                    "0x%016llxULL},\n",
                                    name.c_str(), procs, chunk,
                                    schemeName(k),
                                    static_cast<unsigned long long>(fp));
                        continue;
                    }
                    ASSERT_LT(next, std::size(kPins));
                    const Pin &pin = kPins[next++];
                    EXPECT_EQ(pin.program, name);
                    EXPECT_EQ(pin.procs, procs);
                    EXPECT_EQ(pin.chunk, chunk);
                    EXPECT_EQ(pin.scheme, k);
                    EXPECT_EQ(pin.fingerprint, fp)
                        << name << " P=" << procs << " chunk=" << chunk
                        << " " << schemeName(k);
                }
            }
        }
    }
    if (!print) {
        EXPECT_EQ(next, std::size(kPins));
    }
}
