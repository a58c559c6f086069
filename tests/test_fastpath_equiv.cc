/**
 * @file
 * Differential equivalence tests for the epoch-stream fast path.
 *
 * The contract (src/sim/stream.hh) is strict: for every eligible
 * (program, config) the fast path produces a RunResult byte-identical to
 * the legacy per-access interpreter, which stays compiled behind
 * MachineConfig::fastPath = false as the oracle. Ineligible shapes
 * (dynamic self-scheduling, Alternate-policy unknown branches inside
 * DOALL bodies) must fall back to the interpreter and still agree
 * trivially.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "hir/builder.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "sim/stream.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::sim;

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

/** Run both paths and require field-by-field + fingerprint equality. */
::testing::AssertionResult
pathsAgree(const compiler::CompiledProgram &cp, MachineConfig cfg)
{
    cfg.fastPath = false;
    RunResult legacy = simulate(cp, cfg);
    cfg.fastPath = true;
    RunResult fast = simulate(cp, cfg);
    if (!(legacy == fast))
        return ::testing::AssertionFailure()
               << schemeName(cfg.scheme) << ": results differ\n  legacy: "
               << legacy.summary() << "\n  fast:   " << fast.summary();
    if (legacy.fingerprint() != fast.fingerprint())
        return ::testing::AssertionFailure()
               << schemeName(cfg.scheme) << ": fingerprints differ";
    return ::testing::AssertionSuccess();
}

} // namespace

/** Every paper workload (scale 1), every scheme: byte-identical. */
TEST(FastpathEquiv, BenchmarksAllSchemes)
{
    unsigned eligible = 0;
    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(name, 1));
        for (SchemeKind k : kAllSchemes) {
            MachineConfig cfg = baseCfg(k);
            eligible += streamEligible(cp, cfg) ? 1 : 0;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << name;
        }
    }
    // The suite must not pass vacuously with every workload falling back
    // to the interpreter.
    EXPECT_GT(eligible, 0u);
}

/** 50-seed random legal-DOALL corpus, schemes rotating per seed. */
TEST(FastpathEquiv, FuzzCorpus)
{
    unsigned eligible = 0;
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(opt));
        for (SchemeKind k : kAllSchemes) {
            MachineConfig cfg = baseCfg(k);
            if (streamEligible(cp, cfg))
                ++eligible;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "gen:" << seed;
        }
    }
    // Alternate-in-DOALL programs legitimately fall back, but a healthy
    // majority of the corpus must take the fast path.
    EXPECT_GT(eligible, 100u);
}

/** Config dimensions that feed the stream or the issue path. */
TEST(FastpathEquiv, ConfigVariations)
{
    testgen::GenOptions opt;
    opt.seed = 7;
    compiler::CompiledProgram cp =
        compiler::compileProgram(testgen::randomLegalProgram(opt));

    for (SchemeKind k : {SchemeKind::SC, SchemeKind::TPI, SchemeKind::HW}) {
        {
            MachineConfig cfg = baseCfg(k);
            cfg.sched = SchedPolicy::Cyclic;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "cyclic";
        }
        {
            MachineConfig cfg = baseCfg(k, 8);
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "procs=8";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.migrationRate = 0.5;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "migration";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.flushAtCalls = true;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "flushAtCalls";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.sequentialConsistency = true;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "seqConsistency";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.shadowEpochCheck = true;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "shadowEpochCheck";
        }
        {
            MachineConfig cfg = baseCfg(k);
            cfg.writeBufferAsCache = true;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "writeBufferAsCache";
        }
    }
}

/** Dynamic self-scheduling is ineligible and must fall back cleanly. */
TEST(FastpathEquiv, DynamicSchedFallsBack)
{
    compiler::CompiledProgram cp = compiler::compileProgram(
        workloads::buildBenchmark(workloads::benchmarkNames().front(), 1));
    MachineConfig cfg = baseCfg(SchemeKind::TPI);
    cfg.sched = SchedPolicy::Dynamic;
    EXPECT_FALSE(streamEligible(cp, cfg));
    EXPECT_EQ(epochStream(cp, cfg), nullptr);
    EXPECT_TRUE(pathsAgree(cp, cfg));
}

/**
 * An Alternate-policy unknown branch inside a DOALL body makes branch
 * outcomes depend on cross-processor interleaving: ineligible.
 */
TEST(FastpathEquiv, AlternateInDoallFallsBack)
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
    MachineConfig cfg = baseCfg(SchemeKind::TPI);
    EXPECT_FALSE(streamEligible(cp, cfg));
    EXPECT_EQ(epochStream(cp, cfg), nullptr);
    EXPECT_TRUE(pathsAgree(cp, cfg));

    // The same branch in serial code is recorded in master order: fine.
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
    EXPECT_TRUE(streamEligible(scp, cfg));
    EXPECT_TRUE(pathsAgree(scp, cfg));
}

/**
 * The generator now emits Alternate-policy branches inside DOALL bodies
 * too (tests/program_gen.hh): the corpus must actually contain such
 * programs, and on every one the fast path must refuse (fall back to
 * the interpreter, still byte-identical) rather than miscompile. Block
 * scheduling with a non-Dynamic policy is otherwise always eligible,
 * so ineligibility here isolates exactly the Alternate-in-DOALL shape.
 */
TEST(FastpathEquiv, GeneratedAlternateInDoallFallsBack)
{
    unsigned fallbacks = 0;
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        testgen::GenOptions opt;
        opt.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(opt));
        MachineConfig cfg = baseCfg(SchemeKind::TPI);
        if (streamEligible(cp, cfg))
            continue;
        ++fallbacks;
        EXPECT_EQ(epochStream(cp, cfg), nullptr) << "gen:" << seed;
        for (SchemeKind k : kAllSchemes)
            EXPECT_TRUE(pathsAgree(cp, baseCfg(k))) << "gen:" << seed;
    }
    // The fallback shape must be exercised, or this test is vacuous.
    EXPECT_GT(fallbacks, 0u);
}

/**
 * The stream cache lives on the shared CompiledProgram; concurrent
 * simulations under different configs must build/reuse slots without
 * races (also runs under TSan via the tsan ctest label).
 */
TEST(FastpathEquiv, ConcurrentSharedProgramCache)
{
    compiler::CompiledProgram cp = compiler::compileProgram(
        workloads::buildBenchmark(workloads::benchmarkNames().front(), 1));

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
            c.expect = simulate(cp, c.cfg);
            cells.push_back(c);
        }
    }

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
}

/**
 * Streams carry no marks: the executor reads them from the marking at
 * run time. A mark overridden after its program's stream was recorded
 * and cached must therefore take effect on the fast path exactly as on
 * the interpreter.
 */
TEST(FastpathEquiv, MarkOverrideAfterStreamIsCached)
{
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
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());
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

    MachineConfig legacy_cfg = cfg;
    legacy_cfg.fastPath = false;
    const RunResult legacy = simulate(cp, legacy_cfg);
    const RunResult fast = simulate(cp, cfg);
    EXPECT_EQ(epochStream(cp, cfg), cached) << "stream was re-recorded";
    EXPECT_TRUE(legacy == fast) << "legacy: " << legacy.summary()
                                << "\nfast:   " << fast.summary();
    EXPECT_EQ(legacy.fingerprint(), fast.fingerprint());
    // The override is visible at all: every re-read of C now misses.
    EXPECT_GT(fast.readMisses, before.readMisses);
}
