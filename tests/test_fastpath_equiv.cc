/**
 * @file
 * Differential equivalence tests for the epoch-stream fast path.
 *
 * The contract (src/sim/stream.hh) is strict: for every (program,
 * config) the fast path produces a RunResult byte-identical to the
 * legacy per-access interpreter, which stays compiled behind
 * MachineConfig::fastPath = false as the oracle. One recording per
 * program serves every processor count and static schedule; dynamic
 * self-scheduling falls back to the interpreter and still agrees
 * trivially.
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

/** Every paper workload (scale 1), every scheme: byte-identical. */
TEST(FastpathEquiv, BenchmarksAllSchemes)
{
    unsigned eligible = 0;
    for (const std::string &name : workloads::benchmarkNames()) {
        compiler::CompiledProgram cp =
            compiler::compileProgram(workloads::buildBenchmark(name, 1));
        for (SchemeKind k : kAllSchemes) {
            MachineConfig cfg = baseCfg(k);
            eligible += epochStream(cp, cfg) != nullptr ? 1 : 0;
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
            if (epochStream(cp, cfg) != nullptr)
                ++eligible;
            EXPECT_TRUE(pathsAgree(cp, cfg)) << "gen:" << seed;
        }
    }
    // Every program of the corpus is recorded, so every cell must take
    // the fast path.
    EXPECT_EQ(eligible, 250u);
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
    EXPECT_EQ(epochStream(cp, cfg), nullptr);
    EXPECT_TRUE(pathsAgree(cp, cfg));
}

/**
 * An Alternate-policy unknown branch inside a DOALL body counts its
 * trips per iteration, so its outcomes do not depend on which processor
 * runs the iteration: the program is recorded, and the recording
 * replays byte-identically under every placement.
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
    MachineConfig cfg = baseCfg(SchemeKind::TPI);
    EXPECT_NE(epochStream(cp, cfg), nullptr);
    for (unsigned procs : {1u, 3u, 4u})
        for (SchedPolicy sched : {SchedPolicy::Block, SchedPolicy::Cyclic}) {
            MachineConfig c = baseCfg(SchemeKind::TPI, procs);
            c.sched = sched;
            EXPECT_TRUE(pathsAgree(cp, c)) << "procs=" << procs;
        }

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
    EXPECT_NE(epochStream(scp, cfg), nullptr);
    EXPECT_TRUE(pathsAgree(scp, cfg));
}

/**
 * The generator emits Alternate-policy branches inside DOALL bodies too
 * (tests/program_gen.hh): the corpus must actually contain such
 * programs, and every one must be recorded and replay byte-identically
 * on every scheme and under more than one placement.
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
        EXPECT_NE(epochStream(cp, baseCfg(SchemeKind::TPI)), nullptr)
            << "gen:" << seed;
        for (SchemeKind k : kAllSchemes)
            EXPECT_TRUE(pathsAgree(cp, baseCfg(k))) << "gen:" << seed;
        MachineConfig cyclic = baseCfg(SchemeKind::TPI, 3);
        cyclic.sched = SchedPolicy::Cyclic;
        EXPECT_TRUE(pathsAgree(cp, cyclic)) << "gen:" << seed;
    }
    // The shape must be exercised, or this test is vacuous.
    EXPECT_GT(found, 0u);
}

/**
 * One recording per program: every processor count and static schedule
 * gets the same cached stream, recorded once, and each placement of it
 * replays byte-identically to the interpreter. The program covers the
 * placement edge cases: a trip count no processor count above 1
 * divides, a zero-trip DOALL, a DOALL with fewer iterations than
 * processors, and a post/wait chain.
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
    for (const EpochStream &ep : sp->epochs)
        zeroTrip |= ep.iterations() == 0;
    EXPECT_TRUE(zeroTrip);

    for (unsigned procs : {1u, 3u, 4u, 16u, 64u}) {
        for (SchedPolicy sched : {SchedPolicy::Block, SchedPolicy::Cyclic}) {
            for (SchemeKind k : kAllSchemes) {
                MachineConfig cfg = baseCfg(k, procs);
                cfg.sched = sched;
                EXPECT_EQ(epochStream(cp, cfg), sp) << "procs=" << procs;
                EXPECT_TRUE(pathsAgree(cp, cfg))
                    << "procs=" << procs << " sched=" << int(sched);
            }
        }
    }
    EXPECT_EQ(streamCacheStats().builds, builds + 1);
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

/**
 * Dynamic self-scheduling's results, pinned. The fingerprints were
 * captured before Dynamic's placement moved onto the share/refill rule
 * the recorded path uses, for chunks 1 and 3 at P = 3 and 5, on two
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
