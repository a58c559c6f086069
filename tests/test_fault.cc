/**
 * @file
 * The fault-injection subsystem: plan parsing, deterministic
 * counter-based draws, per-scheme recovery paths (retransmission, NACK
 * repair, epoch resync), structured aborts (protocol retry exhaustion,
 * deadlock), and the zero-overhead-when-off guarantee. The end-to-end
 * "never silently wrong" property over a generated corpus lives in the
 * FaultFuzz suite at the bottom; sweep/journal determinism lives in
 * test_fault_determinism.cc.
 */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "fault/injector.hh"
#include "fault/plan.hh"
#include "hir/builder.hh"
#include "program_gen.hh"
#include "sim/machine.hh"
#include "workloads/workloads.hh"

using namespace hscd;

namespace {

compiler::CompiledProgram
compiledWorkload(const std::string &name, int scale = 1)
{
    return compiler::compileProgram(workloads::buildBenchmark(name, scale));
}

MachineConfig
faultCfg(SchemeKind k, double rate, unsigned sites = fault::kSitesAll,
         std::uint64_t seed = 1)
{
    MachineConfig cfg;
    cfg.scheme = k;
    cfg.shadowEpochCheck = true;
    cfg.fault.rate = rate;
    cfg.fault.seed = seed;
    cfg.fault.sites = sites;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// FaultPlan: the --fault axis grammar.
// ---------------------------------------------------------------------

TEST(FaultPlan, ParseRateOnly)
{
    fault::FaultPlan p = fault::FaultPlan::parse("0.01");
    EXPECT_DOUBLE_EQ(p.rate, 0.01);
    EXPECT_EQ(p.seed, 1u);
    EXPECT_EQ(p.sites, fault::kSitesAll);
    EXPECT_TRUE(p.enabled());

    EXPECT_FALSE(fault::FaultPlan::parse("0").enabled());
}

TEST(FaultPlan, ParseSeedAndSites)
{
    fault::FaultPlan p = fault::FaultPlan::parse("0.5:42");
    EXPECT_DOUBLE_EQ(p.rate, 0.5);
    EXPECT_EQ(p.seed, 42u);

    EXPECT_EQ(fault::FaultPlan::parse("0.1:7:net").sites,
              fault::kSitesNet);
    EXPECT_EQ(fault::FaultPlan::parse("0.1:7:mem").sites,
              fault::kSitesMem);
    EXPECT_EQ(fault::FaultPlan::parse("0.1:7:dir").sites,
              fault::kSitesDir);
    EXPECT_EQ(fault::FaultPlan::parse("0.1:7:all").sites,
              fault::kSitesAll);
    EXPECT_EQ(fault::FaultPlan::parse("0.1:7:net.drop,mem.tag").sites,
              fault::siteBit(fault::Site::NetDrop) |
                  fault::siteBit(fault::Site::MemTagFlip));
}

TEST(FaultPlan, ParseRejectsMalformedSpecs)
{
    EXPECT_THROW(fault::FaultPlan::parse(""), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("bogus"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("-0.1"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("1.5"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("0.1:x"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("0.1:7:nosuchsite"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("0.1:7:net:extra"), FatalError);
    // Numbers are read as the command line reads them: no NaN rate, no
    // negative or overflowing seed; a leading zero stays decimal.
    EXPECT_THROW(fault::FaultPlan::parse("nan"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("0.1:-1"), FatalError);
    EXPECT_THROW(fault::FaultPlan::parse("0.1:99999999999999999999"),
                 FatalError);
    EXPECT_EQ(fault::FaultPlan::parse("0.1:010").seed, 10u);
    EXPECT_EQ(fault::FaultPlan::parse("0.1:0x10").seed, 16u);
}

TEST(FaultPlan, StrRoundTrips)
{
    for (const char *spec :
         {"0.01", "0.5:42", "0.001:7:net", "0.25:9:net.drop,dir"}) {
        fault::FaultPlan p = fault::FaultPlan::parse(spec);
        EXPECT_EQ(fault::FaultPlan::parse(p.str()), p) << spec;
    }
}

TEST(FaultPlan, PerCellPlansAreIndependentButStable)
{
    fault::FaultPlan base = fault::FaultPlan::parse("0.01:5:net");
    fault::FaultPlan c0 = fault::planForCell(base, 0);
    fault::FaultPlan c1 = fault::planForCell(base, 1);
    fault::FaultPlan c0again = fault::planForCell(base, 0);
    EXPECT_EQ(c0, c0again);
    EXPECT_NE(c0.seed, c1.seed);
    EXPECT_DOUBLE_EQ(c0.rate, base.rate);
    EXPECT_EQ(c0.sites, base.sites);
}

// ---------------------------------------------------------------------
// FaultInjector: counter-based determinism.
// ---------------------------------------------------------------------

TEST(FaultInjector, DrawsAreDeterministic)
{
    fault::FaultPlan p = fault::FaultPlan::parse("0.3:99");
    fault::FaultInjector a(p), b(p);
    for (int i = 0; i < 1000; ++i) {
        fault::Site s = static_cast<fault::Site>(i % fault::kNumSites);
        EXPECT_EQ(a.fire(s), b.fire(s));
        EXPECT_EQ(a.draw(s), b.draw(s));
    }
    EXPECT_EQ(a.stats().totalInjected(), b.stats().totalInjected());
    EXPECT_GT(a.stats().totalInjected(), 0u);
}

TEST(FaultInjector, RateZeroAndOneAreExtremes)
{
    fault::FaultPlan none = fault::FaultPlan::parse("0:1");
    none.rate = 0.0;
    fault::FaultInjector quiet(none);
    for (int i = 0; i < 200; ++i)
        EXPECT_FALSE(quiet.fire(fault::Site::NetDrop));

    fault::FaultPlan always = fault::FaultPlan::parse("1:1");
    fault::FaultInjector loud(always);
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(loud.fire(fault::Site::NetDrop));
}

TEST(FaultInjector, DisabledSitesNeverFire)
{
    fault::FaultPlan p = fault::FaultPlan::parse("1:1:net.drop");
    fault::FaultInjector inj(p);
    EXPECT_TRUE(inj.fire(fault::Site::NetDrop));
    EXPECT_FALSE(inj.fire(fault::Site::MemTagFlip));
    EXPECT_FALSE(inj.fire(fault::Site::DirPresenceFlip));
    EXPECT_EQ(inj.stats().injected[static_cast<unsigned>(
                  fault::Site::MemTagFlip)],
              0u);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    fault::FaultPlan p1 = fault::FaultPlan::parse("0.5:1");
    fault::FaultPlan p2 = fault::FaultPlan::parse("0.5:2");
    fault::FaultInjector a(p1), b(p2);
    unsigned differs = 0;
    for (int i = 0; i < 200; ++i)
        differs += a.fire(fault::Site::NetDrop) !=
                   b.fire(fault::Site::NetDrop);
    EXPECT_GT(differs, 0u);
}

// ---------------------------------------------------------------------
// Machine-level behavior.
// ---------------------------------------------------------------------

TEST(FaultMachine, DisabledPlanIsBitForBitFree)
{
    compiler::CompiledProgram cp = compiledWorkload("OCEAN");
    for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
        MachineConfig plain;
        plain.scheme = k;
        MachineConfig off = plain;
        off.fault.rate = 0.0; // disabled, but seed/sites differ
        off.fault.seed = 123;
        off.fault.sites = fault::kSitesNet;
        sim::RunResult a = sim::simulate(cp, plain);
        sim::RunResult b = sim::simulate(cp, off);
        EXPECT_EQ(a, b) << schemeName(k);
        EXPECT_EQ(a.fingerprint(), b.fingerprint()) << schemeName(k);
        EXPECT_EQ(b.faultsInjected, 0u);
        EXPECT_FALSE(b.aborted());
    }
}

TEST(FaultMachine, RunsAreReproducible)
{
    compiler::CompiledProgram cp = compiledWorkload("TRFD");
    for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
        MachineConfig cfg = faultCfg(k, 0.02);
        sim::RunResult a = sim::simulate(cp, cfg);
        sim::RunResult b = sim::simulate(cp, cfg);
        EXPECT_EQ(a, b) << schemeName(k);
        EXPECT_GT(a.faultsInjected, 0u) << schemeName(k);
    }
}

TEST(FaultMachine, DroppedMessagesAreRetransmitted)
{
    compiler::CompiledProgram cp = compiledWorkload("OCEAN");
    MachineConfig cfg = faultCfg(SchemeKind::TPI, 0.05,
                                 fault::siteBit(fault::Site::NetDrop));
    sim::RunResult ref = sim::simulate(cp, faultCfg(SchemeKind::TPI, 0));
    sim::RunResult r = sim::simulate(cp, cfg);
    EXPECT_FALSE(r.aborted());
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_GT(r.faultRetries, 0u);
    EXPECT_GT(r.faultsRecovered, 0u);
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_EQ(r.shadowViolations, 0u);
    // Drops cost latency, never work: same instruction stream.
    EXPECT_EQ(r.tasks, ref.tasks);
    EXPECT_EQ(r.reads, ref.reads);
    EXPECT_EQ(r.writes, ref.writes);
    EXPECT_GE(r.cycles, ref.cycles);
}

TEST(FaultMachine, RetryExhaustionAbortsStructured)
{
    compiler::CompiledProgram cp = compiledWorkload("OCEAN");
    MachineConfig cfg = faultCfg(SchemeKind::SC, 1.0,
                                 fault::siteBit(fault::Site::NetDrop));
    sim::RunResult r = sim::simulate(cp, cfg);
    ASSERT_TRUE(r.aborted());
    EXPECT_EQ(r.abort.kind, fault::AbortKind::Protocol);
    EXPECT_NE(r.abort.reason.find("retry budget"), std::string::npos)
        << r.abort.reason;
    EXPECT_FALSE(r.abort.snapshot.empty());
    EXPECT_GT(r.faultRetries, 0u);
    EXPECT_NE(r.summary().find("ABORTED"), std::string::npos);
}

TEST(FaultMachine, DuplicatesAndDelaysAreBenign)
{
    compiler::CompiledProgram cp = compiledWorkload("TRFD");
    const unsigned sites = fault::siteBit(fault::Site::NetDup) |
                           fault::siteBit(fault::Site::NetDelay) |
                           fault::siteBit(fault::Site::NetReorder);
    sim::RunResult ref = sim::simulate(cp, faultCfg(SchemeKind::HW, 0));
    sim::RunResult r =
        sim::simulate(cp, faultCfg(SchemeKind::HW, 0.1, sites));
    EXPECT_FALSE(r.aborted());
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_EQ(r.shadowViolations, 0u);
    EXPECT_EQ(r.tasks, ref.tasks);
    EXPECT_EQ(r.reads, ref.reads);
    EXPECT_EQ(r.writes, ref.writes);
}

TEST(FaultMachine, DirectoryCorruptionNeverSilent)
{
    compiler::CompiledProgram cp = compiledWorkload("OCEAN");
    sim::RunResult ref = sim::simulate(cp, faultCfg(SchemeKind::HW, 0));
    unsigned injected_somewhere = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        sim::RunResult r = sim::simulate(
            cp, faultCfg(SchemeKind::HW, 0.02, fault::kSitesDir, seed));
        injected_somewhere += r.faultsInjected > 0;
        if (r.aborted())
            continue; // detected
        if (r.oracleViolations || r.shadowViolations)
            continue; // detected (a cleared bit left a stale sharer)
        // Unflagged completion must mean identical work.
        EXPECT_EQ(r.tasks, ref.tasks) << "seed " << seed;
        EXPECT_EQ(r.reads, ref.reads) << "seed " << seed;
        EXPECT_EQ(r.writes, ref.writes) << "seed " << seed;
    }
    EXPECT_GT(injected_somewhere, 0u);
}

TEST(FaultMachine, EpochCounterFlipRecoversByResync)
{
    compiler::CompiledProgram cp = compiledWorkload("TRFD");
    sim::RunResult ref = sim::simulate(cp, faultCfg(SchemeKind::TPI, 0));
    sim::RunResult r = sim::simulate(
        cp, faultCfg(SchemeKind::TPI, 0.2,
                     fault::siteBit(fault::Site::MemEpochFlip)));
    EXPECT_FALSE(r.aborted());
    EXPECT_GT(r.faultsInjected, 0u);
    EXPECT_GT(r.faultsRecovered, 0u);
    EXPECT_EQ(r.oracleViolations, 0u);
    EXPECT_EQ(r.shadowViolations, 0u);
    // Flash invalidation costs misses and stall, never correctness.
    EXPECT_EQ(r.tasks, ref.tasks);
    EXPECT_GE(r.readMisses, ref.readMisses);
}

TEST(FaultMachine, DeadlockIsStructuredUnderFaultsFatalOtherwise)
{
    // A DOALL task waiting on a flag nobody posts: parked processors at
    // the end of the epoch.
    hir::ProgramBuilder b;
    b.param("N", 8);
    b.array("A", {"N"});
    b.proc("MAIN", [&] {
        b.doall("i", 0, 3, [&] {
            b.post(b.c(1));
            b.wait(b.c(9)); // never posted
            b.read("A", {b.v("i")});
        });
    });
    compiler::CompiledProgram cp = compiler::compileProgram(b.build());

    MachineConfig plain;
    plain.scheme = SchemeKind::TPI;
    EXPECT_THROW(sim::simulate(cp, plain), FatalError);

    MachineConfig cfg = faultCfg(SchemeKind::TPI, 1e-9);
    sim::RunResult r = sim::simulate(cp, cfg);
    ASSERT_TRUE(r.aborted());
    EXPECT_EQ(r.abort.kind, fault::AbortKind::Deadlock);
    EXPECT_FALSE(r.abort.snapshot.empty());
    EXPECT_NE(r.summary().find("deadlock"), std::string::npos);
}

TEST(FaultMachine, FingerprintStableWhenFaultFieldsDefault)
{
    // The fingerprint must not mix the new abort/fault fields unless
    // they are set: fault-free fingerprints are frozen in sweep JSON.
    sim::RunResult r;
    r.cycles = 1234;
    r.reads = 56;
    const std::uint64_t base = r.fingerprint();
    sim::RunResult loud = r;
    loud.faultsInjected = 1;
    EXPECT_NE(loud.fingerprint(), base);
    sim::RunResult aborted = r;
    aborted.abort.kind = fault::AbortKind::Watchdog;
    aborted.abort.reason = "x";
    EXPECT_NE(aborted.fingerprint(), base);
}

// ---------------------------------------------------------------------
// FaultFuzz: the PR 2 generated-program corpus under a low fault rate.
// Every run must be recovered, aborted, or flagged - never silently
// wrong relative to its fault-free reference.
// ---------------------------------------------------------------------

TEST(FaultFuzz, GeneratedCorpusNeverSilentlyWrong)
{
    constexpr std::uint64_t fuzzSeeds = 200;
    constexpr SchemeKind kSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                       SchemeKind::TPI, SchemeKind::HW,
                                       SchemeKind::VC};
    std::uint64_t injected = 0, flagged = 0, aborted = 0;
    for (std::uint64_t seed = 1; seed <= fuzzSeeds; ++seed) {
        testgen::GenOptions g;
        g.seed = seed;
        compiler::CompiledProgram cp =
            compiler::compileProgram(testgen::randomLegalProgram(g));
        const SchemeKind k = kSchemes[seed % 5];

        sim::RunResult ref = sim::simulate(cp, faultCfg(k, 0));
        MachineConfig cfg = faultCfg(k, 1e-3);
        cfg.fault.seed = seed;
        sim::RunResult r = sim::simulate(cp, cfg);

        injected += r.faultsInjected;
        if (r.aborted()) {
            ++aborted;
            continue;
        }
        if (r.oracleViolations || r.shadowViolations ||
            r.doallViolations) {
            ++flagged;
            continue;
        }
        EXPECT_EQ(r.tasks, ref.tasks) << "seed " << seed;
        EXPECT_EQ(r.epochs, ref.epochs) << "seed " << seed;
        EXPECT_EQ(r.reads, ref.reads) << "seed " << seed;
        EXPECT_EQ(r.writes, ref.writes) << "seed " << seed;

        if (seed % 23 == 0) { // subsample the double-run determinism check
            sim::RunResult again = sim::simulate(cp, cfg);
            EXPECT_EQ(r, again) << "seed " << seed;
        }
    }
    // The corpus must actually exercise injection (not vacuously pass).
    EXPECT_GT(injected, 0u);
    SUCCEED() << "injected=" << injected << " flagged=" << flagged
              << " aborted=" << aborted;
}
