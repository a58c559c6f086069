/**
 * @file
 * Differential scenario driver for the synthetic workload generators.
 *
 * For every family and seed, the generated program must (a) lint with
 * zero errors, (b) show zero under-markings against the stale-marking
 * oracle, (c) run shadow-clean (zero oracle / shadow-epoch / DOALL
 * violations) under TPI and SC, and (d) lower to exactly the op
 * sequence of the TaskStream reference interpreter and run without
 * violations across the whole scheme matrix. A generator that emits a
 * racy DOALL, a dishonest marking, or a shape the lowering miscompiles
 * fails here, per family, with the seed in the message.
 *
 * Seed count: 200 per family by default; HSCD_SYNTH_SEEDS overrides
 * (the `synth.soak` ctest entry widens it to 500).
 */

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/log.hh"
#include "compiler/analysis.hh"
#include "op_equiv.hh"
#include "sim/machine.hh"
#include "verify/verify.hh"
#include "workloads/synth.hh"

using namespace hscd;
using namespace hscd::workloads;

namespace {

constexpr SchemeKind kAllSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                      SchemeKind::TPI, SchemeKind::HW,
                                      SchemeKind::VC};

unsigned
seedCount()
{
    if (const char *env = std::getenv("HSCD_SYNTH_SEEDS")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<unsigned>(v);
    }
    return 200;
}

/** The full per-seed gauntlet for one family. */
void
runFamily(const std::string &family)
{
    const unsigned seeds = seedCount();
    for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
        const std::string label =
            "synth:" + family + ":" + std::to_string(seed);
        compiler::CompiledProgram cp =
            compiler::compileProgram(buildSynth(family, seed, 1));

        // (a) lint-clean. The oracle runs once below, not inside lint.
        verify::LintOptions lo;
        lo.runOracle = false;
        verify::DiagnosticEngine d = verify::lintProgram(cp, label, lo);
        ASSERT_EQ(d.errors(), 0u) << label << ":\n" << d.renderText();

        // (b) zero under-markings: the generator's markings come from
        // the real Analysis pipeline and must be honest.
        verify::OracleReport rep = verify::oracleAnalyze(cp);
        ASSERT_TRUE(rep.underMarked.empty())
            << label << " under-marked ref " << rep.underMarked.front();

        // (d) the lowered program's ops are the reference's, and every
        // scheme runs it clean.
        EXPECT_TRUE(testref::opsMatchReference(cp)) << label;
        for (SchemeKind k : kAllSchemes) {
            MachineConfig cfg;
            cfg.scheme = k;
            cfg.procs = 8;
            const sim::RunResult r = sim::simulate(cp, cfg);
            EXPECT_EQ(r.oracleViolations, 0u) << label << " " << schemeName(k);
            EXPECT_EQ(r.doallViolations, 0u) << label << " " << schemeName(k);
        }

        // (c) shadow-clean under the timetag schemes (sampled: the
        // shadow checker is the slow exact-epoch cross-check).
        if (seed % 17 == 1) {
            for (SchemeKind k : {SchemeKind::TPI, SchemeKind::SC}) {
                MachineConfig cfg;
                cfg.scheme = k;
                cfg.procs = 8;
                cfg.shadowEpochCheck = true;
                sim::RunResult r = sim::simulate(cp, cfg);
                EXPECT_EQ(r.oracleViolations, 0u)
                    << label << " " << schemeName(k);
                EXPECT_EQ(r.shadowViolations, 0u)
                    << label << " " << schemeName(k);
                EXPECT_EQ(r.doallViolations, 0u)
                    << label << " " << schemeName(k);
                EXPECT_FALSE(r.abort.aborted())
                    << label << " " << schemeName(k);
            }
        }
    }
}

} // namespace

TEST(SynthDifferential, FamilyListComplete)
{
    const std::vector<std::string> fams = synthFamilies();
    ASSERT_EQ(fams.size(), 6u);
    for (const std::string &f : fams) {
        EXPECT_TRUE(isSynthFamily(f)) << f;
        EXPECT_TRUE(isSynthSpec("synth:" + f + ":1")) << f;
    }
    EXPECT_FALSE(isSynthFamily("ocean"));
    EXPECT_FALSE(isSynthSpec("trace:x"));
}

TEST(SynthDifferential, SpecParsing)
{
    SynthSpec s = parseSynthSpec("synth:stencil:42");
    EXPECT_EQ(s.family, "stencil");
    EXPECT_EQ(s.seed, 42u);
    EXPECT_EQ(s.str(), "synth:stencil:42");
    EXPECT_THROW(parseSynthSpec("synth:migratory"), FatalError);
    EXPECT_THROW(parseSynthSpec("synth:bogus:1"), FatalError);
    EXPECT_THROW(parseSynthSpec("synth:stencil:abc"), FatalError);
    EXPECT_THROW(parseSynthSpec("synth:"), FatalError);
    EXPECT_THROW(parseSynthSpec("gen:1"), FatalError);
    EXPECT_THROW(buildSynth("stencil", 1, 0), FatalError);
}

TEST(SynthDifferential, Streaming) { runFamily("streaming"); }
TEST(SynthDifferential, Reuse) { runFamily("reuse"); }
TEST(SynthDifferential, Prodcons) { runFamily("prodcons"); }
TEST(SynthDifferential, Stencil) { runFamily("stencil"); }
TEST(SynthDifferential, Migratory) { runFamily("migratory"); }
TEST(SynthDifferential, Falseshare) { runFamily("falseshare"); }
