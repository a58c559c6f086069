/**
 * @file
 * Generator determinism locks: the same (family, seed, scale) must
 * produce byte-identical HIR on any thread count and in any process.
 *
 * Thread independence is tested directly (parallelMap at --jobs
 * 1/2/8); process independence is pinned by in-source goldens - an
 * FNV-1a hash of the printed HIR per family, and the F12-style
 * miss-kind counter breakdown of seed 1 under every scheme. The hashes
 * were produced by an earlier build on another machine, so a generator
 * whose output depends on process state, pointer values, or libc
 * rand() trips them immediately. Intentional generator changes
 * regenerate both tables with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_tests \
 *       --gtest_filter=SynthGolden.* 2>&1 | grep GOLDEN
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.hh"
#include "compiler/analysis.hh"
#include "hir/printer.hh"
#include "sim/machine.hh"
#include "workloads/synth.hh"

using namespace hscd;
using namespace hscd::workloads;

namespace {

std::string
printed(const std::string &family, std::uint64_t seed, int scale = 1)
{
    return hir::programToString(buildSynth(family, seed, scale));
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 1469598103934665603ull;
    for (unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

struct GoldenFamily
{
    const char *family;
    // FNV-1a of programToString at seed 1, scales 1 and 2.
    unsigned long long hirHash[2];
    // Seed 1, scale 1 miss-kind counters per scheme (BASE, SC, TPI,
    // HW, VC): cold, replacement, trueShare, falseShare, conservative,
    // tagReset, uncached.
    unsigned long long kinds[5][7];
};

// Regenerate with HSCD_PRINT_GOLDEN=1 (see file comment).
const GoldenFamily kGolden[] = {
    {"falseshare", {10386201950220122371ull, 4555899113842547115ull},
     {{0, 0, 0, 0, 0, 0, 400},
      {9, 0, 0, 0, 91, 0, 0},
      {9, 0, 0, 0, 0, 0, 0},
      {9, 0, 1, 21, 0, 0, 0},
      {9, 0, 0, 0, 0, 0, 0}}},
    {"migratory", {9796474701695320353ull, 3498867754523684004ull},
     {{0, 0, 0, 0, 0, 0, 135},
      {19, 0, 24, 0, 92, 0, 0},
      {19, 0, 24, 0, 1, 0, 0},
      {19, 0, 23, 0, 0, 0, 0},
      {19, 0, 24, 0, 1, 0, 0}}},
    {"prodcons", {230574408603721157ull, 16049893986990952791ull},
     {{0, 0, 0, 0, 0, 0, 390},
      {6, 0, 15, 0, 369, 0, 0},
      {6, 0, 29, 0, 3, 0, 0},
      {6, 0, 11, 60, 0, 0, 0},
      {6, 0, 29, 0, 3, 0, 0}}},
    {"reuse", {13311975948697950791ull, 4144737019507124053ull},
     {{0, 0, 0, 0, 0, 0, 960},
      {49, 0, 14, 0, 897, 0, 0},
      {49, 0, 14, 0, 0, 0, 0},
      {49, 0, 7, 7, 0, 0, 0},
      {49, 0, 14, 0, 0, 0, 0}}},
    {"stencil", {16262792082625097179ull, 5702108709764373826ull},
     {{0, 0, 0, 0, 0, 0, 1224},
      {27, 0, 26, 0, 1171, 0, 0},
      {27, 0, 26, 0, 36, 0, 0},
      {27, 0, 16, 25, 0, 0, 0},
      {27, 0, 36, 0, 4, 0, 0}}},
    {"streaming", {4557448046161154801ull, 12875138804751450811ull},
     {{0, 0, 0, 0, 0, 0, 128},
      {28, 0, 2, 0, 98, 0, 0},
      {28, 0, 2, 0, 0, 0, 0},
      {28, 0, 2, 0, 0, 0, 0},
      {28, 0, 2, 0, 0, 0, 0}}},
};

const SchemeKind kSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                               SchemeKind::TPI, SchemeKind::HW,
                               SchemeKind::VC};

} // namespace

/** Same (family, seed, scale): byte-identical at any --jobs level. */
TEST(SynthDeterminism, ByteIdenticalAcrossThreads)
{
    for (const std::string &family : synthFamilies()) {
        for (std::uint64_t seed : {1ull, 2ull, 23ull}) {
            const std::string ref = printed(family, seed);
            ASSERT_FALSE(ref.empty());
            EXPECT_EQ(printed(family, seed), ref) << family;
            for (unsigned jobs : {1u, 2u, 8u}) {
                auto got = parallelMap(jobs, 8, [&](std::size_t) {
                    return printed(family, seed);
                });
                for (const std::string &s : got)
                    EXPECT_EQ(s, ref)
                        << family << " seed " << seed << " at --jobs "
                        << jobs << " is not byte-identical";
            }
        }
    }
}

/** Seeds and scales actually matter: distinct output, larger output. */
TEST(SynthDeterminism, SeedsAndScalesVary)
{
    for (const std::string &family : synthFamilies()) {
        EXPECT_NE(printed(family, 1), printed(family, 2)) << family;
        EXPECT_NE(printed(family, 1, 2), printed(family, 1)) << family;
    }
    // Family identity matters too: same seed, different program.
    EXPECT_NE(printed("streaming", 1), printed("stencil", 1));
}

/**
 * Cross-process pin: HIR hashes and the miss-kind breakdown of seed 1
 * per family, frozen in-source (exact integer equality, F12-style).
 */
TEST(SynthGolden, Seed1HashesAndMissKinds)
{
    const std::vector<std::string> fams = synthFamilies();
    const bool print = std::getenv("HSCD_PRINT_GOLDEN") != nullptr;
    if (!print) {
        ASSERT_EQ(fams.size(), std::size(kGolden));
    }

    for (std::size_t i = 0; i < fams.size(); ++i) {
        const std::string &family = fams[i];
        unsigned long long hash[2];
        hash[0] = fnv1a(printed(family, 1, 1));
        hash[1] = fnv1a(printed(family, 1, 2));

        compiler::CompiledProgram cp =
            compiler::compileProgram(buildSynth(family, 1, 1));
        unsigned long long got[5][7];
        for (int s = 0; s < 5; ++s) {
            MachineConfig cfg;
            cfg.scheme = kSchemes[s];
            cfg.procs = 8;
            const sim::RunResult r = sim::simulate(cp, cfg);
            got[s][0] = r.missCold;
            got[s][1] = r.missReplacement;
            got[s][2] = r.missTrueShare;
            got[s][3] = r.missFalseShare;
            got[s][4] = r.missConservative;
            got[s][5] = r.missTagReset;
            got[s][6] = r.missUncached;
        }
        if (print) {
            std::fprintf(stderr, "GOLDEN     {\"%s\", {%lluull, %lluull},\n",
                         family.c_str(), hash[0], hash[1]);
            for (int s = 0; s < 5; ++s)
                std::fprintf(
                    stderr,
                    "GOLDEN      %s{%llu, %llu, %llu, %llu, %llu, %llu, "
                    "%llu}%s\n",
                    s == 0 ? "{" : " ", got[s][0], got[s][1], got[s][2],
                    got[s][3], got[s][4], got[s][5], got[s][6],
                    s == 4 ? "}}," : ",");
            continue;
        }
        EXPECT_EQ(family, kGolden[i].family);
        EXPECT_EQ(hash[0], kGolden[i].hirHash[0])
            << family << ": generated HIR changed (scale 1); if "
               "intentional, regenerate the goldens (see file comment)";
        EXPECT_EQ(hash[1], kGolden[i].hirHash[1])
            << family << ": generated HIR changed (scale 2)";
        for (int s = 0; s < 5; ++s)
            for (int m = 0; m < 7; ++m)
                EXPECT_EQ(got[s][m], kGolden[i].kinds[s][m])
                    << family << " under " << schemeName(kSchemes[s])
                    << " kind " << m << ": a miss-kind counter moved "
                    << "(exact freeze; regenerate if intentional)";
    }
}
