/**
 * @file
 * Golden-value locks on the reproduced paper tables (EXPERIMENTS.md):
 * the Figure 11 miss-rate table, the Figure 12 miss-kind breakdown, and
 * the Figure 13 traffic table, all at scale=1. Future performance work
 * must not silently change reproduced paper numbers; an intentional
 * change regenerates the tables with
 *
 *   HSCD_PRINT_GOLDEN=1 ./tests/hscd_sweep_tests \
 *       --gtest_filter=GoldenMissRates.* 2>&1 | grep GOLDEN
 *
 * and pastes the emitted rows below. The miss-kind and traffic rows are
 * raw event counters (exact integer equality): any change to a single
 * coherence decision anywhere in a run trips them, which is what pins
 * the simulator's behavior across changes to how it executes programs.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

struct GoldenRow
{
    const char *benchmark;
    // Read miss rates in percent: BASE, SC, VC, TPI, HW.
    double pct[5];
};

// Regenerate with HSCD_PRINT_GOLDEN=1 (see file comment).
const GoldenRow kGolden[] = {
    {"ADM", {100.0000, 90.6695, 21.8483, 21.2785, 15.6339}},
    {"FLO52", {100.0000, 100.0000, 29.0568, 22.3421, 24.9400}},
    {"OCEAN", {100.0000, 100.0000, 19.0454, 22.5622, 23.5670}},
    {"QCD2", {100.0000, 99.9068, 15.7310, 16.1426, 11.4916}},
    {"SPEC77", {100.0000, 66.1170, 14.7430, 15.1148, 29.4698}},
    {"TRFD", {100.0000, 100.0000, 12.2642, 14.3729, 11.5982}},
};

// Absolute tolerance in percentage points. Tight enough that a changed
// coherence decision trips it, loose enough for benign float jitter.
constexpr double kTolerance = 0.05;

const SchemeKind kSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                               SchemeKind::VC, SchemeKind::TPI,
                               SchemeKind::HW};

} // namespace

namespace {

/** Figure 12: miss-kind breakdown, raw counters, one row per scheme. */
struct GoldenMissKinds
{
    const char *benchmark;
    // Per scheme (SC, TPI, HW): cold, replacement, trueShare,
    // falseShare, conservative, tagReset, uncached.
    unsigned long long kinds[3][7];
};

/** Figure 13: network traffic, raw counters, one row per scheme. */
struct GoldenTraffic
{
    const char *benchmark;
    // Per scheme (BASE, SC, TPI, HW): trafficPackets, trafficWords.
    unsigned long long traffic[4][2];
};

const SchemeKind kMissKindSchemes[] = {SchemeKind::SC, SchemeKind::TPI,
                                       SchemeKind::HW};
const SchemeKind kTrafficSchemes[] = {SchemeKind::Base, SchemeKind::SC,
                                      SchemeKind::TPI, SchemeKind::HW};

// Regenerate with HSCD_PRINT_GOLDEN=1 (see file comment).
const GoldenMissKinds kGoldenMissKinds[] = {
    {"ADM", {{374, 0, 495, 0, 4223, 0, 0}, {374, 0, 504, 0, 301, 16, 0},
             {374, 0, 189, 315, 0, 0, 0}}},
    {"FLO52", {{44, 0, 252, 0, 2206, 0, 0}, {44, 0, 391, 0, 124, 0, 0},
               {44, 0, 178, 402, 0, 0, 0}}},
    {"OCEAN", {{701, 0, 828, 0, 15987, 0, 0}, {701, 0, 828, 0, 2423, 0, 0},
               {701, 0, 290, 3137, 0, 0, 0}}},
    {"QCD2", {{601, 0, 734, 0, 11532, 0, 0}, {601, 0, 878, 0, 600, 0, 0},
              {601, 0, 608, 271, 0, 0, 0}}},
    {"SPEC77", {{466, 0, 398, 0, 3226, 0, 0}, {466, 0, 431, 0, 38, 0, 0},
                {466, 0, 377, 980, 0, 0, 0}}},
    {"TRFD", {{606, 0, 594, 0, 9612, 0, 0}, {606, 0, 624, 0, 324, 0, 0},
              {606, 0, 561, 87, 0, 0, 0}}},
};

const GoldenTraffic kGoldenTraffic[] = {
    {"ADM", {{8388, 8388}, {8004, 23700}, {4107, 8112}, {3382, 5272}}},
    {"FLO52", {{3652, 3652}, {3749, 11546}, {1806, 3774}, {4222, 6512}}},
    {"OCEAN",
     {{24756, 24756}, {25396, 79864}, {11843, 25388}, {29539, 47844}}},
    {"QCD2", {{15811, 15811}, {16143, 55776}, {5371, 11536}, {7596, 12320}}},
    {"SPEC77", {{8823, 8823}, {7140, 20649}, {3985, 8029}, {13305, 23148}}},
    {"TRFD", {{16584, 16584}, {16746, 49668}, {7488, 12636}, {3966, 7008}}},
};

} // namespace

TEST(GoldenMissRates, F11TableAtScale1)
{
    const std::vector<std::string> names = workloads::benchmarkNames();
    ASSERT_EQ(names.size(), std::size(kGolden));

    SweepOptions opts; // default jobs: the table must not depend on it
    Sweep sweep(opts, "golden-f11");
    for (const std::string &name : names)
        for (SchemeKind k : kSchemes)
            sweep.add(name, makeConfig(k), /*scale=*/1);
    sweep.run();
    sweep.requireAllSound();

    const bool print = std::getenv("HSCD_PRINT_GOLDEN") != nullptr;
    std::size_t cell = 0;
    for (std::size_t b = 0; b < names.size(); ++b) {
        EXPECT_EQ(names[b], kGolden[b].benchmark);
        double measured[5];
        for (int s = 0; s < 5; ++s)
            measured[s] = 100.0 * sweep[cell++].readMissRate;
        if (print) {
            std::fprintf(stderr,
                         "GOLDEN     {\"%s\", {%.4f, %.4f, %.4f, %.4f, "
                         "%.4f}},\n",
                         names[b].c_str(), measured[0], measured[1],
                         measured[2], measured[3], measured[4]);
            continue;
        }
        for (int s = 0; s < 5; ++s) {
            EXPECT_NEAR(measured[s], kGolden[b].pct[s], kTolerance)
                << names[b] << " under " << schemeName(kSchemes[s])
                << ": the reproduced Figure 11 number moved; if this "
                   "change is intentional, regenerate the golden table "
                   "(see file comment) and update EXPERIMENTS.md";
        }
    }
}

TEST(GoldenMissRates, F12MissKindsAtScale1)
{
    const std::vector<std::string> names = workloads::benchmarkNames();
    const bool print = std::getenv("HSCD_PRINT_GOLDEN") != nullptr;
    if (!print) {
        ASSERT_EQ(names.size(), std::size(kGoldenMissKinds));
    }

    SweepOptions opts;
    Sweep sweep(opts, "golden-f12");
    for (const std::string &name : names)
        for (SchemeKind k : kMissKindSchemes)
            sweep.add(name, makeConfig(k), /*scale=*/1);
    sweep.run();
    sweep.requireAllSound();

    std::size_t cell = 0;
    for (std::size_t b = 0; b < names.size(); ++b) {
        unsigned long long got[3][7];
        for (int s = 0; s < 3; ++s) {
            const sim::RunResult &r = sweep[cell++];
            got[s][0] = r.missCold;
            got[s][1] = r.missReplacement;
            got[s][2] = r.missTrueShare;
            got[s][3] = r.missFalseShare;
            got[s][4] = r.missConservative;
            got[s][5] = r.missTagReset;
            got[s][6] = r.missUncached;
        }
        if (print) {
            std::fprintf(stderr, "GOLDEN     {\"%s\", {", names[b].c_str());
            for (int s = 0; s < 3; ++s)
                std::fprintf(
                    stderr, "{%llu, %llu, %llu, %llu, %llu, %llu, %llu}%s",
                    got[s][0], got[s][1], got[s][2], got[s][3], got[s][4],
                    got[s][5], got[s][6], s == 2 ? "" : ", ");
            std::fprintf(stderr, "}},\n");
            continue;
        }
        EXPECT_EQ(names[b], kGoldenMissKinds[b].benchmark);
        for (int s = 0; s < 3; ++s)
            for (int m = 0; m < 7; ++m)
                EXPECT_EQ(got[s][m], kGoldenMissKinds[b].kinds[s][m])
                    << names[b] << " under "
                    << schemeName(kMissKindSchemes[s]) << " kind " << m
                    << ": a Figure 12 miss-kind counter moved (exact "
                       "freeze; regenerate if intentional)";
    }
}

TEST(GoldenMissRates, F13TrafficAtScale1)
{
    const std::vector<std::string> names = workloads::benchmarkNames();
    const bool print = std::getenv("HSCD_PRINT_GOLDEN") != nullptr;
    if (!print) {
        ASSERT_EQ(names.size(), std::size(kGoldenTraffic));
    }

    SweepOptions opts;
    Sweep sweep(opts, "golden-f13");
    for (const std::string &name : names)
        for (SchemeKind k : kTrafficSchemes)
            sweep.add(name, makeConfig(k), /*scale=*/1);
    sweep.run();
    sweep.requireAllSound();

    std::size_t cell = 0;
    for (std::size_t b = 0; b < names.size(); ++b) {
        unsigned long long got[4][2];
        for (int s = 0; s < 4; ++s) {
            const sim::RunResult &r = sweep[cell++];
            got[s][0] = r.trafficPackets;
            got[s][1] = r.trafficWords;
        }
        if (print) {
            std::fprintf(stderr,
                         "GOLDEN     {\"%s\", {{%llu, %llu}, {%llu, %llu}, "
                         "{%llu, %llu}, {%llu, %llu}}},\n",
                         names[b].c_str(), got[0][0], got[0][1], got[1][0],
                         got[1][1], got[2][0], got[2][1], got[3][0],
                         got[3][1]);
            continue;
        }
        EXPECT_EQ(names[b], kGoldenTraffic[b].benchmark);
        for (int s = 0; s < 4; ++s) {
            EXPECT_EQ(got[s][0], kGoldenTraffic[b].traffic[s][0])
                << names[b] << " under " << schemeName(kTrafficSchemes[s])
                << ": Figure 13 packet count moved (exact freeze; "
                   "regenerate if intentional)";
            EXPECT_EQ(got[s][1], kGoldenTraffic[b].traffic[s][1])
                << names[b] << " under " << schemeName(kTrafficSchemes[s])
                << ": Figure 13 word count moved (exact freeze; "
                   "regenerate if intentional)";
        }
    }
}
