/**
 * @file
 * The paper campaign (bench/paper.cc) and the sweep engine's cell
 * deduplication. Every claim of every row must hold at the campaign's
 * scale 2; the set that holds at scale 1 is pinned, so a claim whose
 * verdict flips with the workload scale is a recorded finding
 * (EXPERIMENTS.md) rather than a surprise.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.hh"
#include "paper.hh"

using namespace hscd;
using namespace hscd::bench;

namespace {

/** Every row's claims, the whole campaign run at @p scale. */
std::vector<Claim>
claimsAt(int scale)
{
    std::vector<const Row *> rows;
    for (const Row &row : paperRows())
        rows.push_back(&row);
    SweepOptions opts;
    Sweep sweep(opts, "paper-claims");
    std::vector<Claim> all;
    for (const RowRun &run : runRows(sweep, rows, scale)) {
        const std::vector<Claim> claims = run.claims();
        all.insert(all.end(), claims.begin(), claims.end());
    }
    return all;
}

std::string
slurp(const std::string &path)
{
    std::ifstream f(path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

} // namespace

TEST(PaperClaims, AllHoldAtScale2)
{
    const std::vector<Claim> claims = claimsAt(2);
    EXPECT_GE(claims.size(), paperRows().size());
    for (const Claim &c : claims)
        EXPECT_TRUE(c.holds) << c.id << ": " << c.text << " (observed "
                             << c.observed << ")";
}

TEST(PaperClaims, Scale1Pinned)
{
    // These claims fail at scale 1 and hold at scale 2; EXPERIMENTS.md
    // records each flip. R1's grid is at scale 1 either way.
    const std::set<std::string> failAtScale1 = {
        "A2.chunk1-balances", // TRFD imbalance 1.79 both ways
        "F13.trfd-coalesce",  // 6.5x, not 10x
        "S1.4b-near-8b",      // 4 of 6, not 5
        "S4.trfd-outlier",    // TRFD 6.50x
        "S7.wt-stall",        // down to 1.42x
    };
    std::set<std::string> failed;
    std::string why;
    for (const Claim &c : claimsAt(1)) {
        if (c.holds)
            continue;
        failed.insert(c.id);
        why += "  " + c.id + " (observed " + c.observed + ")\n";
    }
    EXPECT_EQ(failed, failAtScale1) << "claims failing at scale 1:\n" << why;
}

TEST(SweepDedup, SameCellRunsOnce)
{
    const std::string path = testing::TempDir() + "hscd_dedup.json";
    SweepOptions opts;
    opts.jobs = 2;
    opts.jsonPath = path;
    Sweep sweep(opts, "dedup");
    const MachineConfig tpi = makeConfig(SchemeKind::TPI);
    MachineConfig hw = makeConfig(SchemeKind::HW);
    const std::size_t a = sweep.add("first", "ADM", tpi, /*scale=*/1);
    const std::size_t other = sweep.add("other", "ADM", hw, /*scale=*/1);
    const std::size_t b = sweep.add("second", "ADM", tpi, /*scale=*/1);
    // Same config at another scale, or as a custom cell: its own run.
    sweep.add("scale2", "ADM", tpi, /*scale=*/2);
    sweep.addCustom("custom", [&] { return runBenchmark("ADM", tpi, 1); });
    ASSERT_EQ(sweep.size(), 5u);
    EXPECT_EQ(sweep.runs(), 4u);
    sweep.run();
    sweep.finish(std::cout);

    EXPECT_EQ(&sweep[a], &sweep[b]); // one result, read by both
    EXPECT_EQ(sweep[a].fingerprint(), sweep[4].fingerprint());
    EXPECT_NE(sweep[a].fingerprint(), sweep[other].fingerprint());
    const std::string json = slurp(path);
    EXPECT_NE(json.find("\"label\": \"first\""), std::string::npos);
    EXPECT_NE(json.find("\"label\": \"second\""), std::string::npos);
    EXPECT_EQ(std::count(json.begin(), json.end(), '{') -
                  std::count(json.begin(), json.end(), '}'),
              0);
    std::remove(path.c_str());
}

TEST(SweepDedup, FaultPlanIsPartOfTheKey)
{
    // Under --fault, each cell's plan derives from its index within its
    // group: equal cells at the same index of two groups share a run,
    // and the same cell at another index does not.
    SweepOptions opts;
    opts.fault = fault::FaultPlan::parse("1e-3:7");
    Sweep sweep(opts, "dedup-fault");
    const MachineConfig tpi = makeConfig(SchemeKind::TPI);
    sweep.beginGroup("A");
    sweep.add("ADM", tpi, 1);
    sweep.add("TRFD", tpi, 1);
    sweep.beginGroup("B");
    sweep.add("ADM", tpi, 1);  // index 0 again: shared
    sweep.add("ADM", tpi, 1);  // index 1: a different plan
    EXPECT_EQ(sweep.runs(), 3u);
}
