/**
 * @file
 * W1: the synthetic workload families (seed 1, scale 2) under every
 * scheme. Each family isolates one sharing pattern - streaming,
 * dense reuse, producer-consumer, stencil halos, migratory chunks,
 * line-level false sharing - so the scheme ranking per row shows which
 * pattern favors which coherence strategy, and how those verdicts
 * compare with the Perfect Club kernels of Figure 11 (EXPERIMENTS.md
 * carries the pinned table and the flips).
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "harness.hh"
#include "sweep.hh"
#include "workloads/synth.hh"

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int argc, char **argv)
{
    SweepOptions opts = SweepOptions::parse(argc, argv);
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "W1",
                "synthetic families, read miss rate (percent), seed 1, "
                "scale 2",
                cfg);

    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::VC, SchemeKind::TPI,
                                  SchemeKind::HW};
    const std::vector<std::string> families = workloads::synthFamilies();

    Sweep sweep(opts, "W1");
    for (const std::string &f : families)
        for (SchemeKind k : schemes)
            sweep.add("synth:" + f + ":1", makeConfig(k), /*scale=*/2);
    sweep.run();

    TextTable t;
    t.col("family", TextTable::Align::Left)
        .col("reads")
        .col("BASE%")
        .col("SC%")
        .col("VC%")
        .col("TPI%")
        .col("HW%")
        .col("ranking", TextTable::Align::Left);
    std::size_t cell = 0;
    for (const std::string &f : families) {
        double pct[5];
        Counter reads = 0;
        for (int s = 0; s < 5; ++s) {
            const sim::RunResult &r = sweep[cell++];
            reads = r.reads;
            pct[s] = 100.0 * r.readMissRate;
        }
        t.row().cell(f).cell(reads);
        for (int s = 0; s < 5; ++s)
            t.cell(pct[s], 2);
        // Rank best-to-worst by miss rate (stable: ties keep the
        // BASE, SC, VC, TPI, HW declaration order).
        int order[5] = {0, 1, 2, 3, 4};
        std::stable_sort(order, order + 5,
                         [&](int a, int b) { return pct[a] < pct[b]; });
        std::string rank;
        for (int s = 0; s < 5; ++s)
            rank += std::string(schemeName(schemes[order[s]])) +
                    (s == 4 ? "" : " < ");
        t.cell(rank);
    }
    t.print(std::cout);
    std::cout << "\nranking reads best-to-worst by read miss rate; see "
                 "EXPERIMENTS.md (W1) for the pinned table and how the "
                 "verdicts compare with the Figure 11 kernels.\n";
    sweep.finish(std::cout);
    return 0;
}
