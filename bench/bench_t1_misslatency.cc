/**
 * @file
 * T1: average read miss latency, TPI vs the HW directory, at 16-byte and
 * 64-byte lines (the paper's average-miss-latency table). The paper
 * reports TPI flat (~136 / ~355 cycles) while HW grows on QCD2 and TRFD
 * (145.5 / 405.4 and 149.1 / 418.6) because dirty-remote forwards and
 * invalidation traffic lengthen its misses.
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int, char **)
{
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "T1",
                "average read miss latency (cycles), TPI vs HW", cfg);

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("TPI 16B")
        .col("TPI 64B")
        .col("HW 16B")
        .col("HW 64B");
    // The paper's table lists these five benchmarks.
    for (const std::string &name :
         {std::string("SPEC77"), std::string("OCEAN"),
          std::string("FLO52"), std::string("QCD2"), std::string("TRFD")})
    {
        t.row().cell(name);
        for (SchemeKind k : {SchemeKind::TPI, SchemeKind::HW}) {
            for (unsigned line : {16u, 64u}) {
                MachineConfig c = makeConfig(k);
                c.lineBytes = line;
                sim::RunResult r = runBenchmark(name, c);
                requireSound(r, name);
                t.cell(r.avgMissLatency, 1);
            }
        }
    }
    t.print(std::cout);
    std::cout << "\nexpected shape: TPI roughly flat per line size; HW "
                 "inflated on the write-shared codes (QCD2, TRFD) by "
                 "3-hop dirty misses and invalidations.\n";
    return 0;
}
