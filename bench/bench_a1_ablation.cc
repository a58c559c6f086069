/**
 * @file
 * A1: ablation of the TPI mechanism itself - which part of the design
 * buys the performance? Three variants per benchmark:
 *
 *   full          - Time-Read(d) check with promotion (the paper),
 *   no-promotion  - passing Time-Reads do not refresh the timetag,
 *   no-distance   - the compiler's distance operand is ignored (every
 *                   Time-Read behaves as d = 0, i.e. "validated this
 *                   epoch or refetch"), which is the hardware-only lower
 *                   bound on compiler support.
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
    printHeader(std::cout, "A1",
                "TPI mechanism ablation (design-choice study)", cfg);

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("variant", TextTable::Align::Left)
        .col("miss %")
        .col("time-read hit %")
        .col("cycles")
        .col("vs full");
    for (const std::string &name : workloads::benchmarkNames()) {
        Cycles full_cycles = 0;
        for (int variant = 0; variant < 3; ++variant) {
            MachineConfig c = makeConfig(SchemeKind::TPI);
            const char *label = "full";
            if (variant == 1) {
                c.tpiPromoteOnHit = false;
                label = "no-promotion";
            } else if (variant == 2) {
                c.tpiUseDistance = false;
                label = "no-distance";
            }
            sim::RunResult r = runBenchmark(name, c);
            requireSound(r, name);
            if (variant == 0)
                full_cycles = r.cycles;
            double hit = r.timeReads ? 100.0 * double(r.timeReadHits) /
                                           double(r.timeReads)
                                     : 0.0;
            t.row()
                .cell(name)
                .cell(label)
                .cell(100.0 * r.readMissRate, 2)
                .cell(hit, 1)
                .cell(r.cycles)
                .cell(double(r.cycles) / double(full_cycles), 2);
        }
        t.rule();
    }
    t.print(std::cout);
    std::cout << "\nno-distance collapses Time-Read hits to spatial "
                 "side-fills only: the compiler's epoch-distance operand "
                 "is what makes the timetags useful. no-promotion decays "
                 "once the reuse distance exceeds the marked d.\n";
    return 0;
}
