/**
 * @file
 * S1: timetag-width sensitivity. The paper claims a 4-bit or 8-bit
 * timetag is enough; narrower tags wrap often, and every two-phase reset
 * invalidates a phase worth of cached words.
 */

#include <iostream>
#include <vector>

#include "common/table.hh"
#include "harness.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int argc, char **argv)
{
    SweepOptions opts = SweepOptions::parse(argc, argv);
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "S1",
                "TPI miss rate vs timetag width (Section 4 sensitivity)",
                cfg);

    const unsigned widths[] = {2u, 3u, 4u, 8u, 16u};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S1");
    for (const std::string &name : names) {
        for (unsigned bits : widths) {
            MachineConfig c = makeConfig(SchemeKind::TPI);
            c.timetagBits = bits;
            sweep.add(name + "/TPI/" + std::to_string(bits) + "b", name, c);
        }
    }
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left);
    for (unsigned bits : widths)
        t.col(std::to_string(bits) + "-bit %");
    t.col("resets@2b").col("cycles 2b/8b");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        t.row().cell(name);
        Counter resets2 = 0;
        Cycles cy2 = 0, cy8 = 0;
        for (unsigned bits : widths) {
            const sim::RunResult &r = sweep[cell++];
            t.cell(100.0 * r.readMissRate, 2);
            if (bits == 2) {
                resets2 = r.missTagReset;
                cy2 = r.cycles;
            }
            if (bits == 8)
                cy8 = r.cycles;
        }
        t.cell(resets2);
        t.cell(double(cy2) / double(cy8), 3);
    }
    t.print(std::cout);
    std::cout << "\nthe 4-bit and 8-bit columns should be essentially "
                 "identical (the paper's claim); 2-bit tags pay for "
                 "frequent two-phase resets.\n";
    sweep.finish(std::cout);
    return 0;
}
