/**
 * @file
 * S4: write-policy ablation for the write-through schemes. Organizing
 * the write buffer as a small cache (Alpha 21164 style) removes the
 * redundant write-through packets, which matters most for TRFD's
 * accumulation loops.
 */

#include <iostream>
#include <vector>

#include "common/strutil.hh"
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
    printHeader(std::cout, "S4",
                "write buffer ablation: plain vs cache-organized", cfg);

    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S4");
    for (const std::string &name : names) {
        MachineConfig plain = makeConfig(SchemeKind::TPI);
        MachineConfig coal = makeConfig(SchemeKind::TPI);
        coal.writeBufferAsCache = true;
        sweep.add(name + "/TPI/plain-wb", name, plain);
        sweep.add(name + "/TPI/coalescing-wb", name, coal);
    }
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("plain writes")
        .col("coalesced writes")
        .col("reduction")
        .col("cycles plain")
        .col("cycles coalesced");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        const sim::RunResult &rp = sweep[cell++];
        const sim::RunResult &rc = sweep[cell++];
        t.row()
            .cell(name)
            .cell(rp.writePackets)
            .cell(rc.writePackets)
            .cell(csprintf("%.2fx",
                           double(rp.writePackets) /
                               double(rc.writePackets ? rc.writePackets
                                                      : 1)))
            .cell(rp.cycles)
            .cell(rc.cycles);
    }
    t.print(std::cout);
    std::cout << "\nTRFD should show by far the largest reduction "
                 "(repeated accumulation into the same words).\n";
    sweep.finish(std::cout);
    return 0;
}
