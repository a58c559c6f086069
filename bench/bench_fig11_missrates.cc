/**
 * @file
 * Figure 11: read miss rates of BASE / SC / TPI / HW on the six
 * benchmarks with the default 64 KB direct-mapped cache.
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
    printHeader(std::cout, "F11",
                "read miss rates per scheme (paper Figure 11)", cfg);

    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::VC, SchemeKind::TPI,
                                  SchemeKind::HW};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "F11");
    for (const std::string &name : names)
        for (SchemeKind k : schemes)
            sweep.add(name, makeConfig(k));
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left);
    for (SchemeKind k : schemes)
        t.col(std::string(schemeName(k)) + " %");
    t.col("TPI/HW");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        t.row().cell(name);
        double tpi = 0, hw = 0;
        for (SchemeKind k : schemes) {
            const sim::RunResult &r = sweep[cell++];
            t.cell(100.0 * r.readMissRate, 2);
            if (k == SchemeKind::TPI)
                tpi = r.readMissRate;
            if (k == SchemeKind::HW)
                hw = r.readMissRate;
        }
        t.cell(hw > 0 ? tpi / hw : 0.0, 2);
    }
    t.print(std::cout);
    std::cout << "\nBASE misses on every shared read by construction; "
                 "TPI tracks HW within a small factor while SC pays for "
                 "every marked read (paper's Figure 11 shape).\n";
    sweep.finish(std::cout);
    return 0;
}
