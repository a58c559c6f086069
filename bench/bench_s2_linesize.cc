/**
 * @file
 * S2: cache line size sweep. Word-granularity TPI has no false sharing
 * at any line size; the line-granularity directory accumulates
 * false-sharing misses as lines widen.
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
    printHeader(std::cout, "S2",
                "line-size sweep: miss rate and false sharing", cfg);

    const unsigned lines[] = {4u, 16u, 64u};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S2");
    for (const std::string &name : names) {
        for (unsigned line : lines) {
            MachineConfig ctpi = makeConfig(SchemeKind::TPI);
            ctpi.lineBytes = line;
            MachineConfig chw = makeConfig(SchemeKind::HW);
            chw.lineBytes = line;
            sweep.add(name + "/TPI/" + std::to_string(line) + "B", name,
                      ctpi);
            sweep.add(name + "/HW/" + std::to_string(line) + "B", name,
                      chw);
        }
    }
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("line B")
        .col("TPI miss%")
        .col("HW miss%")
        .col("HW false%")
        .col("TPI falseShare");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        for (unsigned line : lines) {
            const sim::RunResult &rt = sweep[cell++];
            const sim::RunResult &rh = sweep[cell++];
            double hw_false =
                rh.readMisses ? 100.0 * double(rh.missFalseShare) /
                                    double(rh.readMisses)
                              : 0.0;
            t.row()
                .cell(name)
                .cell(line)
                .cell(100.0 * rt.readMissRate, 2)
                .cell(100.0 * rh.readMissRate, 2)
                .cell(hw_false, 1)
                .cell(rt.missFalseShare);
        }
        t.rule();
    }
    t.print(std::cout);
    std::cout << "\nTPI's false-sharing column must be identically zero "
                 "(coherence is per word).\n";
    sweep.finish(std::cout);
    return 0;
}
