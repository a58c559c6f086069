/**
 * @file
 * S6: processor-count scaling, 4 to 64 processors. The paper argues the
 * HSCD scheme suits large-scale machines where directory storage becomes
 * prohibitive; here we check the performance side - the TPI/HW execution
 * time ratio should stay flat (or improve) as the machine grows while
 * Figure 5 (bench_fig5_storage) shows the directory cost exploding.
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
    printHeader(std::cout, "S6", "processor-count scaling", cfg);

    const unsigned counts[] = {4u, 16u, 64u};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S6");
    for (const std::string &name : names) {
        for (unsigned procs : counts) {
            MachineConfig ct = makeConfig(SchemeKind::TPI);
            ct.procs = procs;
            MachineConfig ch = makeConfig(SchemeKind::HW);
            ch.procs = procs;
            sweep.add(name + "/TPI/p" + std::to_string(procs), name, ct);
            sweep.add(name + "/HW/p" + std::to_string(procs), name, ch);
        }
    }
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("procs")
        .col("TPI cycles")
        .col("HW cycles")
        .col("TPI/HW")
        .col("TPI speedup")
        .col("net load");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        Cycles tpi_base = 0;
        for (unsigned procs : counts) {
            const sim::RunResult &rt = sweep[cell++];
            const sim::RunResult &rh = sweep[cell++];
            if (procs == 4)
                tpi_base = rt.cycles;
            t.row()
                .cell(name)
                .cell(procs)
                .cell(rt.cycles)
                .cell(rh.cycles)
                .cell(double(rt.cycles) / double(rh.cycles), 2)
                .cell(double(tpi_base) / double(rt.cycles) * 4.0, 1)
                .cell(double(rt.trafficPackets) / double(rt.cycles), 3);
        }
        t.rule();
    }
    t.print(std::cout);
    std::cout << "\nspeedup is relative to 4 processors (ideal: equals "
                 "the processor count). TPI/HW staying near 1.0 at 64 "
                 "procs, with no directory DRAM, is the paper's "
                 "large-scale argument.\n";
    sweep.finish(std::cout);
    return 0;
}
