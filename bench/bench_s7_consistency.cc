/**
 * @file
 * S7: consistency-model sensitivity. The paper simulates weak
 * consistency and notes (footnote to the traffic discussion) that under
 * sequential consistency "both reads and writes are affected" - the
 * write-through schemes would pay for every store. This experiment makes
 * that claim measurable: execution time under sequential consistency
 * normalized to weak consistency, per scheme.
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
    printHeader(std::cout, "S7",
                "sequential/weak consistency execution-time ratio", cfg);

    const SchemeKind schemes[] = {SchemeKind::SC, SchemeKind::VC,
                                  SchemeKind::TPI, SchemeKind::HW};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S7");
    for (const std::string &name : names) {
        for (SchemeKind k : schemes) {
            MachineConfig weak = makeConfig(k);
            MachineConfig seq = makeConfig(k);
            seq.sequentialConsistency = true;
            sweep.add(name + "/" + schemeName(k) + "/wc", name, weak);
            sweep.add(name + "/" + schemeName(k) + "/sc", name, seq);
        }
    }
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left);
    for (SchemeKind k : schemes)
        t.col(std::string(schemeName(k)) + " SC/WC");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        t.row().cell(name);
        for (SchemeKind k : schemes) {
            (void)k;
            const sim::RunResult &rw = sweep[cell++];
            const sim::RunResult &rs = sweep[cell++];
            t.cell(double(rs.cycles) / double(rw.cycles), 2);
        }
    }
    t.print(std::cout);
    std::cout << "\nwrite-through schemes (SC/VC/TPI) stall on every "
                 "store under sequential consistency; the write-back "
                 "directory mostly hits in M and is the least affected - "
                 "the paper's footnote, quantified.\n";
    sweep.finish(std::cout);
    return 0;
}
