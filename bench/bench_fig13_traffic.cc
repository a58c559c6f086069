/**
 * @file
 * F13: network traffic per scheme - read fetches, write-throughs /
 * write-backs, and coherence transactions, in words per 100 references.
 * Reproduces the paper's TRFD observation: write-through redundant
 * writes blow up TPI's traffic until the write buffer is organized as a
 * cache.
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
    printHeader(std::cout, "F13",
                "network traffic breakdown (words per 100 references)",
                cfg);

    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::TPI, SchemeKind::HW};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "F13");
    for (const std::string &name : names)
        for (SchemeKind k : schemes)
            sweep.add(name, makeConfig(k));
    // The TRFD write-buffer ablation rides along in the same sweep.
    MachineConfig coal = makeConfig(SchemeKind::TPI);
    coal.writeBufferAsCache = true;
    std::size_t plainCell =
        sweep.add("TRFD/TPI/plain-wb", "TRFD", makeConfig(SchemeKind::TPI));
    std::size_t coalCell = sweep.add("TRFD/TPI/coalescing-wb", "TRFD", coal);
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("scheme", TextTable::Align::Left)
        .col("read")
        .col("write")
        .col("wback")
        .col("coher")
        .col("total");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        for (SchemeKind k : schemes) {
            const sim::RunResult &r = sweep[cell++];
            double refs = double(r.reads + r.writes) / 100.0;
            double rd = double(r.readWords) / refs;
            double wr = double(r.writeWords) / refs;
            double wb = double(r.writebackWords) / refs;
            double co = double(r.coherencePackets) / refs;
            t.row()
                .cell(name)
                .cell(schemeName(k))
                .cell(rd, 1)
                .cell(wr, 1)
                .cell(wb, 1)
                .cell(co, 1)
                .cell(rd + wr + wb + co, 1);
        }
        t.rule();
    }
    t.print(std::cout);

    std::cout << "\nTRFD redundant-write elimination (cache-organized "
                 "write buffer, [9][10]):\n";
    TextTable w;
    w.col("TPI variant", TextTable::Align::Left)
        .col("write packets")
        .col("reduction");
    const sim::RunResult &rp = sweep[plainCell];
    const sim::RunResult &rc = sweep[coalCell];
    w.row().cell("plain write buffer").cell(rp.writePackets).cell("-");
    w.row()
        .cell("write buffer as cache")
        .cell(rc.writePackets)
        .cell(csprintf("%.1fx", double(rp.writePackets) /
                                     double(rc.writePackets ? rc.writePackets
                                                            : 1)));
    w.print(std::cout);
    sweep.finish(std::cout);
    return 0;
}
