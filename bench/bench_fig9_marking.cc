/**
 * @file
 * F9: compiler reference-marking statistics per benchmark - how many
 * static reads end up Normal (read-only / covered / affinity), Time-Read
 * (with which distances), or Bypass. This is the compile-time side of
 * the study (the paper's discussion of conservative marking).
 */

#include <iostream>

#include "common/strutil.hh"
#include "common/table.hh"
#include "harness.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int, char **)
{
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "F9",
                "static reference marking per benchmark", cfg);

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("epochs")
        .col("reads")
        .col("writes")
        .col("read-only")
        .col("covered")
        .col("affinity")
        .col("time-read")
        .col("bypass")
        .col("%marked");
    for (const std::string &name : workloads::benchmarkNames()) {
        const CompiledProgramPtr prog = compiledBenchmark(name);
        const compiler::CompiledProgram &cp = *prog;
        const compiler::MarkingStats &st = cp.marking.stats();
        double marked =
            st.reads ? 100.0 * double(st.timeRead + st.bypass) /
                           double(st.reads)
                     : 0.0;
        t.row()
            .cell(name)
            .cell(std::uint64_t(cp.graph.nodes().size()))
            .cell(st.reads)
            .cell(st.writes)
            .cell(st.readOnly)
            .cell(st.covered)
            .cell(st.affinity)
            .cell(st.timeRead)
            .cell(st.bypass)
            .cell(marked, 1);
    }
    t.print(std::cout);

    std::cout << "\nTime-Read distance histogram (static references):\n";
    TextTable h;
    h.col("benchmark", TextTable::Align::Left);
    for (int d = 0; d <= 6; ++d)
        h.col("d=" + std::to_string(d));
    h.col("d>6");
    for (const std::string &name : workloads::benchmarkNames()) {
        const CompiledProgramPtr prog = compiledBenchmark(name);
        const compiler::CompiledProgram &cp = *prog;
        const auto &hist = cp.marking.stats().distanceHist;
        h.row().cell(name);
        std::uint64_t tail = 0;
        for (std::size_t d = 7; d < hist.size(); ++d)
            tail += hist[d];
        for (int d = 0; d <= 6; ++d)
            h.cell(hist[std::size_t(d)]);
        h.cell(tail);
    }
    h.print(std::cout);
    std::cout << "\nsmall distances dominate: a 4- or 8-bit timetag "
                 "window comfortably covers them (paper Section 4).\n";
    return 0;
}
