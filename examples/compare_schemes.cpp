/**
 * @file
 * Compare all four coherence schemes on one benchmark.
 *
 *   $ ./compare_schemes [benchmark] [key=value...]
 *   $ ./compare_schemes TRFD procs=32 line_bytes=64
 */

#include <iostream>

#include "common/log.hh"
#include "common/table.hh"
#include "compiler/analysis.hh"
#include "sim/machine.hh"
#include "verify/diagnostic.hh"
#include "workloads/workloads.hh"

using namespace hscd;

int
main(int argc, char **argv)
try {
    std::string name = argc > 1 ? argv[1] : "OCEAN";
    Params params = MachineConfig::params();
    if (argc > 2)
        params.parseArgs({argv + 2, argv + argc});

    compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildBenchmark(name, 2));
    std::cout << "benchmark " << name << ": " << cp.program.refCount()
              << " static refs, " << cp.graph.nodes().size()
              << " epoch nodes, "
              << cp.marking.stats().timeRead << " time-reads\n\n";

    TextTable t;
    t.col("scheme", TextTable::Align::Left)
        .col("cycles")
        .col("vs HW")
        .col("miss %")
        .col("avg miss lat")
        .col("traffic words")
        .col("unnecessary misses");
    Cycles hw_cycles = 0;
    struct Entry
    {
        SchemeKind k;
        sim::RunResult r;
    };
    std::vector<Entry> rows;
    for (SchemeKind k : {SchemeKind::Base, SchemeKind::SC, SchemeKind::VC,
                         SchemeKind::TPI, SchemeKind::HW})
    {
        MachineConfig cfg = MachineConfig::fromParams(params);
        cfg.scheme = k;
        sim::RunResult r = sim::simulate(cp, cfg);
        if (r.oracleViolations) {
            std::cerr << schemeName(k) << ": COHERENCE VIOLATION\n";
            return 1;
        }
        if (k == SchemeKind::HW)
            hw_cycles = r.cycles;
        rows.push_back({k, std::move(r)});
    }
    for (const Entry &e : rows) {
        t.row()
            .cell(schemeName(e.k))
            .cell(e.r.cycles)
            .cell(double(e.r.cycles) / double(hw_cycles), 2)
            .cell(100.0 * e.r.readMissRate, 2)
            .cell(e.r.avgMissLatency, 1)
            .cell(e.r.trafficWords)
            .cell(e.r.unnecessaryMisses());
    }
    t.print(std::cout);
    return 0;
} catch (const FatalError &) {
    // fatal() has already printed the message.
    return verify::ExitUsage;
}
