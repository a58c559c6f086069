/**
 * @file
 * S5: the Section 5 design considerations - task scheduling and
 * migration. Shows (a) that TPI's inter-task locality depends on an
 * affine schedule but its correctness never does, and (b) that the
 * serial-affinity compilation assumption is unsound once serial tasks
 * migrate, while affinity-free compilation stays coherent at a modest
 * Time-Read cost.
 */

#include <iostream>
#include <vector>

#include "common/table.hh"
#include "harness.hh"
#include "hir/builder.hh"
#include "sweep.hh"
#include "workloads/workloads.hh"

namespace {

/**
 * A program whose serial epochs carry real serial-to-serial reuse (a
 * bookkeeping array only the serial task touches): with the affinity
 * assumption those reads are unmarked; without it they become
 * Time-Reads.
 */
hscd::hir::Program
serialReuseDemo()
{
    using namespace hscd;
    hir::ProgramBuilder b;
    b.array("BOOK", {256}); // serial bookkeeping state
    b.array("FLD", {256});  // parallel field
    b.proc("MAIN", [&] {
        b.doserial("t", 0, 19, [&] {
            b.doserial("k", 0, 255, [&] { b.write("BOOK", {b.v("k")}); });
            b.doall("i", 0, 255, [&] {
                b.read("FLD", {b.v("i")});
                b.write("FLD", {b.v("i")});
            });
            b.doserial("k2", 0, 255, [&] { b.read("BOOK", {b.v("k2")}); });
        });
    });
    return b.build();
}

} // namespace

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int argc, char **argv)
{
    SweepOptions opts = SweepOptions::parse(argc, argv);
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "S5",
                "scheduling and task migration (paper Section 5)", cfg);

    const SchedPolicy policies[] = {SchedPolicy::Block, SchedPolicy::Cyclic,
                                    SchedPolicy::Dynamic};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S5");
    for (const std::string &name : names) {
        for (SchedPolicy s : policies) {
            MachineConfig c = makeConfig(SchemeKind::TPI);
            c.sched = s;
            c.dynamicChunk = 2;
            sweep.add(name, c);
        }
    }

    // (b) cells: the serial-reuse demo compiled with and without the
    // affinity assumption, at migration rates 0 and 1. The compiled
    // programs live in benchMain() and outlive the sweep.
    std::vector<compiler::CompiledProgram> demo;
    for (bool affinity : {true, false}) {
        compiler::AnalysisOptions aopts;
        aopts.assumeSerialAffinity = affinity;
        demo.push_back(compiler::compileProgram(serialReuseDemo(), aopts));
    }
    struct DemoCell
    {
        bool affinity;
        double rate;
        std::size_t cell;
    };
    std::vector<DemoCell> demoCells;
    for (bool affinity : {true, false}) {
        const compiler::CompiledProgram &cp = demo[affinity ? 0 : 1];
        for (double rate : {0.0, 1.0}) {
            MachineConfig c = makeConfig(SchemeKind::TPI);
            c.procs = 8;
            c.migrationRate = rate;
            std::size_t idx = sweep.addCustom(
                csprintf("serial-reuse/%s/rate=%.1f",
                         affinity ? "affinity" : "migration-safe", rate),
                [&cp, c] { return sim::simulate(cp, c); });
            demoCells.push_back({affinity, rate, idx});
        }
    }
    sweep.run();

    std::cout << "(a) DOALL schedule vs TPI Time-Read hit rate:\n";
    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("block hit%")
        .col("cyclic hit%")
        .col("dynamic hit%");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        t.row().cell(name);
        for (SchedPolicy s : policies) {
            (void)s;
            const sim::RunResult &r = sweep[cell++];
            double hit = r.timeReads ? 100.0 * double(r.timeReadHits) /
                                           double(r.timeReads)
                                     : 0.0;
            t.cell(hit, 1);
        }
    }
    t.print(std::cout);

    std::cout << "\n(b) serial-task migration vs the affinity "
                 "assumption (serial-reuse demo, migration rate 1.0):\n";
    TextTable m;
    m.col("compilation", TextTable::Align::Left)
        .col("migration")
        .col("stale reads")
        .col("time-reads")
        .col("cycles");
    for (const DemoCell &dc : demoCells) {
        const sim::RunResult &r = sweep[dc.cell];
        m.row()
            .cell(dc.affinity ? "affinity assumed" : "migration-safe")
            .cell(dc.rate, 1)
            .cell(r.oracleViolations)
            .cell(r.timeReads)
            .cell(r.cycles);
    }
    m.print(std::cout);
    std::cout << "\nthe affinity-compiled row demonstrates WHY the "
                 "assumption must be dropped when the runtime migrates "
                 "serial tasks; the migration-safe row stays at zero "
                 "stale reads.\n";
    // The gate: the schedule cells must be sound, and so must every
    // demo cell but the one that shows the affinity assumption failing.
    sweep.finish(std::cout, [&](std::size_t i) -> CellVerdict {
        for (const DemoCell &dc : demoCells) {
            if (dc.cell != i)
                continue;
            if (!sweep[i].oracleViolations)
                return {};
            if (!dc.affinity)
                return {verify::ExitViolation,
                        "migration-safe compilation must be coherent"};
            if (dc.rate == 0.0)
                return {verify::ExitViolation,
                        "affinity compilation must be sound without "
                        "migration"};
            return {};
        }
        return soundness(sweep[i]);
    });
    return 0;
}
