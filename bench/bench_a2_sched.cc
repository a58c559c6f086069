/**
 * @file
 * A2: scheduling study - load imbalance vs locality. Triangular loops
 * (TRFD) unbalance block schedules; dynamic self-scheduling rebalances
 * but scrambles TPI's processor affinity. Reports both effects plus the
 * dynamic chunk-size trade-off.
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int, char **)
{
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "A2",
                "scheduling: load balance vs processor affinity", cfg);

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("schedule", TextTable::Align::Left)
        .col("imbalance")
        .col("time-read hit %")
        .col("cycles");
    for (const std::string &name : workloads::benchmarkNames()) {
        for (SchedPolicy s : {SchedPolicy::Block, SchedPolicy::Cyclic,
                              SchedPolicy::Dynamic})
        {
            MachineConfig c = makeConfig(SchemeKind::TPI);
            c.sched = s;
            sim::RunResult r = runBenchmark(name, c);
            requireSound(r, name);
            double hit = r.timeReads ? 100.0 * double(r.timeReadHits) /
                                           double(r.timeReads)
                                     : 0.0;
            t.row()
                .cell(name)
                .cell(schedName(s))
                .cell(r.imbalance(), 2)
                .cell(hit, 1)
                .cell(r.cycles);
        }
        t.rule();
    }
    t.print(std::cout);

    std::cout << "\ndynamic chunk size on TRFD (triangular loops):\n";
    TextTable d;
    d.col("chunk").col("imbalance").col("time-read hit %").col("cycles");
    for (unsigned chunk : {1u, 2u, 4u, 8u, 16u}) {
        MachineConfig c = makeConfig(SchemeKind::TPI);
        c.sched = SchedPolicy::Dynamic;
        c.dynamicChunk = chunk;
        sim::RunResult r = runBenchmark("TRFD", c);
        requireSound(r, "TRFD");
        double hit = r.timeReads ? 100.0 * double(r.timeReadHits) /
                                       double(r.timeReads)
                                 : 0.0;
        d.row()
            .cell(chunk)
            .cell(r.imbalance(), 2)
            .cell(hit, 1)
            .cell(r.cycles);
    }
    d.print(std::cout);
    return 0;
}
