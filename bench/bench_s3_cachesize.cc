/**
 * @file
 * S3: cache-size sweep, 16 KB to 1 MB. Coherence misses are insensitive
 * to capacity, so the TPI/HW gap is stable while replacement misses
 * vanish with size.
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
    printHeader(std::cout, "S3", "cache-size sweep (16KB - 1MB)", cfg);

    const std::uint64_t sizes[] = {16u, 64u, 256u, 1024u};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "S3");
    for (const std::string &name : names) {
        for (std::uint64_t kb : sizes) {
            MachineConfig ct = makeConfig(SchemeKind::TPI);
            ct.cacheBytes = kb * 1024;
            MachineConfig ch = makeConfig(SchemeKind::HW);
            ch.cacheBytes = kb * 1024;
            sweep.add(name + "/TPI/" + std::to_string(kb) + "KB", name,
                      ct);
            sweep.add(name + "/HW/" + std::to_string(kb) + "KB", name,
                      ch);
        }
    }
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left).col("KB");
    t.col("TPI miss%").col("TPI repl%").col("HW miss%").col("HW repl%");
    std::size_t cell = 0;
    for (const std::string &name : names) {
        for (std::uint64_t kb : sizes) {
            const sim::RunResult &rt = sweep[cell++];
            const sim::RunResult &rh = sweep[cell++];
            auto repl = [](const sim::RunResult &r) {
                return r.readMisses ? 100.0 * double(r.missReplacement) /
                                          double(r.readMisses)
                                    : 0.0;
            };
            t.row()
                .cell(name)
                .cell(kb)
                .cell(100.0 * rt.readMissRate, 2)
                .cell(repl(rt), 1)
                .cell(100.0 * rh.readMissRate, 2)
                .cell(repl(rh), 1);
        }
        t.rule();
    }
    t.print(std::cout);
    sweep.finish(std::cout);
    return 0;
}
