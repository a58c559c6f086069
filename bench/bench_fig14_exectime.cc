/**
 * @file
 * F14: parallel execution time of the four schemes, normalized to the
 * full-map hardware directory (HW = 1.0). The paper's headline: TPI is
 * comparable to HW despite needing no directory.
 */

#include <algorithm>
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
    printHeader(std::cout, "F14",
                "normalized parallel execution time (HW = 1.0)", cfg);

    const SchemeKind schemes[] = {SchemeKind::Base, SchemeKind::SC,
                                  SchemeKind::VC, SchemeKind::TPI,
                                  SchemeKind::HW};
    const std::vector<std::string> names = workloads::benchmarkNames();

    Sweep sweep(opts, "F14");
    for (const std::string &name : names)
        for (SchemeKind k : schemes)
            sweep.add(name, makeConfig(k));
    sweep.run();

    TextTable t;
    t.col("benchmark", TextTable::Align::Left)
        .col("BASE")
        .col("SC")
        .col("VC")
        .col("TPI")
        .col("HW")
        .col("HW cycles");
    double worst = 0, sum = 0;
    int n = 0;
    std::size_t cell = 0;
    for (const std::string &name : names) {
        Cycles hw = 0;
        double cells[5] = {0, 0, 0, 0, 0};
        int idx = 0;
        for (SchemeKind k : schemes) {
            const sim::RunResult &r = sweep[cell++];
            if (k == SchemeKind::HW)
                hw = r.cycles;
            cells[idx++] = double(r.cycles);
        }
        t.row().cell(name);
        for (int i = 0; i < 5; ++i)
            t.cell(cells[i] / double(hw), 2);
        t.cell(hw);
        double ratio = cells[3] / double(hw);
        worst = std::max(worst, ratio);
        sum += ratio;
        ++n;
    }
    t.print(std::cout);
    std::cout << csprintf(
        "\nTPI/HW geomean-ish average %.2f, worst %.2f - the HSCD "
        "scheme tracks the directory without directory storage.\n",
        sum / n, worst);
    sweep.finish(std::cout);
    return 0;
}
