/**
 * @file
 * A3: the value of interprocedural analysis. Earlier compiler-directed
 * schemes invalidated the whole cache at procedure boundaries to stay
 * safe across unanalyzed calls; the paper's complete interprocedural
 * analysis keeps marks precise and caches warm. We compare the paper's
 * mode against that prior-work behaviour (flush at every call entry and
 * return) on a call-structured workload.
 */

#include <iostream>

#include "common/table.hh"
#include "harness.hh"
#include "hir/builder.hh"
#include "workloads/workloads.hh"

namespace {

/**
 * A call-structured solver: each task calls helper procedures per
 * iteration (the dominant Fortran style the paper's interprocedural
 * analysis targets): a stencil kernel, an apply step, and a serial
 * bookkeeping routine between epochs.
 */
hscd::hir::Program
callHeavySolver(std::int64_t n, int steps)
{
    using namespace hscd;
    hir::ProgramBuilder b;
    b.param("N", n);
    b.array("U", {"N"});
    b.array("V", {"N"});
    b.array("HIST", {64});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] { b.write("U", {b.v("init")}); });
        b.doserial("t", 0, steps - 1, [&] {
            b.doall("i", 1, n - 2, [&] {
                b.call("STENCIL");
                b.call("APPLY");
            });
            b.call("BOOKKEEP");
        });
    });
    b.proc("STENCIL", [&] {
        b.read("U", {b.v("i") - 1});
        b.read("U", {b.v("i")});
        b.read("U", {b.v("i") + 1});
        b.compute(4);
        b.write("V", {b.v("i")});
    });
    b.proc("APPLY", [&] {
        b.read("V", {b.v("i")});
        b.compute(2);
    });
    b.proc("BOOKKEEP", [&] {
        b.doserial("h", 0, 63, [&] {
            b.read("HIST", {b.v("h")});
            b.write("HIST", {b.v("h")});
        });
        b.doall("j", 1, b.p("N") - 2, [&] {
            b.read("V", {b.v("j")});
            b.write("U", {b.v("j")});
        });
    });
    return b.build();
}

} // namespace

using namespace hscd;
using namespace hscd::bench;

int
benchMain(int, char **)
{
    MachineConfig cfg = makeConfig(SchemeKind::TPI);
    printHeader(std::cout, "A3",
                "interprocedural analysis vs flush-at-procedure-"
                "boundaries (prior HSCD schemes)", cfg);

    compiler::CompiledProgram cp =
        compiler::compileProgram(callHeavySolver(512, 6));
    std::cout << "workload: 512-point solver, 2 calls per task "
                 "iteration + serial bookkeeping procedure\n\n";

    TextTable t;
    t.col("scheme", TextTable::Align::Left)
        .col("mode", TextTable::Align::Left)
        .col("miss %")
        .col("cycles")
        .col("slowdown");
    for (SchemeKind k : {SchemeKind::SC, SchemeKind::TPI}) {
        Cycles base = 0;
        for (bool flush : {false, true}) {
            MachineConfig c = makeConfig(k);
            c.procs = 8;
            c.flushAtCalls = flush;
            sim::RunResult r = sim::simulate(cp, c);
            requireSound(r, "callHeavySolver");
            if (!flush)
                base = r.cycles;
            t.row()
                .cell(schemeName(k))
                .cell(flush ? "flush at calls (prior work)"
                            : "interprocedural (paper)")
                .cell(100.0 * r.readMissRate, 2)
                .cell(r.cycles)
                .cell(double(r.cycles) / double(base), 2);
        }
        t.rule();
    }
    t.print(std::cout);
    std::cout << "\nthe interprocedural row keeps helper-procedure data "
                 "cached across the two calls per iteration; flushing at "
                 "every boundary forfeits all of it.\n";
    return 0;
}
