/** @file Microkernel programs. */

#include "workloads/workloads.hh"

#include "hir/builder.hh"

namespace hscd {
namespace workloads {

using hir::ProgramBuilder;

hir::Program
microJacobi(std::int64_t n, int steps)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("OLD", {"N"});
    b.array("NEW", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            b.write("OLD", {b.v("init")});
        });
        b.doserial("t", 0, steps - 1, [&] {
            b.doall("i", 1, n - 2, [&] {
                b.read("OLD", {b.v("i") - 1});
                b.read("OLD", {b.v("i")});
                b.read("OLD", {b.v("i") + 1});
                b.compute(4);
                b.write("NEW", {b.v("i")});
            });
            b.doall("j", 1, n - 2, [&] {
                b.read("NEW", {b.v("j")});
                b.write("OLD", {b.v("j")});
            });
        });
    });
    return b.build();
}

hir::Program
microMatmul(std::int64_t n)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("A", {"N", "N"});
    b.array("B", {"N", "N"});
    b.array("C", {"N", "N"});
    b.proc("MAIN", [&] {
        b.doserial("ii", 0, n - 1, [&] {
            b.doserial("jj", 0, n - 1, [&] {
                b.write("A", {b.v("ii"), b.v("jj")});
                b.write("B", {b.v("ii"), b.v("jj")});
            });
        });
        // DOALL over columns of C; tasks broadcast-read A.
        b.doall("j", 0, n - 1, [&] {
            b.doserial("i", 0, n - 1, [&] {
                b.doserial("k", 0, n - 1, [&] {
                    b.read("A", {b.v("i"), b.v("k")});
                    b.read("B", {b.v("k"), b.v("j")});
                    b.compute(2);
                });
                b.write("C", {b.v("i"), b.v("j")});
            });
        });
    });
    return b.build();
}

hir::Program
microReduction(std::int64_t n, int rounds)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("DATA", {"N"});
    b.array("SUM", {8});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            b.write("DATA", {b.v("init")});
        });
        b.doserial("r", 0, rounds - 1, [&] {
            b.write("SUM", {b.c(0)});
            b.doall("i", 0, n - 1, [&] {
                b.read("DATA", {b.v("i")});
                b.compute(3);
                b.critical([&] {
                    b.read("SUM", {b.c(0)});
                    b.write("SUM", {b.c(0)});
                });
            });
            b.read("SUM", {b.c(0)});
        });
    });
    return b.build();
}

hir::Program
microTranspose(std::int64_t n, int rounds)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("X", {"N", "N"});
    b.array("Y", {"N", "N"});
    b.proc("MAIN", [&] {
        b.doserial("ii", 0, n - 1, [&] {
            b.doserial("jj", 0, n - 1, [&] {
                b.write("X", {b.v("ii"), b.v("jj")});
            });
        });
        b.doserial("r", 0, rounds - 1, [&] {
            // Every task's row gathers a column written by all tasks of
            // the previous round: all-to-all sharing.
            b.doall("i", 0, n - 1, [&] {
                b.doserial("j", 0, n - 1, [&] {
                    b.read("X", {b.v("j"), b.v("i")});
                    b.write("Y", {b.v("i"), b.v("j")});
                });
            });
            b.doall("i2", 0, n - 1, [&] {
                b.doserial("j2", 0, n - 1, [&] {
                    b.read("Y", {b.v("j2"), b.v("i2")});
                    b.write("X", {b.v("i2"), b.v("j2")});
                });
            });
        });
    });
    return b.build();
}

hir::Program
microPipeline(std::int64_t n, int rounds)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("S0", {"N"});
    b.array("S1", {"N"});
    b.array("S2", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("r", 0, rounds - 1, [&] {
            b.doall("i", 0, n - 1, [&] {
                b.compute(2);
                b.write("S0", {b.v("i")});
            });
            b.doall("j", 0, n - 1, [&] {
                b.read("S0", {b.v("j")});
                b.compute(2);
                b.write("S1", {b.v("j")});
            });
            b.doall("k", 0, n - 1, [&] {
                b.read("S1", {b.v("k")});
                b.compute(2);
                b.write("S2", {b.v("k")});
            });
            // Serial consumer scans the pipeline tail.
            b.doserial("s", 0, 15, [&] {
                b.read("S2", {b.v("s") * (n / 16)});
            });
        });
    });
    return b.build();
}

hir::Program
microLu(std::int64_t n)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("A", {"N", "N"});
    b.proc("MAIN", [&] {
        b.doserial("ii", 0, n - 1, [&] {
            b.doserial("jj", 0, n - 1, [&] {
                b.write("A", {b.v("ii"), b.v("jj")});
            });
        });
        // Right-looking elimination: the panel scale and the trailing
        // update shrink with k, unbalancing block schedules.
        b.doserial("k", 0, n - 2, [&] {
            b.doall("i", b.v("k") + 1, b.p("N") - 1, [&] {
                b.read("A", {b.v("k"), b.v("k")});
                b.read("A", {b.v("i"), b.v("k")});
                b.compute(3);
                b.write("A", {b.v("i"), b.v("k")});
            });
            b.doall("i2", b.v("k") + 1, b.p("N") - 1, [&] {
                b.doserial("j", b.v("k") + 1, b.p("N") - 1, [&] {
                    b.read("A", {b.v("i2"), b.v("k")});
                    b.read("A", {b.v("k"), b.v("j")});
                    b.read("A", {b.v("i2"), b.v("j")});
                    b.compute(2);
                    b.write("A", {b.v("i2"), b.v("j")});
                });
            });
        });
    });
    return b.build();
}

hir::Program
microFft(std::int64_t n, int rounds)
{
    ProgramBuilder b;
    b.param("N", n);
    b.array("X", {"N"});
    b.array("Y", {"N"});
    b.proc("MAIN", [&] {
        b.doserial("init", 0, n - 1, [&] {
            b.write("X", {b.v("init")});
        });
        // Each round applies a perfect shuffle (the data motion of an
        // FFT stage) and swaps buffers: every element moves, so every
        // read is a Time-Read of another task's previous-round output.
        b.doserial("r", 0, rounds - 1, [&] {
            b.doall("j", 0, n / 2 - 1, [&] {
                b.read("X", {b.v("j") * 2});
                b.read("X", {b.v("j") * 2 + 1});
                b.compute(4);
                b.write("Y", {b.v("j")});
                b.write("Y", {b.v("j") + n / 2});
            });
            b.doall("j2", 0, n / 2 - 1, [&] {
                b.read("Y", {b.v("j2") * 2});
                b.read("Y", {b.v("j2") * 2 + 1});
                b.compute(4);
                b.write("X", {b.v("j2")});
                b.write("X", {b.v("j2") + n / 2});
            });
        });
    });
    return b.build();
}

hir::Program
microSerialReuse()
{
    ProgramBuilder b;
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

hir::Program
microCallSolver(std::int64_t n, int steps)
{
    ProgramBuilder b;
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

} // namespace workloads
} // namespace hscd
