/**
 * @file
 * Top-level compiler driver: runs epoch partitioning, interprocedural
 * summaries, and Time-Read marking, bundling everything the simulator
 * needs alongside the program itself.
 */

#ifndef HSCD_COMPILER_ANALYSIS_HH
#define HSCD_COMPILER_ANALYSIS_HH

#include <memory>

#include "compiler/epoch_graph.hh"
#include "compiler/marking.hh"
#include "compiler/summary.hh"

namespace hscd {
namespace compiler {

/** A program plus every compile-time artifact of the coherence pass. */
struct CompiledProgram
{
    hir::Program program;
    EpochGraph graph;
    Marking marking;
    std::vector<ProcSummary> summaries;
    AnalysisOptions options;

    /**
     * The lowered program of src/sim/stream.cc, built on first use.
     * Type-erased so the compiler layer stays independent of sim;
     * guarded by a sim-side mutex and tied to this program's lifetime.
     */
    mutable std::shared_ptr<void> simCache;
};

/** Run the whole pass pipeline (takes ownership of @p prog). */
CompiledProgram compileProgram(hir::Program prog,
                               const AnalysisOptions &opts = {});

} // namespace compiler
} // namespace hscd

#endif // HSCD_COMPILER_ANALYSIS_HH
