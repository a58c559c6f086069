/**
 * @file
 * Synthetic reconstructions of the paper's six Perfect Club benchmarks,
 * plus microkernels.
 *
 * The original Perfect Club codes (and the exact Polaris parallelization
 * the authors used) are not redistributable, so each kernel here models
 * the published loop and sharing structure of its namesake at a reduced
 * problem size:
 *
 *   SPEC77  - spectral weather: per-latitude transforms that broadcast-
 *             read the spectral coefficient array written by the previous
 *             phase; large read-only Legendre tables.
 *   OCEAN   - 2-D ocean basin circulation: double-buffered 5-point
 *             stencil sweeps with serial boundary updates and a global
 *             reduction in a critical section.
 *   FLO52   - transonic-flow multigrid Euler solver: smooth / restrict /
 *             prolong sweeps over three grid levels with different
 *             working sets.
 *   QCD2    - 4-D lattice gauge theory: checkerboard (even/odd) site
 *             updates reading neighbour sites, read-mostly link arrays,
 *             and data-dependent (compile-time-opaque) heat-bath site
 *             selections.
 *   TRFD    - two-electron integral transformation: triangular loop
 *             nests that accumulate into a shared matrix, rewriting the
 *             same words many times per task (the paper's redundant
 *             write-through traffic case).
 *   ADM     - pseudospectral air-pollution transport: per-column implicit
 *             vertical solves (strong intra-task locality) alternating
 *             with transposed horizontal sweeps.
 *
 * Scale 1 is test-sized; scale 2 is the default benchmark size.
 */

#ifndef HSCD_WORKLOADS_WORKLOADS_HH
#define HSCD_WORKLOADS_WORKLOADS_HH

#include <string>
#include <vector>

#include "hir/program.hh"

namespace hscd {
namespace workloads {

/** The six Perfect-Club-like benchmarks, in the paper's order. */
std::vector<std::string> benchmarkNames();

/**
 * Build one of the six by name (case-insensitive), or a seeded
 * synthetic workload via a `synth:<family>:<seed>` spec (see
 * workloads/synth.hh); fatal on typo.
 */
hir::Program buildBenchmark(const std::string &name, int scale = 2);

hir::Program buildSpec77(int scale = 2);
hir::Program buildOcean(int scale = 2);
hir::Program buildFlo52(int scale = 2);
hir::Program buildQcd2(int scale = 2);
hir::Program buildTrfd(int scale = 2);
hir::Program buildAdm(int scale = 2);

// --- microkernels used by examples and focused experiments -------------

/** 1-D double-buffered Jacobi stencil. */
hir::Program microJacobi(std::int64_t n = 256, int steps = 8);
/** Dense matrix multiply C = A*B with DOALL over columns. */
hir::Program microMatmul(std::int64_t n = 24);
/** Global sum via critical-section accumulators. */
hir::Program microReduction(std::int64_t n = 512, int rounds = 4);
/** Out-of-place transpose ping-pong (all-to-all sharing). */
hir::Program microTranspose(std::int64_t n = 32, int rounds = 4);
/** Producer-consumer phase chain with serial glue code. */
hir::Program microPipeline(std::int64_t n = 256, int rounds = 6);
/** Right-looking LU factorization without pivoting (shrinking DOALLs). */
hir::Program microLu(std::int64_t n = 24);
/** FFT-style perfect-shuffle stages over a double buffer. */
hir::Program microFft(std::int64_t n = 256, int rounds = 6);
/**
 * Serial epochs with serial-to-serial reuse of a bookkeeping array only
 * the serial task touches (S5): with the serial-affinity assumption
 * those reads are unmarked, without it they become Time-Reads.
 */
hir::Program microSerialReuse();
/**
 * A call-structured solver (A3): each task calls a stencil and an apply
 * procedure per iteration, with a serial bookkeeping procedure between
 * epochs - the Fortran style the paper's interprocedural analysis
 * targets.
 */
hir::Program microCallSolver(std::int64_t n = 512, int steps = 6);

} // namespace workloads
} // namespace hscd

#endif // HSCD_WORKLOADS_WORKLOADS_HH
