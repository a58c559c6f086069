/**
 * @file
 * Op-level equivalence of a program's lowered form (sim/stream.hh) with
 * the TaskStream reference interpreter (tests/task_stream.hh).
 */

#ifndef HSCD_TESTS_OP_EQUIV_HH
#define HSCD_TESTS_OP_EQUIV_HH

#include <cstddef>

#include <gtest/gtest.h>

#include "compiler/analysis.hh"
#include "mem/machine_config.hh"

namespace hscd {
namespace testref {

/**
 * Hold @p cp's lowered program to the reference, op for op: the
 * master's ops, each DOALL's bounds and trip count, and every iteration
 * of every DOALL instance the master reaches (kind, address, reference
 * id, cycles, flag, and the iteration the cursor reports). Each epoch's
 * iterations run on one reused cursor in reverse order, against a
 * reference that runs them in order, so the check also covers that an
 * iteration's ops do not depend on where or after what it runs.
 * @p compared, when given, receives the number of ops compared.
 */
::testing::AssertionResult
opsMatchReference(const compiler::CompiledProgram &cp,
                  std::size_t *compared = nullptr);

/**
 * Hold OpCursor::takeComputes to next() alone on @p cp's lowered
 * program. At every DOALL instance the master reaches, each processor of
 * a @p procs-way machine runs its shares under @p sched on two cursors:
 * one op by op, and one that calls takeComputes() after a Ref or
 * Compute as the executor's merge loop does. The second skips every
 * third such call, so folded and unfolded steps mix. Both must yield
 * the same Refs, rare ops and iteration ids, and the same summed Compute
 * cycles per iteration. Dynamic deals its chunks round-robin, so every
 * processor runs several shares on one cursor. @p folded, when given,
 * is increased by the folding cursor's non-zero takeComputes() results.
 */
::testing::AssertionResult
computeFoldingMatchesNext(const compiler::CompiledProgram &cp,
                          SchedPolicy sched, unsigned procs,
                          std::size_t *folded = nullptr);

} // namespace testref
} // namespace hscd

#endif // HSCD_TESTS_OP_EQUIV_HH
