/**
 * @file
 * Model-to-implementation bridge: turn an action path of the TPI model
 * into a concrete memory trace plus a scripted fault sequence, then
 * run it on a sim::Machine with the real TpiScheme and compare
 * outcome streams — hit/miss, miss class, observed value stamp per
 * read, and the structured-abort verdict.
 *
 * This is what makes a model counterexample actionable: the emitted
 * trace reproduces the exact interleaving byte-identically on the
 * implementation, with every injected fault scripted at its precise
 * injection opportunity (nth mem.tag firing on a resident-line read,
 * nth net.deliver for drops, nth barrier for epoch flips). It is also
 * the standing evidence that the model *is* the implementation:
 * cross-checking pseudo-random full paths is part of the checker's
 * verdict.
 */

#ifndef HSCD_MC_REPLAY_HH
#define HSCD_MC_REPLAY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/injector.hh"
#include "mc/model.hh"
#include "mem/machine_config.hh"
#include "mem/memory.hh"
#include "sim/trace.hh"

namespace hscd {
namespace mc {

/** MachineConfig realizing @p cfg's machine shape on the real scheme. */
MachineConfig machineConfigFor(const McConfig &cfg);

/** A model run lowered to implementation terms. */
struct EmittedRun
{
    std::vector<sim::TraceRecord> records;
    std::vector<fault::ScriptedFault> script;

    /** Expected scheme verdict for one access record (reads only). */
    struct Expect
    {
        std::size_t access = 0; ///< ordinal among Access records
        bool hit = false;
        mem::MissClass cls = mem::MissClass::None;
        mem::ValueStamp observed = 0;
    };
    std::vector<Expect> expects;

    /** The run ends in a Protocol abort (retry exhaustion). */
    bool expectAbort = false;
};

/** Lower @p path (from explore()'s counterexample or randomWalk()). */
EmittedRun emitRun(const McConfig &cfg, const std::vector<Action> &path);

/** Outcome of replaying a lowered run on the real implementation. */
struct CheckReport
{
    bool ok = true;
    std::uint64_t compared = 0; ///< read outcomes compared
    std::string detail;         ///< first divergence, human-readable
};

/** Run @p path on the real TpiScheme and diff every outcome. */
CheckReport crossCheck(const McConfig &cfg,
                       const std::vector<Action> &path);

} // namespace mc
} // namespace hscd

#endif // HSCD_MC_REPLAY_HH
