/**
 * @file
 * The simulated multiprocessor: processors, caches, coherence scheme,
 * interconnect, memory, and the execution-driven engine that runs a
 * compiled program on them in global time order.
 */

#ifndef HSCD_SIM_MACHINE_HH
#define HSCD_SIM_MACHINE_HH

#include <memory>

#include "compiler/analysis.hh"
#include "fault/injector.hh"
#include "mem/coherence.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"
#include "sim/result.hh"

namespace hscd {

namespace sim {

using mem::TraceSink;

/**
 * The executor's per-word record: the value-stamp oracle's last written
 * stamp and the current epoch's DOALL legality state
 * (Executor::checkLegality), fused so a reference reads and writes one
 * record. Kept in zeroed storage: the all-zero record is stamp 0, "never
 * written", and generation 0, "not touched this run".
 */
struct AccessRec
{
    mem::ValueStamp stamp = 0; ///< last value written to the word
    std::int64_t task = 0;
    std::uint64_t gen = 0;  ///< epoch generation tag (0 = never)
    bool wrote = false;
    bool critical = false;
};

class Machine
{
  public:
    /** @p cp must outlive the machine. */
    Machine(const compiler::CompiledProgram &cp, MachineConfig cfg);
    ~Machine();

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    /**
     * Record every scheme-visible event into @p sink during run(); the
     * scheme reports its TagEvents to the same sink. The one observer
     * attachment: a null sink (the default) leaves a null check at each
     * emission site. The timeline and metrics recorders attach through
     * a sim::RecorderSink.
     */
    void
    setTraceSink(TraceSink *sink)
    {
        _trace = sink;
        _scheme->setTraceSink(sink);
    }

    /** Execute the whole program; callable once. */
    RunResult run();

    const MachineConfig &config() const { return _cfg; }
    const mem::CoherenceScheme &scheme() const { return *_scheme; }
    const net::Network &network() const { return _network; }
    /** Non-null iff the config's fault plan is enabled. */
    const fault::FaultInjector *faultInjector() const
    {
        return _faultInjector.get();
    }

  private:
    friend class Executor;

    const compiler::CompiledProgram &_cp;
    MachineConfig _cfg;
    mem::MainMemory _memory;
    net::Network _network;
    std::unique_ptr<mem::CoherenceScheme> _scheme;
    std::unique_ptr<fault::FaultInjector> _faultInjector;
    TraceSink *_trace = nullptr;
    bool _ran = false;
};

/**
 * Convenience: compile nothing, just run @p cp under @p cfg.
 *
 * Thread-safety: a Machine owns all of its mutable state (counters,
 * memory image, network model, migration RNG), so concurrent simulate()
 * calls on distinct Machines are independent - even over one shared,
 * immutable CompiledProgram. The sweep engine relies on this.
 */
RunResult simulate(const compiler::CompiledProgram &cp,
                   const MachineConfig &cfg);

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_MACHINE_HH
