/**
 * @file
 * The simulated multiprocessor: processors, caches, coherence scheme,
 * interconnect, memory, and the one engine that drives them: it runs a
 * compiled program in global time order, or a recorded trace in record
 * order (sim/trace.hh).
 */

#ifndef HSCD_SIM_MACHINE_HH
#define HSCD_SIM_MACHINE_HH

#include <memory>
#include <vector>

#include "compiler/analysis.hh"
#include "fault/injector.hh"
#include "mem/coherence.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"
#include "sim/result.hh"
#include "sim/trace.hh"

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

    /**
     * Run @p records (which must outlive the machine) in record order
     * over @p dataBytes of memory: each access on its processor through
     * the serial master's per-reference path (oracle, shadow check,
     * every TraceSink hook; writes stamped 1, 2, 3...), with no DOALL
     * legality rule. FatalError on an access past the processors or the
     * memory, or a boundary that does not name the next epoch.
     */
    Machine(const std::vector<TraceRecord> &records, Addr dataBytes,
            MachineConfig cfg);
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

    /** Before run(): add @p script's firings to the fault injector,
     *  attaching one if the plan did not (an empty script does not). */
    void scriptFaults(const std::vector<fault::ScriptedFault> &script);

    /** Execute the whole program or trace; callable once. */
    RunResult run();

    const MachineConfig &config() const { return _cfg; }
    const mem::CoherenceScheme &scheme() const { return *_scheme; }
    const net::Network &network() const { return _network; }
    /** Non-null iff the config's fault plan is enabled or faults were
     *  scripted. */
    const fault::FaultInjector *faultInjector() const
    {
        return _faultInjector.get();
    }

  private:
    friend class Executor;

    Machine(Addr dataBytes, MachineConfig cfg);
    void attachFaultInjector();

    /** What run() executes: exactly one of the two is set. */
    const compiler::CompiledProgram *_cp = nullptr;
    const std::vector<TraceRecord> *_records = nullptr;
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
