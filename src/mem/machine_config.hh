/**
 * @file
 * Machine configuration (the paper's Figure 8 defaults).
 *
 * CPU: single-issue, 1-cycle ALU ops. Cache: 64 KB direct-mapped,
 * 4-word (16-byte) lines, 1-cycle hit, 100-cycle base miss latency,
 * 8-bit timetags, 128-cycle two-phase reset. Network: analytic
 * Kruskal-Snir model for a buffered multistage network, 16 processors.
 */

#ifndef HSCD_MEM_MACHINE_CONFIG_HH
#define HSCD_MEM_MACHINE_CONFIG_HH

#include <string>

#include "common/config.hh"
#include "common/types.hh"
#include "fault/plan.hh"

namespace hscd {

/** Which coherence scheme a Machine instantiates. */
enum class SchemeKind
{
    Base,       ///< shared data uncached
    SC,         ///< software cache-bypass
    TPI,        ///< two-phase invalidation (the paper's proposal)
    HW,         ///< full-map directory, 3-state invalidation protocol
    VC,         ///< version control (Cheong-Veidenbaum [14] comparator)
};

/** Interconnect topology for the analytic contention model. */
enum class Topology
{
    MIN,       ///< buffered multistage network (Kruskal-Snir [24])
    Torus3D,   ///< T3D-like 3-D torus with dimension-order routing
};

/** How DOALL iterations are assigned to processors. */
enum class SchedPolicy
{
    Block,      ///< contiguous chunks
    Cyclic,     ///< round robin
    Dynamic,    ///< self-scheduling in chunks, by availability
};

struct MachineConfig
{
    /**
     * validate()'s processor limit. The executor's ready queue packs a
     * processor id into log2(kMaxProcs) bits of its keys.
     */
    static constexpr unsigned kMaxProcs = 4096;

    unsigned procs = 16;
    std::uint64_t cacheBytes = 64 * 1024;
    unsigned lineBytes = 16;          ///< 4 32-bit words
    unsigned assoc = 1;               ///< direct-mapped
    Cycles hitCycles = 1;
    Cycles baseMissCycles = 100;      ///< unloaded remote access
    Cycles wordTransferCycles = 12;   ///< per extra word on the line
    unsigned timetagBits = 8;
    Cycles twoPhaseResetCycles = 128;
    Cycles barrierCycles = 40;        ///< epoch boundary synchronization
    Cycles writeLatencyCycles = 60;   ///< write-through completion
    unsigned networkRadix = 2;        ///< switch radix of the MIN
    Topology topology = Topology::MIN;
    double maxNetworkLoad = 0.95;     ///< clamp for the analytic model
    SchemeKind scheme = SchemeKind::TPI;
    SchedPolicy sched = SchedPolicy::Block;
    unsigned dynamicChunk = 4;        ///< iterations per dynamic grab
    Cycles lockCycles = 30;           ///< critical-section acquire cost
    /** 0 = full-map directory; >0 = DirNB-i limited pointers. */
    unsigned directoryPtrs = 0;
    Cycles directoryOverflowCycles = 50; ///< software-handler penalty
    Cycles dirtyMissExtraCycles = 40; ///< 3-hop forwarded miss extra
    /** Organize the write buffer as a small cache (redundant-write
     *  elimination, Alpha 21164 style [9,10]). */
    bool writeBufferAsCache = false;
    unsigned writeBufferCacheWords = 64;
    /** Probability that a task migrates mid-epoch (Section 5 study). */
    double migrationRate = 0.0;
    std::uint64_t migrationSeed = 12345;
    /**
     * Ablations of the TPI mechanism (both default on):
     *  - promotion: a passing Time-Read refreshes the word's timetag,
     *    which is what carries inter-task locality forward;
     *  - distance: the Time-Read instruction carries the compiler's
     *    epoch-distance operand; without it every Time-Read behaves as
     *    d = 0 (hardware degenerates to per-epoch validity).
     */
    bool tpiPromoteOnHit = true;
    bool tpiUseDistance = true;
    /**
     * Prior-work baseline (Cheong/Veidenbaum-era schemes): flash-
     * invalidate the processor's cache at every procedure entry and
     * return instead of doing interprocedural analysis. Applies to the
     * compiler-directed schemes (SC/TPI) only.
     */
    bool flushAtCalls = false;
    Cycles callFlushCycles = 10;
    /**
     * Consistency model. Weak (the paper's choice): writes retire into
     * the (infinite) write buffer in one cycle and only barriers/posts
     * wait for them. Sequential: every write stalls the processor for
     * its full completion latency - the paper's footnote that "both
     * reads and writes are affected" under SC, made measurable.
     */
    bool sequentialConsistency = false;
    /**
     * Shadow-epoch race detector: the executor tracks the last writer
     * (value stamp, processor, epoch) of every shared word and flags any
     * cache hit that observes an older value than the freshest write.
     * A hit that violates this is a coherence bug: either the marking
     * let a stale copy satisfy a read, or the scheme vouched for a word
     * it should not have. Off by default (verification runs only).
     */
    bool shadowEpochCheck = false;
    /**
     * Deterministic fault injection (off by default: rate 0). When the
     * plan is enabled the Machine owns a FaultInjector and threads it
     * through the network model and the coherence scheme; faults then
     * fire from counter-based draws so any failure replays exactly from
     * (workload, config, fault_seed). See src/fault/plan.hh for sites.
     */
    fault::FaultPlan fault;
    /** Cycles before the first retransmission of a lost message. */
    Cycles faultAckTimeoutCycles = 50;
    /** Retransmissions before reliable delivery gives up (Protocol
     *  abort); backoff doubles after each attempt. */
    unsigned faultMaxRetries = 4;
    /**
     * Watchdog: abort with a post-mortem snapshot if a parallel epoch
     * takes this many merge steps without any processor's clock
     * advancing (livelock / deadlock detector). A step is one reference
     * with the Computes folded into it, or one other op. 0 disables.
     */
    std::uint64_t watchdogStallOps = 1ull << 22;

    unsigned wordsPerLine() const { return lineBytes / 4; }
    std::uint64_t lines() const { return cacheBytes / lineBytes; }
    std::uint64_t sets() const { return lines() / assoc; }

    /** Schema for key=value command lines (benches/examples). */
    static Params params();
    /** Build from parsed params. */
    static MachineConfig fromParams(const Params &p);
    /** Validate invariants (power-of-two sizes etc.); fatal on error. */
    void validate() const;

    std::string str() const;

    /**
     * Every field's bytes, in declaration order: two configs simulate
     * the same machine exactly when their keys are equal. The sweep
     * engine runs each distinct (program, key) once.
     */
    std::string key() const;
};

/** Parse "base|sc|tpi|hw". */
SchemeKind parseScheme(const std::string &s);
const char *schemeName(SchemeKind k);

/** Parse "min|torus3d". */
Topology parseTopology(const std::string &s);
const char *topologyName(Topology t);

/** Parse "block|cyclic|dynamic". */
SchedPolicy parseSched(const std::string &s);
const char *schedName(SchedPolicy p);

} // namespace hscd

#endif // HSCD_MEM_MACHINE_CONFIG_HH
