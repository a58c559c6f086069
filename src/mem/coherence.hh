/**
 * @file
 * Coherence-scheme interface and shared machinery (statistics, write
 * pipeline, miss classification, latency model).
 *
 * The executor drives a scheme with one call per memory reference and one
 * call per epoch boundary; everything else (caches, directory, write
 * buffers, timetags) lives behind this interface.
 */

#ifndef HSCD_MEM_COHERENCE_HH
#define HSCD_MEM_COHERENCE_HH

#include <memory>
#include <vector>

#include "compiler/marking.hh"
#include "fault/abort.hh"
#include "fault/injector.hh"
#include "mem/counters.hh"
#include "mem/machine_config.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"

namespace hscd {
namespace mem {

/** Why a miss happened (for the Figure 12 decomposition). */
enum class MissClass : std::uint8_t
{
    None,          ///< it was a hit
    Cold,          ///< first touch by this processor
    Replacement,   ///< line was evicted earlier (capacity/conflict)
    TrueShare,     ///< refetched data that really was stale
    FalseShare,    ///< HW: invalidated by a write to another word
    Conservative,  ///< TPI/SC: refetched data that was actually fresh
    TagReset,      ///< TPI: invalidated by timetag wrap (two-phase reset)
    Uncached,      ///< BASE: shared data is never cached
};

const char *missClassName(MissClass c);

/** One memory reference as the executor issues it. */
struct MemOp
{
    ProcId proc = 0;
    Addr addr = 0;
    bool write = false;
    /** Owning array (hir::ArrayId); per-variable schemes (VC) need it. */
    std::uint32_t arrayId = static_cast<std::uint32_t>(-1);
    compiler::MarkKind mark = compiler::MarkKind::Normal;
    std::uint32_t distance = 0;   ///< TimeRead operand
    ValueStamp stamp = 0;         ///< new value (writes)
    Cycles now = 0;
    /**
     * Reference executes under the lock. Lock-ordered writers may follow
     * within the same epoch, so TPI must not vouch for such a word beyond
     * EC - 1.
     */
    bool critical = false;
};

/** What the processor observes. */
struct AccessResult
{
    bool hit = false;
    Cycles stall = 1;             ///< cycles the processor waits
    ValueStamp observed = 0;      ///< value stamp seen (reads)
    MissClass cls = MissClass::None;
};

/** Why a TPI word's timetag state changed (see TagEvent). */
enum class TagCause : std::uint8_t
{
    DemandFill,    ///< line fill, the demanded word: tt := EC
    SideFill,      ///< line fill, a line-mate: tt := EC - 1 (epoch 0: invalid)
    Write,         ///< tt := EC
    CriticalWrite, ///< lock-ordered write: tt := EC - 1 (epoch 0: invalid)
    Promote,       ///< Time-Read hit: tt := EC
    PhaseReset,    ///< two-phase reset invalidated the word
    Evicted,       ///< the word's line was replaced
    Flushed,       ///< the word's line was flash-invalidated
    FaultFlip,     ///< fault site mem.tag flipped a timetag or valid bit
};

const char *tagCauseName(TagCause c);

/** One change to a cached word's timetag state, as the scheme made it. */
struct TagEvent
{
    ProcId proc = 0;
    Addr word = 0;          ///< word-aligned address
    EpochId epoch = 0;      ///< the epoch counter when the change happened
    EpochId tt = 0;         ///< the word's timetag after the change
    bool valid = false;     ///< effective: false once the line is gone
    TagCause cause = TagCause::DemandFill;
};

/**
 * Receives events during an instrumented run of a program or a trace
 * (Machine::setTraceSink). Declared here so the scheme can
 * report its own timetag decisions to the same sink. It is the
 * executor's only observer: the timeline and the metrics sampler are a
 * sink too (sim::RecorderSink).
 *
 * Order at an epoch boundary: the onSpan events of the closing epoch,
 * then onBoundary, then the onTag events the boundary caused
 * (PhaseReset, and the Flushed events of an epoch-counter resync), then
 * onEpochStart once the barrier's network window has closed.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;
    virtual void onAccess(const MemOp &op) = 0;
    virtual void onBoundary(EpochId epoch) = 0;
    /**
     * Scheme verdict for the op just issued via onAccess: hit/miss,
     * class, stall, and the epoch it executed in. Default no-op so
     * record-only sinks (sim::TraceBuffer) are unaffected.
     */
    virtual void
    onOutcome(const MemOp &op, const AccessResult &res, EpochId epoch)
    {
        (void)op; (void)res; (void)epoch;
    }
    /**
     * A scheme with timetags (TPI) changed one cached word's tag state.
     * Ordering: the events of an access arrive between its onAccess and
     * its onOutcome. A FaultFlip comes before the Time-Read compare;
     * fill (the victim's Evicted events first) and Promote events come
     * after it. PhaseReset and the Flushed events of an epoch-counter
     * resync come after the boundary's onBoundary. Other schemes emit
     * nothing. Default no-op.
     */
    virtual void onTag(const TagEvent &ev) { (void)ev; }
    /**
     * Processor @p p executed epoch @p epoch over [begin, end). A
     * parallel epoch, and each epoch of a trace run, reports each
     * processor that did work after its last onOutcome; a serial region
     * reports the serial processor
     * before the onBoundary that closes it, or at the end of the run.
     * Default no-op.
     */
    virtual void
    onSpan(ProcId p, EpochId epoch, Cycles begin, Cycles end)
    {
        (void)p; (void)epoch; (void)begin; (void)end;
    }
    /**
     * Epoch @p epoch starts at cycle @p t on every processor; @p reset
     * of the barrier's cycles were the scheme's reset stall (TPI's
     * two-phase reset), ending at @p t. Default no-op.
     */
    virtual void
    onEpochStart(EpochId epoch, Cycles t, Cycles reset)
    {
        (void)epoch; (void)t; (void)reset;
    }
    /**
     * The run ends in a structured abort during epoch @p epoch; the
     * serial region's onSpan, if any, came first. Default no-op.
     */
    virtual void
    onAbort(const fault::AbortInfo &info, EpochId epoch)
    {
        (void)info; (void)epoch;
    }
};

/**
 * Common statistics every scheme keeps: the scheme-owned RunResult
 * counters plus the scheme-only stats, both from the counter schema.
 */
struct SchemeStats
{
#define HSCD_SCHEME_COUNTER(type, member, ...) type member = 0;
    HSCD_RESULT_FIELDS(HSCD_COUNTER_SKIP, HSCD_SCHEME_COUNTER)
    HSCD_SCHEME_ONLY_STATS(HSCD_SCHEME_COUNTER)
#undef HSCD_SCHEME_COUNTER

    /** Sample one read miss's latency. */
    void
    noteMissLatency(Cycles latency)
    {
        missLatencySum += double(latency);
        ++missLatencyCount;
    }

    void
    classify(MissClass c)
    {
        switch (c) {
          case MissClass::None:
            break;
          case MissClass::Cold:
            ++missCold;
            break;
          case MissClass::Replacement:
            ++missReplacement;
            break;
          case MissClass::TrueShare:
            ++missTrueShare;
            break;
          case MissClass::FalseShare:
            ++missFalseShare;
            break;
          case MissClass::Conservative:
            ++missConservative;
            break;
          case MissClass::TagReset:
            ++missTagReset;
            break;
          case MissClass::Uncached:
            ++missUncached;
            break;
        }
    }
};

class CoherenceScheme
{
  public:
    CoherenceScheme(const MachineConfig &cfg, MainMemory &memory,
                    net::Network &network);
    virtual ~CoherenceScheme() = default;

    CoherenceScheme(const CoherenceScheme &) = delete;
    CoherenceScheme &operator=(const CoherenceScheme &) = delete;

    /** Perform one reference; updates all state and stats. */
    virtual AccessResult access(const MemOp &op) = 0;

    /**
     * All processors cross an epoch boundary together. Returns the
     * per-processor stall charged on top of the barrier (e.g. TPI's
     * two-phase reset).
     */
    virtual Cycles epochBoundary(EpochId new_epoch);

    /** Weak consistency: cycle at which proc's last write completes. */
    Cycles writeDrainTime(ProcId p) const { return _writeDone[p]; }

    /** A task migrated away from @p p mid-epoch: drain its writes. */
    virtual void migrationDrain(ProcId p) { (void)p; }

    /**
     * Flash-invalidate @p p's whole cache (the prior-work procedure-
     * boundary behaviour; no-op for schemes that don't need it).
     */
    virtual void flushCache(ProcId p) { (void)p; }

    const SchemeStats &stats() const { return _stats; }
    const MachineConfig &config() const { return _cfg; }

    /**
     * Attach the machine's fault injector (also handed to the network by
     * the Machine). Schemes with protocol state additionally arm their
     * own corruption sites; nullptr keeps every fault path compiled out
     * of the hot loop behind one branch.
     */
    void setFaultInjector(fault::FaultInjector *inj) { _fault = inj; }

    /**
     * Attach the run's trace sink so the scheme can report TagEvents;
     * nullptr (the default) leaves one branch at each emission site.
     */
    void setTraceSink(TraceSink *sink) { _sink = sink; }

    /**
     * One-page description of protocol state for post-mortem snapshots
     * (directory owners/sharers, epoch counters, ...). Base version
     * reports only the write pipeline.
     */
    virtual std::string postMortem() const;

  protected:
    // The helpers below run on every simulated reference; they are
    // defined here so each scheme's access() inlines them.

    /** Unloaded + contended latency of a line fetch from memory. */
    Cycles
    lineFetchLatency() const
    {
        return _cfg.baseMissCycles +
               Cycles(_cfg.wordsPerLine() - 1) * _cfg.wordTransferCycles +
               _net.contentionDelay(2);
    }
    /** Latency of a single-word remote access. */
    Cycles
    wordFetchLatency() const
    {
        return _cfg.baseMissCycles + _net.contentionDelay(2);
    }
    /** Record a completed write for the drain deadline. */
    void
    noteWrite(ProcId p, Cycles now, Cycles latency)
    {
        Cycles done = now + latency;
        if (done > _writeDone[p])
            _writeDone[p] = done;
    }
    /**
     * Retire a write of cost @p latency under the configured consistency
     * model; returns the processor-visible stall (1 when buffered).
     */
    Cycles
    finishWrite(ProcId p, Cycles now, Cycles latency)
    {
        if (_cfg.sequentialConsistency)
            return latency; // the processor waits for the write itself
        noteWrite(p, now, latency);
        return 1;
    }

    /**
     * Push one protocol message through the network with reliable
     * delivery: a dropped message is retransmitted after a bounded
     * exponential ack timeout (faultAckTimeoutCycles << attempt), each
     * retry costing a coherence packet; exhausting faultMaxRetries
     * throws a Protocol RunAbort carrying a post-mortem. Returns the
     * extra latency the sender observed (0 on a perfect network).
     */
    Cycles
    reliableSend(ProcId p, Cycles now, const char *what)
    {
        return _fault ? sendWithFaults(p, now, what) : 0;
    }

    /** reliableSend() with an injector attached. */
    Cycles sendWithFaults(ProcId p, Cycles now, const char *what);

    const MachineConfig &_cfg;
    MainMemory &_mem;
    net::Network &_net;
    SchemeStats _stats;
    fault::FaultInjector *_fault = nullptr;
    TraceSink *_sink = nullptr;
    EpochId _epoch = 0;
    std::vector<Cycles> _writeDone;
};

/** Factory: instantiate the scheme selected by @p cfg. */
std::unique_ptr<CoherenceScheme>
makeScheme(const MachineConfig &cfg, MainMemory &memory,
           net::Network &network);

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_COHERENCE_HH
