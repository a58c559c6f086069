/**
 * @file
 * Structured event timeline: spans and instants recorded during a run
 * and exported as Chrome/Perfetto `trace_event` JSON (the `--trace-out=`
 * artifact, loadable in ui.perfetto.dev or chrome://tracing).
 *
 * The recorder is deliberately ignorant of the mem/compiler layers: it
 * stores plain integers (track ids, epoch ids, cycle timestamps, raw
 * enum values). Its only producer is sim::RecorderSink, fed by the
 * executor - the single code path shared by the interpreter and the
 * epoch-stream fast path - so the two execution modes emit identical
 * event streams by construction; a test asserts `events()` equality
 * directly.
 *
 * Track layout in the exported trace:
 *   tid 0..P-1   processor tracks (epoch spans, miss flow origins)
 *   tid P        memory/directory track (miss service slices, two-phase
 *                reset windows, fault/abort instants)
 *
 * Protocol-message "arrows" are flow events: an `s` (flow start) bound
 * to the requesting processor's enclosing epoch span and an `f` (flow
 * end, bp:"e") bound to the miss-service slice on the memory track.
 * One simulated cycle is rendered as one microsecond.
 */

#ifndef HSCD_OBS_TIMELINE_HH
#define HSCD_OBS_TIMELINE_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hh"
#include "obs/provenance.hh"

namespace hscd {
namespace obs {

class Timeline
{
  public:
    enum class Kind : std::uint8_t {
        ProcSpan,       ///< one epoch of one processor (dur = exec time)
        MissFlow,       ///< a read miss: request->reply protocol message
        ResetWindow,    ///< two-phase timetag reset stall window
        Instant,        ///< point event, see InstantKind in `sub`
    };

    enum class InstantKind : std::uint8_t {
        TagReset,       ///< epoch counter entered a new timetag phase
        FaultInjected,  ///< fault site fired (arg = cumulative count)
        FaultRecovered, ///< retry/NACK recovered a dropped message
        Abort,          ///< structured abort ended the run
    };

    /**
     * One recorded event; plain integers only so defaulted equality is
     * exact and the fastpath-vs-interpreter test can compare vectors.
     */
    struct Event
    {
        Kind kind = Kind::Instant;
        std::uint8_t sub = 0;      ///< InstantKind, or raw MissClass
        std::uint8_t mark = 0;     ///< MissFlow: raw MarkKind
        std::uint32_t track = 0;   ///< proc id; memTrack() for memory
        EpochId epoch = 0;
        Cycles ts = 0;
        Cycles dur = 0;
        Addr addr = 0;
        std::uint64_t arg = 0;     ///< MissFlow: marking distance

        bool operator==(const Event &) const = default;
    };

    /** Maps raw enum values to display names for the Perfetto export;
     *  the caller (which links the mem layer) supplies real names. */
    struct Naming
    {
        std::function<std::string(std::uint8_t)> missClass;
        std::function<std::string(std::uint8_t)> markKind;
    };

    explicit Timeline(std::size_t capEvents = 1u << 20);

    /** Record one processor executing one epoch over [begin, end). */
    void procSpan(ProcId p, EpochId e, Cycles begin, Cycles end);
    /** Record a read-miss protocol message serviced over `stall`
     *  cycles starting at `ts` on processor `p`. */
    void missFlow(ProcId p, EpochId e, Addr addr, Cycles ts, Cycles stall,
                  std::uint8_t cls, std::uint8_t mark,
                  std::uint64_t distance);
    /** Record a two-phase reset stall window at an epoch boundary. */
    void resetWindow(EpochId e, Cycles begin, Cycles dur);
    void instant(InstantKind k, std::uint32_t track, EpochId e, Cycles ts,
                 std::uint64_t arg = 0);

    const std::vector<Event> &events() const { return _events; }
    /** MissFlow events discarded by the cap (spans/instants are never
     *  dropped - they are bounded by epochs, not references). */
    std::uint64_t dropped() const { return _dropped; }

    /** Memory/directory track id for a machine with @p procs procs. */
    static std::uint32_t memTrack(unsigned procs) { return procs; }

    /** Emit trace_event JSON. @p label names the process. */
    void writePerfetto(std::ostream &os, const Provenance &prov,
                       unsigned procs, const std::string &label,
                       const Naming &naming = {}) const;

  private:
    std::vector<Event> _events;
    std::size_t _cap;
    std::uint64_t _dropped = 0;
};

/**
 * Count trace_event records of each phase type in a Perfetto JSON file
 * written by Timeline::writePerfetto - the schema round-trip check used
 * by tests and `hscd_inspect summary`. Returns false if the file does
 * not look like one of ours.
 */
struct PerfettoCounts
{
    std::uint64_t metadata = 0;   ///< ph:"M"
    std::uint64_t slices = 0;     ///< ph:"X"
    std::uint64_t flowStarts = 0; ///< ph:"s"
    std::uint64_t flowEnds = 0;   ///< ph:"f"
    std::uint64_t instants = 0;   ///< ph:"i"
};
bool readPerfettoCounts(std::istream &is, PerfettoCounts &counts);

} // namespace obs
} // namespace hscd

#endif // HSCD_OBS_TIMELINE_HH
