/**
 * @file
 * Per-processor, per-memory-line history used to classify misses
 * (cold / replacement / true vs. false sharing / tag reset).
 */

#ifndef HSCD_MEM_LINE_HISTORY_HH
#define HSCD_MEM_LINE_HISTORY_HH

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "common/zeroed.hh"
#include "mem/coherence.hh"

namespace hscd {
namespace mem {

/** What last happened to a processor's copy of a line (0 = never cached). */
enum class LineEvent : std::uint8_t
{
    NeverCached = 0,
    Cached,
    Evicted,
    InvalidatedTrue,   ///< invalidating write hit a word we had used
    InvalidatedFalse,  ///< invalidating write hit a word we had not used
    InvalidatedTag,    ///< TPI two-phase reset victim
};

/**
 * One flat procs x lines table of LineEvents, obtained zeroed
 * (common/zeroed.hh): one allocation instead of one per processor, and
 * every entry starts as NeverCached.
 */
class LineHistory
{
  public:
    LineHistory(unsigned procs, Addr data_bytes, unsigned line_bytes)
        : _lineShift(floorLog2(line_bytes)),
          _lines(data_bytes / line_bytes + 1),
          _state(std::size_t{procs} * _lines)
    {}

    LineEvent
    state(ProcId p, Addr addr) const
    {
        return _state[index(p, addr)];
    }

    void
    record(ProcId p, Addr addr, LineEvent e)
    {
        _state[index(p, addr)] = e;
    }

    /** Classify a miss that found no line in the cache. */
    MissClass
    classifyAbsent(ProcId p, Addr addr) const
    {
        switch (state(p, addr)) {
          case LineEvent::NeverCached:
            return MissClass::Cold;
          case LineEvent::Evicted:
            return MissClass::Replacement;
          case LineEvent::InvalidatedTrue:
            return MissClass::TrueShare;
          case LineEvent::InvalidatedFalse:
            return MissClass::FalseShare;
          case LineEvent::InvalidatedTag:
            return MissClass::TagReset;
          case LineEvent::Cached:
            // The frame was reused without an eviction record (should not
            // happen, but classify conservatively as replacement).
            return MissClass::Replacement;
        }
        return MissClass::Cold;
    }

  private:
    /** p's row, column addr / line_bytes (a power of two). */
    std::size_t
    index(ProcId p, Addr addr) const
    {
        const std::size_t line = addr >> _lineShift;
        hscd_dassert(line < _lines, "line history for %#x beyond %d lines",
                     addr, _lines);
        return std::size_t{p} * _lines + line;
    }

    unsigned _lineShift;
    std::size_t _lines;
    ZeroedArray<LineEvent> _state;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_LINE_HISTORY_HH
