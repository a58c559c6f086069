/**
 * @file
 * Per-processor, per-memory-line history used to classify misses
 * (cold / replacement / true vs. false sharing / tag reset).
 */

#ifndef HSCD_MEM_LINE_HISTORY_HH
#define HSCD_MEM_LINE_HISTORY_HH

#include <vector>

#include "common/bitutil.hh"
#include "common/types.hh"
#include "mem/coherence.hh"

namespace hscd {
namespace mem {

enum class LineEvent : std::uint8_t
{
    NeverCached,
    Cached,
    Evicted,
    InvalidatedTrue,   ///< invalidating write hit a word we had used
    InvalidatedFalse,  ///< invalidating write hit a word we had not used
    InvalidatedTag,    ///< TPI two-phase reset victim
};

class LineHistory
{
  public:
    LineHistory(unsigned procs, Addr data_bytes, unsigned line_bytes)
        : _lineShift(floorLog2(line_bytes)),
          _state(procs,
                 std::vector<LineEvent>(data_bytes / line_bytes + 1,
                                        LineEvent::NeverCached))
    {}

    LineEvent
    state(ProcId p, Addr addr) const
    {
        return _state[p][index(addr)];
    }

    void
    record(ProcId p, Addr addr, LineEvent e)
    {
        _state[p][index(addr)] = e;
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
    /** addr / line_bytes; line sizes are powers of two. */
    std::size_t index(Addr addr) const { return addr >> _lineShift; }

    unsigned _lineShift;
    std::vector<std::vector<LineEvent>> _state;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_LINE_HISTORY_HH
