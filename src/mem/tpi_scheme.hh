/**
 * @file
 * TPI: the Two-Phase Invalidation scheme (the paper's proposal).
 *
 * Hardware state: one epoch counter per processor (all advance together
 * at epoch boundaries) and an n-bit timetag per cache word. Semantics:
 *
 *  - write:            word.tt := EC (write-through, write-allocate)
 *  - line fill:        accessed word.tt := EC, other words := EC - 1
 *                      (guards intra-epoch RAW/WAR between tasks)
 *  - Time-Read(d):     hit iff word valid and word.tt >= EC - d;
 *                      on hit promote word.tt := EC (inter-task locality)
 *  - normal read:      hit iff word valid (compiler proved freshness)
 *  - bypass read:      always fetch the word from memory
 *  - two-phase reset:  when EC crosses a phase boundary (every 2^(n-1)
 *                      epochs) all words older than one phase are
 *                      invalidated in the background (128-cycle stall),
 *                      keeping the modular timetag comparison unambiguous.
 *
 * Timetags are stored unbounded internally, but the two-phase reset is
 * applied exactly as the n-bit hardware would, so narrow tags genuinely
 * lose cached data (the Section 4 sensitivity experiment).
 */

#ifndef HSCD_MEM_TPI_SCHEME_HH
#define HSCD_MEM_TPI_SCHEME_HH

#include <vector>

#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/line_history.hh"
#include "mem/write_buffer.hh"

namespace hscd {
namespace mem {

/** Per-word TPI state. */
struct TpiWord
{
    EpochId tt = 0;
    bool valid = false;
};

class TpiScheme final : public CoherenceScheme
{
  public:
    TpiScheme(const MachineConfig &cfg, MainMemory &memory,
              net::Network &network);

    AccessResult access(const MemOp &op) override;
    Cycles epochBoundary(EpochId new_epoch) override;
    void migrationDrain(ProcId p) override;
    void flushCache(ProcId p) override;

    /** Timetag window: one phase = 2^(n-1) epochs. */
    EpochId phaseLength() const { return _phase; }

    std::string postMortem() const override;

  private:
    using Cache = CacheArray<TpiWord, NoMeta>;

    Cache::Line &fill(ProcId proc, Addr addr, Cycles now);
    AccessResult miss(const MemOp &op, MissClass cls, unsigned widx);
    /** Fault site mem.tag: maybe flip a timetag/valid bit of @p line. */
    void maybeCorruptTag(Cache::Line *line);

    std::vector<Cache> _caches;
    std::vector<WriteBuffer> _wbuf;
    LineHistory _history;
    EpochId _phase;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_TPI_SCHEME_HH
