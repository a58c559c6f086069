/**
 * @file
 * SC scheme: software cache-bypass.
 *
 * Compiler-marked potentially-stale reads invalidate the cached block and
 * reload it from memory (the MIPS R10000 "index writeback invalidate +
 * load" sequence [23]); unmarked reads hit normally. Writes are
 * write-through write-allocate. No hardware timetags: every marked read
 * refetches, so inter-task temporal locality is lost - exactly the
 * limitation TPI's timetags remove.
 */

#ifndef HSCD_MEM_SC_SCHEME_HH
#define HSCD_MEM_SC_SCHEME_HH

#include <vector>

#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/line_history.hh"
#include "mem/write_buffer.hh"

namespace hscd {
namespace mem {

class ScScheme final : public CoherenceScheme
{
  public:
    ScScheme(const MachineConfig &cfg, MainMemory &memory,
             net::Network &network);

    AccessResult access(const MemOp &op) override;
    Cycles epochBoundary(EpochId new_epoch) override;
    void migrationDrain(ProcId p) override;
    void flushCache(ProcId p) override;

  private:
    using Cache = CacheArray<NoMeta, NoMeta>;

    /** Fetch the line holding @p addr into @p proc's cache. */
    Cache::Line &fill(ProcId proc, Addr addr, Cycles now);

    std::vector<Cache> _caches;
    std::vector<WriteBuffer> _wbuf;
    LineHistory _history;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_SC_SCHEME_HH
