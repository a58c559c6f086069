/**
 * @file
 * VC: the version-control scheme of Cheong and Veidenbaum [14], the
 * HSCD predecessor the paper's related work (and Lilja's survey [26])
 * compares against directories.
 *
 * Coherence is tracked per shared VARIABLE (array): every processor
 * keeps a current version number CVN(X) per array, advanced identically
 * at each epoch boundary where X was written; every cache word stores
 * the version it was born under (BVN). Semantics:
 *
 *  - read fill:   word.bvn := CVN(X)
 *  - write:       word.bvn := CVN(X) + 1  (the version being produced;
 *                 the writer keeps its copy across the next bump)
 *  - read:        hit iff the word is valid and bvn >= CVN(X)
 *  - boundary:    CVN(X)++ for every array written in the ended epoch
 *
 * No per-reference distance operand is needed, but invalidation is
 * per-variable: one write anywhere in an array ages every processor's
 * copies of the whole array - precisely the coarseness TPI's per-word
 * timetags remove. Lock-protected data still uses the compiler's bypass
 * marks, and lock-/sync-ordered writes are born at CVN (not CVN+1) so a
 * later lock owner's update cannot hide behind the writer's copy.
 */

#ifndef HSCD_MEM_VC_SCHEME_HH
#define HSCD_MEM_VC_SCHEME_HH

#include <vector>

#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/line_history.hh"
#include "mem/write_buffer.hh"

namespace hscd {
namespace mem {

/** Per-word VC state. */
struct VcWord
{
    std::uint64_t bvn = 0;
    bool valid = false;
};

class VcScheme final : public CoherenceScheme
{
  public:
    VcScheme(const MachineConfig &cfg, MainMemory &memory,
             net::Network &network);

    AccessResult access(const MemOp &op) override;
    Cycles epochBoundary(EpochId new_epoch) override;
    void migrationDrain(ProcId p) override;
    void flushCache(ProcId p) override;

    /** Current version of @p array (for tests). */
    std::uint64_t cvn(std::uint32_t array) const;

  private:
    using Cache = CacheArray<VcWord>;

    /** One array's version state (identical on every processor). */
    struct ArrayVersion
    {
        std::uint64_t cvn = 0;
        bool written = false; ///< written during the current epoch
    };

    Cache::Line &fill(ProcId proc, const MemOp &op);
    AccessResult miss(const MemOp &op, MissClass cls, unsigned widx);
    ArrayVersion &arraySlot(std::uint32_t array);

    std::vector<Cache> _caches;
    std::vector<WriteBuffer> _wbuf;
    LineHistory _history;
    /** Version table, indexed by array id and grown on demand. */
    std::vector<ArrayVersion> _arrays;
    /** Arrays whose CVN the next boundary bumps, each listed once. */
    std::vector<std::uint32_t> _writtenArrays;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_VC_SCHEME_HH
