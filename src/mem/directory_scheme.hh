/**
 * @file
 * HW: full-map directory scheme with a three-state (invalid, read-shared,
 * write-exclusive) invalidation protocol [8, 3] and write-back caches.
 *
 * A DirNB-i limited-pointer variant (configured with directoryPtrs > 0)
 * models LimitLess-style directories [2]: overflow beyond i sharers traps
 * to software (a fixed cycle penalty) and broadcasts invalidations.
 *
 * False sharing is classified with the Tullsen-Eggers method [34]: an
 * invalidation whose triggering write hits a word the victim never
 * accessed since the fill is a false-sharing invalidation, and the
 * victim's next miss on that block counts as a false-sharing miss.
 */

#ifndef HSCD_MEM_DIRECTORY_SCHEME_HH
#define HSCD_MEM_DIRECTORY_SCHEME_HH

#include <vector>

#include "mem/cache.hh"
#include "mem/coherence.hh"
#include "mem/line_history.hh"

namespace hscd {
namespace mem {

/** Per-cache-line MSI metadata. */
struct MsiLine
{
    bool dirty = false;           ///< write-exclusive (M)
    std::uint64_t accessedMask = 0; ///< words touched since fill
};

/** Directory entry for one memory line. */
struct DirEntry
{
    enum class State : std::uint8_t { Uncached, Shared, Modified };

    State state = State::Uncached;
    std::uint64_t sharers = 0;    ///< presence bits (full map)
    ProcId owner = invalidProc;   ///< valid in Modified
    /** DirNB-i: pointer overflow happened since the last reset. */
    bool overflowed = false;
};

class DirectoryScheme final : public CoherenceScheme
{
  public:
    DirectoryScheme(const MachineConfig &cfg, MainMemory &memory,
                    net::Network &network, stats::StatGroup *parent);

    AccessResult access(const MemOp &op) override;

    /** For tests: inspect directory state of the line holding addr. */
    const DirEntry &dirEntry(Addr addr) const;

    std::string postMortem() const override;

  private:
    using Cache = CacheArray<NoMeta, MsiLine>;

    DirEntry &entry(Addr addr);
    std::size_t lineIndex(Addr addr) const { return addr >> _lineShift; }

    /** Write @p proc's cached line back to memory. */
    void writeBack(ProcId proc, Cache::Line &line);
    /** Invalidate every sharer except @p except; returns count. */
    unsigned invalidateSharers(DirEntry &e, Addr base, ProcId except,
                               unsigned written_word);
    /** Downgrade a Modified owner to Shared, flushing to memory. */
    void downgradeOwner(DirEntry &e, Addr base);
    /** Fetch the line into @p proc's cache (memory must be current). */
    Cache::Line &fill(ProcId proc, Addr addr, Cycles now);
    /** DirNB-i software-handler penalty when sharers exceed pointers. */
    Cycles overflowPenalty(DirEntry &e);
    /** Fault site dir.presence: maybe flip a presence bit of @p e. */
    void maybeCorruptEntry(DirEntry &e);

    std::vector<Cache> _caches;
    std::vector<DirEntry> _dir;
    LineHistory _history;
    unsigned _lineShift; ///< log2(line size): lineIndex is a shift
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_DIRECTORY_SCHEME_HH
