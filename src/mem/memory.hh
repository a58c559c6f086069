/**
 * @file
 * Main-memory model.
 *
 * The simulator does not carry real data; every write deposits a unique
 * monotone "value stamp" so coherence can be checked exactly: a read that
 * observes an older stamp than the last write ordered before it has seen
 * stale data. MainMemory holds the stamp each word last received through
 * the memory system (write-through stores or write-backs).
 */

#ifndef HSCD_MEM_MEMORY_HH
#define HSCD_MEM_MEMORY_HH

#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace hscd {
namespace mem {

/** A write's identity; 0 means "never written". */
using ValueStamp = std::uint64_t;

class MainMemory
{
  public:
    explicit MainMemory(Addr bytes)
        : _words(bytes / 4 + 1, 0)
    {}

    // Hot loop: every simulated reference lands here at least once, so
    // release builds use unchecked indexing (the lowered program proves
    // each subscript in range or checks it with ArrayDecl::elementAddr).
    ValueStamp
    read(Addr addr) const
    {
        hscd_dassert(addr / 4 < _words.size(),
                     "memory read at %d beyond %d words", addr,
                     _words.size());
        return _words[addr / 4];
    }

    void
    write(Addr addr, ValueStamp stamp)
    {
        hscd_dassert(addr / 4 < _words.size(),
                     "memory write at %d beyond %d words", addr,
                     _words.size());
        _words[addr / 4] = stamp;
    }

    std::size_t words() const { return _words.size(); }

  private:
    std::vector<ValueStamp> _words;
};

} // namespace mem
} // namespace hscd

#endif // HSCD_MEM_MEMORY_HH
