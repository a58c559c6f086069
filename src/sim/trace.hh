/**
 * @file
 * Memory-event trace capture and serialization.
 *
 * The execution-driven engine can emit every scheme-visible event (one
 * record per reference plus epoch boundaries) to a trace; a trace runs
 * under any coherence scheme on a sim::Machine built from its records,
 * without re-interpreting the program - the classic trace-driven
 * workflow of the era ([32] pairs both modes), on the same engine,
 * oracle and observers as a program run. The text format is stable and
 * diff-friendly:
 *
 *     H hscd-trace 1 <procs> <dataBytes>
 *     A <proc> <addr> <arrayId> <R|W> <mark> <dist> <stamp> <crit>
 *     B <epoch>
 */

#ifndef HSCD_SIM_TRACE_HH
#define HSCD_SIM_TRACE_HH

#include <iosfwd>
#include <vector>

#include "mem/coherence.hh"

namespace hscd {
namespace sim {

/**
 * Limits shared by both trace parsers (readTrace and the external
 * frontend in workloads/trace.hh): a trace asking for more is almost
 * certainly corrupt, and refusing beats allocating gigabytes.
 */
constexpr unsigned kMaxProcs = 1024;
constexpr Addr kMaxAddr = Addr{1} << 26;       // 64 MiB footprint
constexpr EpochId kMaxEpoch = EpochId{1} << 20;

struct TraceRecord
{
    enum class Type : std::uint8_t { Access, Boundary };

    Type type = Type::Access;
    mem::MemOp op{};       ///< valid for Access (a run sets now and
                           ///< renumbers write stamps)
    EpochId epoch = 0;     ///< valid for Boundary
};

/** The sink interface lives with the schemes, which report to it too. */
using mem::TraceSink;

/** Collects records in memory. */
class TraceBuffer : public TraceSink
{
  public:
    void onAccess(const mem::MemOp &op) override;
    void onBoundary(EpochId epoch) override;

    const std::vector<TraceRecord> &records() const { return _records; }
    std::vector<TraceRecord> take() { return std::move(_records); }

  private:
    std::vector<TraceRecord> _records;
};

/** Serialize records (with a header carrying machine facts). */
void writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
                unsigned procs, Addr data_bytes);

/**
 * Parse a trace; fatal() on malformed input, naming the line. The
 * header's processor count and data size must stay within kMaxProcs and
 * kMaxAddr. An access must name a processor below the header's count, a
 * word-aligned address inside its data size and an array id below its
 * word count; each boundary must name the epoch after the previous one
 * (the first is epoch 1). So every parsed trace can run on the machine
 * its header describes.
 */
struct ParsedTrace
{
    std::vector<TraceRecord> records;
    unsigned procs = 0;
    Addr dataBytes = 0;
};
ParsedTrace readTrace(std::istream &is);

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_TRACE_HH
