/**
 * @file
 * Memory-event trace capture and serialization.
 *
 * The execution-driven engine can emit every scheme-visible event (one
 * record per reference plus epoch boundaries) to a trace; a trace runs
 * under any coherence scheme on a sim::Machine built from its records,
 * without re-interpreting the program - the classic trace-driven
 * workflow of the era ([32] pairs both modes), on the same engine,
 * oracle and observers as a program run.
 *
 * writeTrace() serializes a capture in the one trace grammar, which
 * workloads::parseTraceText() reads back (workloads/trace.hh): a
 * `procs <P>` line, then one line per record, an `epoch <E>` line for
 * each boundary and, for each access, every column:
 *
 *     <proc> <addr> <r|w> <epoch> <mark> <distance> <array> <crit>
 *
 * Write stamps are not serialized: a run numbers writes in record order.
 */

#ifndef HSCD_SIM_TRACE_HH
#define HSCD_SIM_TRACE_HH

#include <iosfwd>
#include <vector>

#include "mem/coherence.hh"

namespace hscd {
namespace sim {

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

/** Serialize @p records, captured on @p procs processors. */
void writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
                unsigned procs);

} // namespace sim
} // namespace hscd

#endif // HSCD_SIM_TRACE_HH
