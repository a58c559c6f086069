#include "sim/trace.hh"

#include <ostream>

namespace hscd {
namespace sim {

using compiler::MarkKind;

void
TraceBuffer::onAccess(const mem::MemOp &op)
{
    TraceRecord r;
    r.type = TraceRecord::Type::Access;
    r.op = op;
    _records.push_back(r);
}

void
TraceBuffer::onBoundary(EpochId epoch)
{
    TraceRecord r;
    r.type = TraceRecord::Type::Boundary;
    r.epoch = epoch;
    _records.push_back(r);
}

namespace {

char
markChar(MarkKind k)
{
    switch (k) {
      case MarkKind::Normal:
        return 'n';
      case MarkKind::TimeRead:
        return 't';
      case MarkKind::Bypass:
        return 'b';
    }
    return '?';
}

} // namespace

void
writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
           unsigned procs)
{
    os << "procs " << procs << "\n";
    EpochId epoch = 0;
    for (const TraceRecord &r : records) {
        if (r.type == TraceRecord::Type::Boundary) {
            epoch = r.epoch;
            os << "epoch " << epoch << "\n";
            continue;
        }
        const mem::MemOp &op = r.op;
        os << op.proc << " " << op.addr << " " << (op.write ? 'w' : 'r')
           << " " << epoch << " " << markChar(op.mark) << " "
           << op.distance << " " << op.arrayId << " "
           << (op.critical ? 1 : 0) << "\n";
    }
}

} // namespace sim
} // namespace hscd
