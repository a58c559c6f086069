#include "sim/trace.hh"

#include <algorithm>
#include <istream>
#include <ostream>
#include <sstream>
#include <string>

#include <memory>

#include "common/log.hh"
#include "fault/abort.hh"
#include "hir/program.hh"
#include "mem/memory.hh"
#include "network/kruskal_snir.hh"

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

MarkKind
parseMark(char c)
{
    switch (c) {
      case 'n':
        return MarkKind::Normal;
      case 't':
        return MarkKind::TimeRead;
      case 'b':
        return MarkKind::Bypass;
      default:
        fatal("trace: bad mark '%c'", c);
    }
}

} // namespace

void
writeTrace(std::ostream &os, const std::vector<TraceRecord> &records,
           unsigned procs, Addr data_bytes)
{
    os << "H hscd-trace 1 " << procs << " " << data_bytes << "\n";
    for (const TraceRecord &r : records) {
        if (r.type == TraceRecord::Type::Boundary) {
            os << "B " << r.epoch << "\n";
            continue;
        }
        const mem::MemOp &op = r.op;
        os << "A " << op.proc << " " << op.addr << " " << op.arrayId
           << " " << (op.write ? 'W' : 'R') << " " << markChar(op.mark)
           << " " << op.distance << " " << op.stamp << " "
           << (op.critical ? 1 : 0) << "\n";
    }
}

ParsedTrace
readTrace(std::istream &is)
{
    ParsedTrace out;
    std::string line;
    if (!std::getline(is, line))
        fatal("trace: empty input");
    {
        std::istringstream hs(line);
        std::string tag, magic;
        int version = 0;
        hs >> tag >> magic >> version >> out.procs >> out.dataBytes;
        if (tag != "H" || magic != "hscd-trace" || version != 1)
            fatal("trace: bad header '%s'", line);
        if (out.procs == 0 || out.procs > kMaxProcs)
            fatal("trace line 1: header declares %d processors (1 to %d)",
                  out.procs, kMaxProcs);
        if (out.dataBytes > kMaxAddr)
            fatal("trace line 1: header declares %d data bytes (max %d)",
                  out.dataBytes, kMaxAddr);
    }
    const Addr words = out.dataBytes / hir::wordBytes;
    EpochId epoch = 0;
    std::size_t lineno = 1;
    while (std::getline(is, line)) {
        ++lineno;
        if (line.empty())
            continue;
        std::istringstream ls(line);
        std::string tag;
        ls >> tag;
        TraceRecord r;
        if (tag == "B") {
            r.type = TraceRecord::Type::Boundary;
            ls >> r.epoch;
        } else if (tag == "A") {
            r.type = TraceRecord::Type::Access;
            char rw = 0, mark = 0;
            int crit = 0;
            ls >> r.op.proc >> r.op.addr >> r.op.arrayId >> rw >> mark >>
                r.op.distance >> r.op.stamp >> crit;
            r.op.write = rw == 'W';
            r.op.mark = parseMark(mark);
            r.op.critical = crit != 0;
        } else {
            fatal("trace line %d: unknown tag '%s'", lineno, tag);
        }
        if (!ls)
            fatal("trace line %d: malformed record", lineno);
        // Replay indexes per-processor clocks, per-word state and VC's
        // per-array table by these fields, so each must fit the
        // header's machine. TPI's two-phase reset fires at multiples of
        // its phase, so no boundary may skip an epoch.
        if (r.type == TraceRecord::Type::Boundary) {
            if (r.epoch != epoch + 1)
                fatal("trace line %d: boundary to epoch %d after epoch %d "
                      "(epochs count up by one)", lineno, r.epoch, epoch);
            epoch = r.epoch;
        } else {
            const mem::MemOp &op = r.op;
            if (op.proc >= out.procs)
                fatal("trace line %d: processor %d outside the header's "
                      "%d processors", lineno, op.proc, out.procs);
            if (op.addr % hir::wordBytes != 0)
                fatal("trace line %d: address %d is not word-aligned",
                      lineno, op.addr);
            if (op.addr >= out.dataBytes ||
                out.dataBytes - op.addr < hir::wordBytes)
                fatal("trace line %d: address %d past the header's %d "
                      "data bytes", lineno, op.addr, out.dataBytes);
            if (op.arrayId >= words)
                fatal("trace line %d: array id %d at or above the "
                      "header's %d words", lineno, op.arrayId, words);
        }
        out.records.push_back(r);
    }
    return out;
}

RunResult
replayTrace(const std::vector<TraceRecord> &records,
            const MachineConfig &cfg, Addr data_bytes, TraceSink *sink,
            const std::vector<fault::ScriptedFault> *script)
{
    mem::MainMemory memory(data_bytes);
    net::Network network(cfg.procs, cfg.networkRadix, cfg.maxNetworkLoad,
                         cfg.topology);
    auto scheme = mem::makeScheme(cfg, memory, network);
    scheme->setTraceSink(sink);

    std::unique_ptr<fault::FaultInjector> injector;
    if (cfg.fault.enabled() || (script && !script->empty())) {
        injector = std::make_unique<fault::FaultInjector>(cfg.fault);
        if (script)
            injector->script(*script);
        network.setFaultInjector(injector.get());
        scheme->setFaultInjector(injector.get());
    }

    RunResult out;
    std::vector<Cycles> clock(cfg.procs, 0);
    EpochId epoch = 0;
    try {
        for (const TraceRecord &r : records) {
            if (r.type == TraceRecord::Type::Boundary) {
                Cycles t = 0;
                for (ProcId p = 0; p < cfg.procs; ++p) {
                    t = std::max(t, clock[p]);
                    t = std::max(t, scheme->writeDrainTime(p));
                }
                t += cfg.barrierCycles;
                if (sink)
                    sink->onBoundary(r.epoch);
                t += scheme->epochBoundary(r.epoch);
                epoch = r.epoch;
                std::fill(clock.begin(), clock.end(), t);
                network.endWindow(t);
                ++out.epochs;
                continue;
            }
            mem::MemOp op = r.op;
            hscd_assert(op.proc < cfg.procs,
                        "trace targets processor %d beyond the machine",
                        op.proc);
            op.now = clock[op.proc];
            if (sink)
                sink->onAccess(op);
            mem::AccessResult res = scheme->access(op);
            if (sink)
                sink->onOutcome(op, res, epoch);
            clock[op.proc] += res.stall;
        }
    } catch (const fault::RunAbort &abort) {
        out.abort = abort.info;
    }

    harvest(out, *scheme, network, injector.get());
    for (Cycles c : clock)
        out.cycles = std::max(out.cycles, c);
    return out;
}

} // namespace sim
} // namespace hscd
