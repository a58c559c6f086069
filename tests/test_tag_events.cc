/**
 * @file
 * TPI's TagEvents are a complete account of its timetag state: the last
 * event for each (processor, word) alone predicts every read verdict the
 * scheme returns, in executed runs, under faults, and on trace replay.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>

#include "common/strutil.hh"
#include "compiler/analysis.hh"
#include "sim/machine.hh"
#include "sim/trace.hh"
#include "workloads/workloads.hh"

using namespace hscd;
using compiler::MarkKind;

namespace {

/**
 * Keeps the last TagEvent per (processor, word) and checks each read's
 * verdict against the state those events describe at the Time-Read
 * compare: after a FaultFlip, before any fill or promote.
 */
class Predictor : public sim::TraceSink
{
  public:
    explicit Predictor(const MachineConfig &cfg)
        : _maxDistance(2 * (EpochId{1} << (cfg.timetagBits - 1)) - 1)
    {
    }

    void
    onAccess(const mem::MemOp &op) override
    {
        _op = op;
        _open = true;
    }

    void onBoundary(EpochId epoch) override { _epoch = epoch; }

    void
    onTag(const mem::TagEvent &ev) override
    {
        ++events;
        causes.insert(ev.cause);
        if (ev.cause == mem::TagCause::FaultFlip) {
            if (!_open || _op.write)
                note("a FaultFlip outside a read");
        } else {
            settle();
        }
        if (ev.epoch != _epoch)
            note(csprintf("event epoch %d in epoch %d", ev.epoch, _epoch));
        _last[key(ev.proc, ev.word)] = ev;
    }

    void
    onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
              EpochId epoch) override
    {
        settle();
        if (epoch != _epoch)
            note(csprintf("outcome epoch %d in epoch %d", epoch, _epoch));
        if (op.write)
            return;
        ++reads;
        if (res.hit != _predicted)
            note(csprintf("proc %d addr %d mark %d d=%d in epoch %d: events "
                          "predict %s, the scheme says %s",
                          op.proc, op.addr, int(op.mark), op.distance,
                          epoch, _predicted ? "hit" : "miss",
                          res.hit ? "hit" : "miss"));
    }

    std::uint64_t events = 0, reads = 0, mismatches = 0;
    std::set<mem::TagCause> causes;
    std::string first;

  private:
    static std::uint64_t
    key(ProcId p, Addr word)
    {
        return (std::uint64_t(p) << 32) | word;
    }

    /** Fix the open access's prediction from the events so far. */
    void
    settle()
    {
        if (!_open)
            return;
        _open = false;
        _predicted = false;
        if (_op.write || _op.mark == MarkKind::Bypass)
            return;
        auto it = _last.find(key(_op.proc, _op.addr & ~Addr(3)));
        if (it == _last.end() || !it->second.valid)
            return;
        const EpochId d = std::min<EpochId>(_op.distance, _maxDistance);
        // tt >= epoch - d, with the floor clamped at 0.
        _predicted = _op.mark == MarkKind::Normal ||
                     it->second.tt + d >= _epoch;
    }

    void
    note(const std::string &what)
    {
        if (mismatches++ == 0)
            first = what;
    }

    EpochId _maxDistance;
    EpochId _epoch = 0;
    mem::MemOp _op;
    bool _open = false;
    bool _predicted = false;
    std::unordered_map<std::uint64_t, mem::TagEvent> _last;
};

void
expectPredicted(const Predictor &p, const sim::RunResult &r,
                const std::string &what)
{
    EXPECT_EQ(p.reads, r.reads) << what;
    EXPECT_GT(p.events, 0u) << what;
    EXPECT_EQ(p.mismatches, 0u) << what << ": first: " << p.first;
}

} // namespace

TEST(TpiTagEvents, PredictEveryRead)
{
    struct Case
    {
        std::string name;
        int scale;
        MachineConfig cfg;
        std::string what;
    };
    MachineConfig tpi;
    tpi.scheme = SchemeKind::TPI;
    std::vector<Case> cases;
    for (const std::string &name : workloads::benchmarkNames())
        for (int scale : {1, 2})
            cases.push_back({name, scale, tpi, ""});
    MachineConfig faulty = tpi;
    faulty.fault = fault::FaultPlan::parse("1e-3:7:mem");
    cases.push_back({"ocean", 1, faulty, "fault 1e-3:7:mem"});
    cases.push_back({"qcd2", 1, faulty, "fault 1e-3:7:mem"});
    // Reach the rarer causes: 2-bit tags reset every other epoch, a
    // 1 KB cache evicts, and an epoch-counter fault at most boundaries
    // flushes a whole cache.
    MachineConfig narrow = tpi, small = tpi, resync = tpi;
    narrow.timetagBits = 2;
    small.cacheBytes = 1024;
    resync.fault = fault::FaultPlan::parse("0.5:3:mem.epoch");
    for (const char *name : {"spec77", "trfd"}) {
        cases.push_back({name, 1, narrow, "2-bit tags"});
        cases.push_back({name, 1, small, "1 KB cache"});
        cases.push_back({name, 1, resync, "fault 0.5:3:mem.epoch"});
    }

    std::set<mem::TagCause> seen;
    for (const Case &c : cases) {
        const std::string what =
            csprintf("%s scale %d %s", c.name, c.scale, c.what);
        const compiler::CompiledProgram cp = compiler::compileProgram(
            workloads::buildBenchmark(c.name, c.scale));
        sim::Machine m(cp, c.cfg);
        Predictor p(c.cfg);
        m.setTraceSink(&p);
        const sim::RunResult r = m.run();
        expectPredicted(p, r, what);
        EXPECT_EQ(r, sim::simulate(cp, c.cfg))
            << what << ": attaching the sink changed the run";
        if (c.cfg.fault.enabled() &&
            c.cfg.fault.siteEnabled(fault::Site::MemTagFlip))
            EXPECT_TRUE(p.causes.count(mem::TagCause::FaultFlip))
                << what << ": no tag fault fired";
        seen.insert(p.causes.begin(), p.causes.end());
    }
    for (mem::TagCause cause :
         {mem::TagCause::DemandFill, mem::TagCause::SideFill,
          mem::TagCause::Write, mem::TagCause::CriticalWrite,
          mem::TagCause::Promote, mem::TagCause::PhaseReset,
          mem::TagCause::Evicted, mem::TagCause::Flushed,
          mem::TagCause::FaultFlip})
        EXPECT_TRUE(seen.count(cause))
            << "no case emitted " << mem::tagCauseName(cause);
}

TEST(TpiTagEvents, PredictEveryReadOnReplay)
{
    const compiler::CompiledProgram cp =
        compiler::compileProgram(workloads::buildBenchmark("ocean", 1));
    MachineConfig cfg;
    cfg.scheme = SchemeKind::TPI;
    sim::Machine m(cp, cfg);
    sim::TraceBuffer buf;
    m.setTraceSink(&buf);
    m.run();

    Predictor p(cfg);
    const sim::RunResult r = sim::replayTrace(
        buf.records(), cfg, cp.program.dataBytes(), &p);
    expectPredicted(p, r, "ocean replay");
}
