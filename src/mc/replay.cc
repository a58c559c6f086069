#include "mc/replay.hh"

#include "common/log.hh"
#include "mem/memory.hh"
#include "sim/machine.hh"

namespace hscd {
namespace mc {

using compiler::MarkKind;
using mem::ValueStamp;

MachineConfig
machineConfigFor(const McConfig &cfg)
{
    MachineConfig mcfg;
    mcfg.procs = cfg.procs;
    mcfg.scheme = SchemeKind::TPI;
    mcfg.lineBytes = cfg.lineWords * 4;
    mcfg.timetagBits = cfg.timetagBits;
    mcfg.tpiPromoteOnHit = cfg.promote;
    mcfg.tpiUseDistance = true;
    mcfg.faultMaxRetries = cfg.maxRetries;
    // Faults come exclusively from the script: the probabilistic plan
    // stays at rate 0 so nothing else fires.
    return mcfg;
}

EmittedRun
emitRun(const McConfig &cfg, const std::vector<Action> &path)
{
    EmittedRun run;
    State s = initialState(cfg);

    ValueStamp nextStamp = 1;
    ValueStamp memStamp[kMaxWords] = {};
    ValueStamp copyStamp[kMaxProcs][kMaxWords] = {};

    // Injection-opportunity counters, mirroring the implementation:
    // one net.deliver() per reliableSend attempt, one mem.tag firing
    // per read that found its line resident, one mem.epoch firing per
    // barrier. All 1-based (FaultInjector counts ++_fires).
    std::uint64_t delivers = 0;
    std::uint64_t tagReads = 0;
    std::uint64_t barriers = 0;
    std::uint64_t accesses = 0;

    auto refillStamps = [&](unsigned p, unsigned w) {
        const unsigned line = w / cfg.lineWords;
        for (unsigned j = 0; j < cfg.lineWords; ++j) {
            const unsigned v = line * cfg.lineWords + j;
            copyStamp[p][v] = memStamp[v];
        }
    };

    auto scriptDrops = [&](const Action &a) {
        if (a.fault == Action::Fault::DropRecover) {
            // First attempt dropped, retransmission delivered.
            run.script.push_back(
                {fault::Site::NetDrop, ++delivers, 0});
            ++delivers;
        } else if (a.fault == Action::Fault::DropAbort) {
            // Every attempt dropped until the retry budget runs out.
            for (unsigned k = 0; k <= cfg.maxRetries; ++k)
                run.script.push_back(
                    {fault::Site::NetDrop, ++delivers, 0});
            run.expectAbort = true;
        } else {
            ++delivers; // clean delivery still advances the counter
        }
    };

    for (const Action &a : path) {
        hscd_assert(!s.aborted, "mc: action path continues past abort");
        Outcome out;

        switch (a.kind) {
          case Action::Kind::Finish:
            apply(cfg, s, a, out);
            continue;

          case Action::Kind::Barrier: {
            sim::TraceRecord r;
            r.type = sim::TraceRecord::Type::Boundary;
            r.epoch = EpochId(s.epoch) + 1;
            run.records.push_back(r);
            ++barriers;
            if (a.fault == Action::Fault::EpochFlip)
                run.script.push_back({fault::Site::MemEpochFlip,
                                      barriers, a.flushProc});
            apply(cfg, s, a, out);
            continue;
          }

          case Action::Kind::Write: {
            const unsigned p = a.proc, w = a.word;
            const bool wasPresent = s.present[p][w / cfg.lineWords];
            apply(cfg, s, a, out);

            sim::TraceRecord r;
            r.op.proc = p;
            r.op.addr = Addr(w) * 4;
            r.op.arrayId = 0;
            r.op.write = true;
            r.op.critical = a.critical;
            r.op.stamp = nextStamp;
            run.records.push_back(r);
            ++accesses;

            if (!wasPresent)
                refillStamps(p, w); // write-miss fill precedes the write
            memStamp[w] = nextStamp;
            copyStamp[p][w] = nextStamp;
            ++nextStamp;
            scriptDrops(a);
            if (run.expectAbort)
                return run;
            continue;
          }

          case Action::Kind::Read: {
            const unsigned p = a.proc, w = a.word;
            apply(cfg, s, a, out);

            if (out.lineWasPresent) {
                ++tagReads;
                if (a.fault == Action::Fault::TagFlip)
                    run.script.push_back(
                        {fault::Site::MemTagFlip, tagReads,
                         std::uint64_t(a.faultWord) |
                             (std::uint64_t(a.faultBit) << 32)});
            }

            sim::TraceRecord r;
            r.op.proc = p;
            r.op.addr = Addr(w) * 4;
            r.op.arrayId = 0;
            r.op.mark = a.mark;
            r.op.distance = a.distance;
            run.records.push_back(r);

            EmittedRun::Expect e;
            e.access = accesses++;
            e.hit = out.hit;
            e.cls = out.cls;
            if (out.hit) {
                e.observed = copyStamp[p][w];
            } else if (a.mark == MarkKind::Bypass) {
                e.observed = memStamp[w];
                if (out.lineWasPresent)
                    copyStamp[p][w] = memStamp[w];
            } else {
                refillStamps(p, w);
                e.observed = memStamp[w];
            }

            if (out.sends) {
                scriptDrops(a);
                if (run.expectAbort)
                    return run; // the aborting access emits no outcome
            }
            run.expects.push_back(e);
            continue;
          }
        }
    }
    return run;
}

namespace {

/** Diffs the real scheme's outcome stream against the model's. */
class ComparingSink : public sim::TraceSink
{
  public:
    explicit ComparingSink(const EmittedRun &run) : _run(run) {}

    void onAccess(const mem::MemOp &) override {}
    void onBoundary(EpochId) override {}

    void
    onOutcome(const mem::MemOp &op, const mem::AccessResult &res,
              EpochId epoch) override
    {
        const std::size_t ordinal = _ordinal++;
        if (_next >= _run.expects.size())
            return;
        const EmittedRun::Expect &e = _run.expects[_next];
        if (e.access != ordinal)
            return; // a write: no expectation recorded
        ++_next;
        ++compared;
        if (!ok)
            return;
        if (res.hit != e.hit || res.cls != e.cls ||
            res.observed != e.observed)
        {
            ok = false;
            detail = csprintf(
                "access %d (proc %d addr %d epoch %d): model expected "
                "%s/%s/stamp %d, implementation returned %s/%s/stamp %d",
                ordinal, op.proc, op.addr, epoch,
                e.hit ? "hit" : "miss", mem::missClassName(e.cls),
                e.observed, res.hit ? "hit" : "miss",
                mem::missClassName(res.cls), res.observed);
        }
    }

    bool ok = true;
    std::uint64_t compared = 0;
    std::string detail;

  private:
    const EmittedRun &_run;
    std::size_t _ordinal = 0;
    std::size_t _next = 0;
};

} // namespace

CheckReport
crossCheck(const McConfig &cfg, const std::vector<Action> &path)
{
    EmittedRun run = emitRun(cfg, path);
    ComparingSink sink(run);
    sim::Machine m(run.records, Addr(cfg.words) * 4, machineConfigFor(cfg));
    m.setTraceSink(&sink);
    m.scriptFaults(run.script);
    const sim::RunResult res = m.run();

    CheckReport report;
    report.ok = sink.ok;
    report.compared = sink.compared;
    report.detail = sink.detail;
    if (report.ok && res.aborted() != run.expectAbort) {
        report.ok = false;
        report.detail = csprintf(
            "model %s a protocol abort but the implementation %s",
            run.expectAbort ? "expected" : "did not expect",
            res.aborted() ? csprintf("aborted (%s)", res.abort.reason)
                          : std::string("completed"));
    }
    if (report.ok && run.expectAbort &&
        res.abort.kind != fault::AbortKind::Protocol)
    {
        report.ok = false;
        report.detail = csprintf("expected a Protocol abort, got kind %d",
                                 int(res.abort.kind));
    }
    if (report.ok && sink.compared != run.expects.size()) {
        report.ok = false;
        report.detail = csprintf("compared %d of %d expected outcomes",
                                 sink.compared, run.expects.size());
    }
    return report;
}

} // namespace mc
} // namespace hscd
