#include "verify/precision.hh"

#include <algorithm>

#include "common/log.hh"
#include "compiler/summary.hh"
#include "verify/dataflow.hh"

namespace hscd {
namespace verify {

using compiler::EpochGraph;
using compiler::EpochNode;
using compiler::Mark;
using compiler::MarkKind;
using compiler::RefOccur;
using compiler::markSeverity;
using compiler::unreachableDist;

namespace {

MarkKind
kindOf(ReqKind k)
{
    switch (k) {
      case ReqKind::None:
        return MarkKind::Normal;
      case ReqKind::TimeRead:
        return MarkKind::TimeRead;
      case ReqKind::Bypass:
        return MarkKind::Bypass;
    }
    return MarkKind::Bypass;
}

/**
 * MARK001: compiler marks strictly more severe than the oracle's
 * word-exact requirement. The replacement is the requirement itself.
 */
void
findOverConservative(const compiler::CompiledProgram &cp,
                     const OracleReport &oracle, PrecisionReport &out)
{
    const hir::Program &prog = cp.program;
    for (hir::RefId id = 0; id < prog.refCount(); ++id) {
        if (id >= oracle.required.size())
            break;
        const OracleRequirement &req = oracle.required[id];
        if (!req.exact)
            continue;
        const Mark &m = cp.marking.mark(id);
        if (m.reason == compiler::MarkReason::WriteRef)
            continue;
        const MarkKind want = kindOf(req.kind);
        if (markSeverity(m.kind, m.distance) <=
            markSeverity(want, req.distance))
            continue;
        // A requirement strictly below the compiler's mark can never be
        // Bypass (Bypass is the severity maximum).
        hscd_assert(want != MarkKind::Bypass,
                    "over-conservative vs a Bypass requirement");
        Tighten t;
        t.ref = id;
        t.from = m;
        t.toKind = want;
        t.toDistance = want == MarkKind::TimeRead ? req.distance : 0;
        out.overConservative.push_back(t);
    }
}

/**
 * MARK003: per-array min-distance solve. gens = node may-writes the
 * array, so the fixpoint under-approximates the true distance; a lower
 * bound above the window proves the clamp engaged.
 */
void
findSaturated(const compiler::CompiledProgram &cp,
              const LintOptions &opts, PrecisionReport &out)
{
    const hir::Program &prog = cp.program;
    const EpochGraph &g = cp.graph;
    if (opts.timetagBits >= 32)
        return;  // nothing saturates an effectively unbounded window
    const std::uint32_t window =
        (std::uint32_t{1} << opts.timetagBits) - 1;

    const std::size_t arrays = prog.arrays().size();
    // Interprocedural pre-filter: skip arrays no procedure may write —
    // the summaries are may-MOD, so "no" is a proof and the per-array
    // dataflow solve below cannot generate anything.
    std::vector<bool> written(arrays, false);
    for (hir::ArrayId a = 0; a < arrays; ++a)
        written[a] = compiler::summariesMayWrite(cp.summaries, prog, a);

    FlowGraph fg(g);
    std::vector<std::uint32_t> lower(prog.refCount(), unreachableDist);
    for (hir::ArrayId a = 0; a < arrays; ++a) {
        if (!written[a])
            continue;
        std::vector<bool> gens(g.nodes().size(), false);
        bool reads_a = false;
        for (const EpochNode &n : g.nodes()) {
            for (const RefOccur &occ : n.refs) {
                if (occ.stmt->array != a)
                    continue;
                if (occ.stmt->isWrite)
                    gens[n.id] = true;
                else
                    reads_a = true;
            }
        }
        if (!reads_a)
            continue;
        MinDistanceDomain dom(gens);
        auto res = solveDataflow(fg, FlowDir::Forward, dom);
        for (const EpochNode &n : g.nodes()) {
            // A same-node write may land in the same dynamic epoch, so
            // the per-occurrence bound is 0 there, else the entry value.
            const std::uint32_t at = gens[n.id] ? 0 : res.in[n.id];
            for (const RefOccur &occ : n.refs)
                if (!occ.stmt->isWrite && occ.stmt->array == a)
                    lower[occ.ref] = std::min(lower[occ.ref], at);
        }
    }

    for (hir::RefId id = 0; id < prog.refCount(); ++id) {
        const Mark &m = cp.marking.mark(id);
        if (m.kind != MarkKind::TimeRead || lower[id] <= window)
            continue;
        Saturation s;
        s.ref = id;
        s.markedDistance = m.distance;
        s.provenLower = lower[id];
        s.window = window;
        out.saturated.push_back(s);
    }
}

} // namespace

PrecisionReport
precisionAnalyze(const compiler::CompiledProgram &cp,
                 const LintOptions &opts, const OracleReport &oracle)
{
    PrecisionReport rep;
    findOverConservative(cp, oracle, rep);
    findSaturated(cp, opts, rep);
    return rep;
}

void
tightenMarking(compiler::CompiledProgram &cp, const PrecisionReport &rep)
{
    for (const Tighten &t : rep.overConservative) {
        Mark m = t.from;
        m.kind = t.toKind;
        m.distance = t.toKind == MarkKind::TimeRead ? t.toDistance : 0;
        cp.marking.overrideMark(t.ref, m);
    }
    cp.marking.recomputeStats(cp.program);
}

} // namespace verify
} // namespace hscd
