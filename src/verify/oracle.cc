#include "verify/oracle.hh"

#include <algorithm>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/strutil.hh"
#include "verify/dataflow.hh"

namespace hscd {
namespace verify {

using compiler::MarkKind;
using hir::ArrayRefStmt;
using hir::CallStmt;
using hir::CriticalStmt;
using hir::IfUnknownStmt;
using hir::IntExpr;
using hir::LoopStmt;
using hir::Program;
using hir::Range;
using hir::Stmt;
using hir::StmtKind;
using hir::StmtList;

std::string
OracleRequirement::str() const
{
    switch (kind) {
      case ReqKind::None:
        return "normal-ok";
      case ReqKind::TimeRead:
        return csprintf("time-read(d<=%d)", distance);
      case ReqKind::Bypass:
        return "bypass";
    }
    return "?";
}

namespace {

/** Task label meaning "several (or unknowable) tasks touch this word". */
constexpr std::int64_t taskTop = std::numeric_limits<std::int64_t>::min();

constexpr std::uint32_t kUnreachable =
    std::numeric_limits<std::uint32_t>::max();

/**
 * The words a reference occurrence may touch over the full iteration
 * space of its enclosing loops, each labelled with the DOALL task that
 * touches it (taskTop when several tasks, or an unknowable one, do).
 */
struct Footprint
{
    bool whole = false;   ///< widened to the whole array
    bool approx = false;  ///< over-approximate (unknown subscripts)
    /**
     * Task labels are unknowable (LabelMode::Top): taskTop entries mean
     * "maybe several tasks", not "provably several". When false, every
     * taskTop label came from a concrete-label collision.
     */
    bool labelTop = false;
    /**
     * Top-mode refinement: the enclosing DOALL provably runs >= 2
     * tasks, so every word here is touched by at least tasks
     * multiTaskA and multiTaskB (used by the proven-only write-write
     * conflict scan even though per-word labels are taskTop).
     */
    bool multiTask = false;
    std::int64_t multiTaskA = 0;
    std::int64_t multiTaskB = 0;
    std::unordered_map<std::uint64_t, std::int64_t> words;

    /** First word where two concrete task labels collided. */
    struct Clash
    {
        std::uint64_t word = 0;
        std::int64_t a = 0;
        std::int64_t b = 0;
    };
    std::optional<Clash> clash;

    void
    addWord(std::uint64_t w, std::int64_t label)
    {
        auto [it, inserted] = words.try_emplace(w, label);
        if (!inserted && it->second != label) {
            if (it->second != taskTop && label != taskTop &&
                (!clash || w < clash->word))
            {
                clash = Clash{w, std::min(it->second, label),
                              std::max(it->second, label)};
            }
            it->second = taskTop;
        }
    }
};

/** May the two footprints (same array) share a word? */
bool
mayOverlap(const Footprint &a, const Footprint &b)
{
    if (a.whole || b.whole)
        return true;
    const Footprint &small = a.words.size() <= b.words.size() ? a : b;
    const Footprint &big = &small == &a ? b : a;
    for (const auto &[w, label] : small.words)
        if (big.words.count(w))
            return true;
    return false;
}

/** May two same-DOALL-node footprints collide across tasks on a word? */
bool
mayCollide(const Footprint &r, const Footprint &w)
{
    if (r.whole || w.whole)
        return true;
    const Footprint &small = r.words.size() <= w.words.size() ? r : w;
    const Footprint &big = &small == &r ? w : r;
    for (const auto &[word, la] : small.words) {
        auto it = big.words.find(word);
        if (it == big.words.end())
            continue;
        if (la == taskTop || it->second == taskTop || la != it->second)
            return true;
    }
    return false;
}

/** One enclosing loop of an occurrence, in source order. */
struct OLoop
{
    std::string var;
    IntExpr lo;
    IntExpr hi;
    std::int64_t step = 1;
    bool parallel = false;

    bool
    operator==(const OLoop &o) const
    {
        return var == o.var && lo == o.lo && hi == o.hi &&
               step == o.step && parallel == o.parallel;
    }
};

struct OOcc
{
    hir::RefId ref = hir::invalidRef;
    const ArrayRefStmt *stmt = nullptr;
    bool inCritical = false;
    /** Under a non-boundary IfUnknown: may not execute with its node. */
    bool conditional = false;
    bool covered = false;
    /** Enclosing loops at the occurrence, outermost first. */
    std::vector<OLoop> loops;
    Footprint fp;
};

struct ONode
{
    std::uint32_t id = 0;
    bool parallel = false;
    std::string parallelVar;
    bool hasSync = false;
    std::vector<OOcc> refs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> succs;
};

/**
 * Mirror of the compiler's intra-task coverage set: locations the
 * current task has definitely written, by structural subscript
 * equality, with loop-exit and branch-join filtering.
 */
class OCover
{
  public:
    void
    add(hir::ArrayId array, const std::vector<IntExpr> &subs)
    {
        for (const IntExpr &e : subs)
            if (e.hasUnknown())
                return;
        if (!covers(array, subs))
            _writes.emplace_back(array, subs);
    }

    bool
    covers(hir::ArrayId array, const std::vector<IntExpr> &subs) const
    {
        for (const auto &[a, s] : _writes)
            if (a == array && s == subs)
                return true;
        return false;
    }

    void clear() { _writes.clear(); }
    std::size_t size() const { return _writes.size(); }

    void
    filterLoopExit(std::size_t snapshot, const std::string &var,
                   bool at_least_one_trip)
    {
        std::size_t keep = snapshot;
        for (std::size_t i = snapshot; i < _writes.size(); ++i) {
            bool uses_var = false;
            for (const IntExpr &e : _writes[i].second)
                if (e.coeff(var) != 0)
                    uses_var = true;
            if (!uses_var && at_least_one_trip) {
                if (keep != i)
                    _writes[keep] = std::move(_writes[i]);
                ++keep;
            }
        }
        _writes.resize(keep);
    }

    void
    intersectWith(const OCover &o)
    {
        std::size_t keep = 0;
        for (std::size_t i = 0; i < _writes.size(); ++i) {
            if (o.covers(_writes[i].first, _writes[i].second)) {
                if (keep != i)
                    _writes[keep] = std::move(_writes[i]);
                ++keep;
            }
        }
        _writes.resize(keep);
    }

  private:
    std::vector<std::pair<hir::ArrayId, std::vector<IntExpr>>> _writes;
};

/**
 * Re-derives the epoch partitioning from the HIR (virtual inlining,
 * DOALLs bracketed by boundaries, boundary-spanning serial loops with
 * back edges and zero-trip bypasses) and attaches enumerated word
 * footprints to every reference occurrence.
 */
class OracleBuilder
{
  public:
    OracleBuilder(const Program &prog, std::uint64_t word_cap)
        : _prog(prog), _cap(word_cap), _env(prog.params())
    {
        _procBoundary.assign(prog.procedures().size(), -1);
        for (const auto &[name, value] : prog.params().vars())
            _ranges[name] = Range{value, value};
    }

    std::vector<ONode>
    run()
    {
        _cur = newNode(false);
        walk(_prog.main().body);
        applyPostFilters();
        return std::move(_nodes);
    }

  private:
    std::uint32_t
    newNode(bool parallel, const std::string &var = "")
    {
        ONode n;
        n.id = static_cast<std::uint32_t>(_nodes.size());
        n.parallel = parallel;
        n.parallelVar = var;
        _nodes.push_back(std::move(n));
        return _nodes.back().id;
    }

    void
    link(std::uint32_t from, std::uint32_t to, std::uint32_t w)
    {
        _nodes[from].succs.emplace_back(to, w);
    }

    bool
    procHasBoundary(hir::ProcIndex p)
    {
        if (_procBoundary[p] >= 0)
            return _procBoundary[p] != 0;
        _procBoundary[p] = 0;
        bool b = listHasBoundary(_prog.procedures()[p].body);
        _procBoundary[p] = b ? 1 : 0;
        return b;
    }

    bool
    listHasBoundary(const StmtList &body)
    {
        for (const auto &s : body) {
            switch (s->kind()) {
              case StmtKind::Loop: {
                const auto &l = static_cast<const LoopStmt &>(*s);
                if (l.parallel || listHasBoundary(l.body))
                    return true;
                break;
              }
              case StmtKind::Barrier:
                return true;
              case StmtKind::IfUnknown: {
                const auto &br = static_cast<const IfUnknownStmt &>(*s);
                if (listHasBoundary(br.thenBody) ||
                    listHasBoundary(br.elseBody))
                    return true;
                break;
              }
              case StmtKind::Call:
                if (procHasBoundary(
                        static_cast<const CallStmt &>(*s).callee))
                    return true;
                break;
              case StmtKind::Critical:
                if (listHasBoundary(
                        static_cast<const CriticalStmt &>(*s).body))
                    return true;
                break;
              default:
                break;
            }
        }
        return false;
    }

    std::optional<Range>
    rangeOf(const IntExpr &e) const
    {
        return e.range(_ranges);
    }

    bool
    atLeastOneTrip(const LoopStmt &l) const
    {
        auto lo = rangeOf(l.lo);
        auto hi = rangeOf(l.hi);
        return lo && hi && hi->lo >= lo->hi;
    }

    void
    pushLoopVar(const LoopStmt &l)
    {
        _loops.push_back(OLoop{l.var, l.lo, l.hi, l.step, l.parallel});
        auto it = _ranges.find(l.var);
        _rangeSaves.emplace_back(
            l.var, it == _ranges.end() ? std::nullopt
                                       : std::optional<Range>(it->second));
        auto lo = rangeOf(l.lo);
        auto hi = rangeOf(l.hi);
        if (lo && hi && lo->lo <= hi->hi)
            _ranges[l.var] = Range{lo->lo, hi->hi};
        else
            _ranges.erase(l.var);
    }

    void
    popLoopVar()
    {
        _loops.pop_back();
        auto [var, saved] = std::move(_rangeSaves.back());
        _rangeSaves.pop_back();
        if (saved)
            _ranges[var] = *saved;
        else
            _ranges.erase(var);
    }

    // ---- footprint enumeration -------------------------------------

    /** How this occurrence's words map to DOALL tasks. */
    enum class LabelMode
    {
        Enumerated,  ///< parallel index is one of the enumerated loops
        Fixed,       ///< every touch is by one known task
        Top,         ///< several / unknowable tasks
    };

    Footprint
    footprintFor(const ArrayRefStmt &ref)
    {
        Footprint fp;
        const hir::ArrayDecl &decl = _prog.array(ref.array);
        const std::string &par = _nodes[_cur].parallelVar;
        const bool parallel_node = _nodes[_cur].parallel;

        // Variables the subscripts depend on, transitively through the
        // bounds of enclosing loops. Parameters are concrete constants
        // and never enumerated.
        std::set<std::string> relevant;
        auto add_expr_vars = [&](const IntExpr &e, bool &ok) {
            for (const std::string &v : e.variables()) {
                if (_prog.params().lookup(v))
                    continue;
                bool is_loop = false;
                for (const OLoop &l : _loops)
                    if (l.var == v)
                        is_loop = true;
                if (!is_loop) {
                    ok = false; // unbound variable: HIR001 territory
                    return;
                }
                relevant.insert(v);
            }
        };
        bool ok = true;
        for (const IntExpr &s : ref.subs)
            add_expr_vars(s, ok);
        bool changed = true;
        while (ok && changed) {
            changed = false;
            for (const OLoop &l : _loops) {
                if (!relevant.count(l.var))
                    continue;
                std::size_t before = relevant.size();
                add_expr_vars(l.lo, ok);
                add_expr_vars(l.hi, ok);
                if (relevant.size() != before)
                    changed = true;
            }
        }
        if (!ok) {
            fp.whole = true;
            return fp;
        }

        // The loops to enumerate, outermost first. Bail out to
        // whole-array on shadowed names (enumeration would corrupt the
        // environment) or unanalyzable bounds.
        std::vector<const OLoop *> en;
        std::set<std::string> seen;
        for (const OLoop &l : _loops) {
            if (!relevant.count(l.var))
                continue;
            if (!seen.insert(l.var).second ||
                _prog.params().lookup(l.var) || l.lo.hasUnknown() ||
                l.hi.hasUnknown())
            {
                fp.whole = true;
                return fp;
            }
            en.push_back(&l);
        }

        // Task labelling for same-epoch cross-task analysis.
        LabelMode mode = LabelMode::Fixed;
        std::int64_t fixed_label = 0;
        if (parallel_node) {
            if (relevant.count(par)) {
                mode = LabelMode::Enumerated;
            } else {
                // The subscripts ignore the DOALL index: with more than
                // one task every task touches the same words.
                mode = LabelMode::Top;
                for (const OLoop &l : _loops) {
                    if (!l.parallel || l.var != par)
                        continue;
                    auto lo = rangeOf(l.lo);
                    auto hi = rangeOf(l.hi);
                    if (lo && hi && lo->lo == lo->hi &&
                        hi->lo == hi->hi && lo->lo + l.step > hi->hi)
                    {
                        mode = LabelMode::Fixed; // provably single trip
                        fixed_label = lo->lo;
                    } else if (lo && hi && lo->lo == lo->hi &&
                               hi->lo == hi->hi &&
                               lo->lo + l.step <= hi->hi)
                    {
                        // Provably >= 2 tasks, each touching every word.
                        fp.multiTask = true;
                        fp.multiTaskA = lo->lo;
                        fp.multiTaskB = lo->lo + l.step;
                    }
                    break;
                }
                fp.labelTop = mode == LabelMode::Top;
            }
        }

        std::uint64_t budget = _cap;
        const std::uint64_t base_word = decl.base / hir::wordBytes;

        // Per-dimension strides, column-major like ArrayDecl::elementAddr.
        std::vector<std::int64_t> stride(decl.dims.size());
        std::int64_t mult = 1;
        for (std::size_t d = 0; d < decl.dims.size(); ++d) {
            stride[d] = mult;
            mult *= decl.dims[d];
        }

        // Emit the element(s) for the current environment bindings;
        // dimensions with unknown subscripts expand to the whole extent.
        auto emit = [&]() -> bool {
            std::vector<std::int64_t> idx(ref.subs.size(), 0);
            std::vector<std::size_t> unknown_dims;
            for (std::size_t d = 0; d < ref.subs.size(); ++d) {
                const IntExpr &s = ref.subs[d];
                if (s.hasUnknown()) {
                    unknown_dims.push_back(d);
                    continue;
                }
                std::int64_t v = s.eval(_env);
                if (v < 0 ||
                    (d < decl.dims.size() && v >= decl.dims[d]))
                    return true; // out of bounds: touches nothing legal
                idx[d] = v;
            }
            if (!unknown_dims.empty())
                fp.approx = true;
            std::int64_t label = fixed_label;
            if (mode == LabelMode::Top)
                label = taskTop;
            else if (mode == LabelMode::Enumerated)
                label = *_env.lookup(par);

            // Cross product over the unknown dimensions.
            std::vector<std::int64_t> uv(unknown_dims.size(), 0);
            while (true) {
                for (std::size_t k = 0; k < unknown_dims.size(); ++k)
                    idx[unknown_dims[k]] = uv[k];
                std::int64_t linear = 0;
                for (std::size_t d = 0; d < idx.size(); ++d)
                    linear += idx[d] * stride[d];
                if (budget == 0)
                    return false;
                --budget;
                fp.addWord(base_word + std::uint64_t(linear), label);
                std::size_t k = 0;
                for (; k < unknown_dims.size(); ++k) {
                    if (++uv[k] < decl.dims[unknown_dims[k]])
                        break;
                    uv[k] = 0;
                }
                if (k == unknown_dims.size())
                    break;
                if (unknown_dims.empty())
                    break;
            }
            return true;
        };

        std::function<bool(std::size_t)> rec =
            [&](std::size_t i) -> bool {
            if (i == en.size())
                return emit();
            const OLoop &l = *en[i];
            const std::int64_t lo = l.lo.eval(_env);
            const std::int64_t hi = l.hi.eval(_env);
            for (std::int64_t v = lo; v <= hi; v += l.step) {
                _env.bind(l.var, v);
                bool cont = rec(i + 1);
                _env.unbind(l.var);
                if (!cont)
                    return false;
            }
            return true;
        };

        if (!rec(0)) {
            fp.whole = true;
            fp.words.clear();
        }
        return fp;
    }

    // ---- structural walk (mirrors the compiler's graph builder) ----

    void
    addRef(const ArrayRefStmt &ref)
    {
        OOcc occ;
        occ.ref = ref.id;
        occ.stmt = &ref;
        occ.inCritical = _criticalDepth > 0;
        occ.conditional = _condDepth > 0;
        occ.loops = _loops;
        occ.fp = footprintFor(ref);
        if (ref.isWrite) {
            if (_criticalDepth > 0) {
                _criticalCover.add(ref.array, ref.subs);
                Footprint &cw = _nodeCriticalWrites[_cur][ref.array];
                cw.whole |= occ.fp.whole;
                for (const auto &[w, label] : occ.fp.words)
                    cw.addWord(w, label);
            } else {
                _cover.add(ref.array, ref.subs);
            }
        } else {
            occ.covered = _criticalDepth > 0
                              ? _criticalCover.covers(ref.array, ref.subs)
                              : _cover.covers(ref.array, ref.subs);
        }
        _nodes[_cur].refs.push_back(std::move(occ));
    }

    void
    walk(const StmtList &body)
    {
        for (const auto &s : body)
            walkStmt(*s);
    }

    void
    walkStmt(const Stmt &s)
    {
        switch (s.kind()) {
          case StmtKind::ArrayRef:
            addRef(static_cast<const ArrayRefStmt &>(s));
            break;
          case StmtKind::Compute:
            break;
          case StmtKind::Loop:
            walkLoop(static_cast<const LoopStmt &>(s));
            break;
          case StmtKind::IfUnknown:
            walkIf(static_cast<const IfUnknownStmt &>(s));
            break;
          case StmtKind::Call:
            walk(_prog.procedures()
                     [static_cast<const CallStmt &>(s).callee].body);
            break;
          case StmtKind::Critical: {
            ++_criticalDepth;
            if (_criticalDepth == 1)
                _criticalCover.clear();
            walk(static_cast<const CriticalStmt &>(s).body);
            --_criticalDepth;
            if (_criticalDepth == 0)
                _criticalCover.clear();
            break;
          }
          case StmtKind::Barrier: {
            std::uint32_t next = newNode(false);
            link(_cur, next, 1);
            _cur = next;
            _cover.clear();
            break;
          }
          case StmtKind::Sync:
            _nodes[_cur].hasSync = true;
            break;
        }
    }

    void
    walkLoop(const LoopStmt &l)
    {
        if (l.parallel && !_inParallel) {
            std::uint32_t p = newNode(true, l.var);
            link(_cur, p, 1);
            _cur = p;
            pushLoopVar(l);
            _cover.clear();
            _inParallel = true;
            walk(l.body);
            _inParallel = false;
            _cover.clear();
            popLoopVar();
            std::uint32_t after = newNode(false);
            link(p, after, 1);
            _cur = after;
            return;
        }

        const bool boundary = !_inParallel && listHasBoundary(l.body);
        if (!boundary) {
            // A possibly-zero-trip loop makes its refs conditional for
            // the must-execute (domination) analysis. Entry bounds are
            // evaluated in the enclosing environment.
            const bool may_skip = !atLeastOneTrip(l);
            if (may_skip)
                ++_condDepth;
            pushLoopVar(l);
            std::size_t snapshot = _cover.size();
            walk(l.body);
            _cover.filterLoopExit(snapshot, l.var, atLeastOneTrip(l));
            popLoopVar();
            if (may_skip)
                --_condDepth;
            return;
        }

        std::uint32_t pre = _cur;
        std::uint32_t head = newNode(false);
        link(pre, head, 0);
        _cur = head;
        _cover.clear();
        pushLoopVar(l);
        walk(l.body);
        popLoopVar();
        std::uint32_t tail = _cur;
        link(tail, head, 0);
        std::uint32_t exit = newNode(false);
        link(tail, exit, 0);
        if (!atLeastOneTrip(l))
            link(pre, exit, 0);
        _cur = exit;
        _cover.clear();
    }

    void
    walkIf(const IfUnknownStmt &br)
    {
        const bool boundary =
            !_inParallel && (listHasBoundary(br.thenBody) ||
                             listHasBoundary(br.elseBody));
        if (!boundary) {
            OCover entry = _cover;
            ++_condDepth;
            walk(br.thenBody);
            OCover then_out = std::move(_cover);
            _cover = entry;
            walk(br.elseBody);
            --_condDepth;
            _cover.intersectWith(then_out);
            return;
        }

        std::uint32_t base = _cur;
        _cover.clear();

        std::uint32_t then_entry = newNode(false);
        link(base, then_entry, 0);
        _cur = then_entry;
        walk(br.thenBody);
        std::uint32_t then_out = _cur;

        std::uint32_t else_out = base;
        if (!br.elseBody.empty()) {
            std::uint32_t else_entry = newNode(false);
            link(base, else_entry, 0);
            _cur = else_entry;
            _cover.clear();
            walk(br.elseBody);
            else_out = _cur;
        }

        std::uint32_t join = newNode(false);
        link(then_out, join, 0);
        link(else_out, join, 0);
        _cur = join;
        _cover.clear();
    }

    void
    applyPostFilters()
    {
        // Lock-serialized writers may intervene between a covering write
        // and its read: kill coverage where a same-node critical write
        // overlaps.
        for (auto &[node, per_array] : _nodeCriticalWrites) {
            for (OOcc &occ : _nodes[node].refs) {
                if (occ.stmt->isWrite || !occ.covered || occ.inCritical)
                    continue;
                auto it = per_array.find(occ.stmt->array);
                if (it != per_array.end() &&
                    mayOverlap(occ.fp, it->second))
                    occ.covered = false;
            }
        }

        // Post/wait epochs: another task's ordered write may land
        // between the covering write and the read.
        for (ONode &node : _nodes) {
            if (!node.hasSync || !node.parallel)
                continue;
            for (OOcc &occ : node.refs) {
                if (occ.stmt->isWrite || !occ.covered)
                    continue;
                for (const OOcc &w : node.refs) {
                    if (!w.stmt->isWrite ||
                        w.stmt->array != occ.stmt->array)
                        continue;
                    if (mayCollide(occ.fp, w.fp)) {
                        occ.covered = false;
                        break;
                    }
                }
            }
        }
    }

    const Program &_prog;
    const std::uint64_t _cap;
    hir::Env _env; ///< parameters; loop vars bound during enumeration
    std::vector<ONode> _nodes;
    std::uint32_t _cur = 0;
    std::vector<OLoop> _loops;
    std::map<std::string, Range> _ranges;
    std::vector<std::pair<std::string, std::optional<Range>>> _rangeSaves;
    int _criticalDepth = 0;
    int _condDepth = 0;
    bool _inParallel = false;
    OCover _cover;
    OCover _criticalCover;
    std::vector<int> _procBoundary;
    std::map<std::uint32_t, std::map<hir::ArrayId, Footprint>>
        _nodeCriticalWrites;
};

/** All-pairs min boundary distance, 0-1 BFS (same as the epoch graph). */
std::vector<std::vector<std::uint32_t>>
allDistances(const std::vector<ONode> &nodes)
{
    const std::size_t n = nodes.size();
    std::vector<std::vector<std::uint32_t>> dist(
        n, std::vector<std::uint32_t>(n, kUnreachable));
    for (std::size_t src = 0; src < n; ++src) {
        auto &d = dist[src];
        std::deque<std::uint32_t> dq;
        d[src] = 0;
        dq.push_back(static_cast<std::uint32_t>(src));
        while (!dq.empty()) {
            std::uint32_t u = dq.front();
            dq.pop_front();
            for (const auto &[to, w] : nodes[u].succs) {
                std::uint32_t nd = d[u] + w;
                if (nd < d[to]) {
                    d[to] = nd;
                    if (w == 0)
                        dq.push_front(to);
                    else
                        dq.push_back(to);
                }
            }
        }
    }
    return dist;
}

std::uint32_t
cycleDistance(const std::vector<ONode> &nodes,
              const std::vector<std::vector<std::uint32_t>> &dist,
              std::uint32_t n)
{
    std::uint32_t best = kUnreachable;
    for (const auto &[to, w] : nodes[n].succs) {
        std::uint32_t back = dist[to][n];
        if (back != kUnreachable && w + back < best)
            best = w + back;
    }
    return best;
}

/** Severity scalar identical to the marking pass's join order. */
std::uint64_t
severityOf(MarkKind kind, std::uint32_t distance)
{
    switch (kind) {
      case MarkKind::Normal:
        return 0;
      case MarkKind::TimeRead:
        return std::uint64_t{1} +
               (std::uint64_t{1} << 32) / (std::uint64_t{distance} + 1);
      case MarkKind::Bypass:
        return ~std::uint64_t{0};
    }
    return 0;
}

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
    return MarkKind::Normal;
}

} // namespace

OracleReport
oracleAnalyze(const compiler::CompiledProgram &cp, const LintOptions &opts)
{
    const Program &prog = cp.program;
    OracleReport report;
    report.required.assign(prog.refCount(), OracleRequirement{});

    OracleBuilder builder(prog, opts.oracleWordCap);
    const std::vector<ONode> nodes = builder.run();
    const auto dist = allDistances(nodes);

    // Flat occurrence lists, with owning node.
    struct Flat
    {
        const OOcc *occ;
        const ONode *node;
    };
    std::vector<Flat> reads, writes;
    for (const ONode &n : nodes) {
        for (const OOcc &occ : n.refs) {
            if (occ.stmt->isWrite)
                writes.push_back({&occ, &n});
            else
                reads.push_back({&occ, &n});
        }
    }

    // Arrays with any widened or over-approximate write footprint
    // cannot prove over-marking.
    std::map<hir::ArrayId, bool> whole_write;
    for (const Flat &w : writes)
        whole_write[w.occ->stmt->array] |=
            w.occ->fp.whole || w.occ->fp.approx;

    // The requirement clamp is a property of the verified machine (the
    // widest encodable Time-Read operand), NOT the compiler's own
    // AnalysisOptions::maxDistance budget: a marking clamped by a
    // smaller compiler budget is over-conservative for this machine,
    // and MARK001/--tighten may provably relax it up to the window.
    const std::uint32_t max_encodable =
        opts.timetagBits >= 32
            ? ~std::uint32_t{0}
            : (std::uint32_t{1} << opts.timetagBits) - 1;
    const std::uint32_t clamp = max_encodable;

    std::vector<std::uint64_t> joined_sev(prog.refCount(), 0);
    std::vector<bool> assigned(prog.refCount(), false);
    std::vector<bool> exact(prog.refCount(), true);

    for (const Flat &r : reads) {
        OracleRequirement req;
        bool occ_exact = !r.occ->fp.whole && !r.occ->fp.approx &&
                         !whole_write[r.occ->stmt->array];
        if (r.occ->covered) {
            req.kind = ReqKind::None;
        } else if (r.occ->inCritical) {
            req.kind = ReqKind::Bypass;
        } else {
            std::uint32_t best = kUnreachable;
            hir::RefId best_threat = hir::invalidRef;
            bool any = false;
            bool critical_same = false;
            bool sync_same = false;
            for (const Flat &w : writes) {
                if (w.occ->stmt->array != r.occ->stmt->array)
                    continue;
                if (!mayOverlap(r.occ->fp, w.occ->fp))
                    continue;
                // Affinity is a property of the verified machine (the
                // lint option), not of how boldly the compiler marked.
                if (opts.serialAffinity && !w.node->parallel &&
                    !r.node->parallel)
                    continue;

                std::uint32_t d = kUnreachable;
                if (w.node == r.node) {
                    if (r.node->parallel &&
                        (w.occ->inCritical ||
                         mayCollide(r.occ->fp, w.occ->fp)))
                    {
                        d = 0;
                        if (w.occ->inCritical)
                            critical_same = true;
                        if (r.node->hasSync)
                            sync_same = true;
                    }
                    d = std::min(d,
                                 cycleDistance(nodes, dist, r.node->id));
                } else {
                    d = dist[w.node->id][r.node->id];
                }
                if (d == kUnreachable)
                    continue;
                any = true;
                if (d < best) {
                    best = d;
                    best_threat = w.occ->ref;
                }
            }
            if (!any) {
                req.kind = ReqKind::None;
            } else if ((critical_same || sync_same) && best == 0) {
                req.kind = ReqKind::Bypass;
                req.threat = best_threat;
                req.threatDistance = 0;
            } else {
                req.kind = ReqKind::TimeRead;
                req.distance = std::min(best, clamp);
                req.threat = best_threat;
                req.threatDistance = best;
            }
        }

        const hir::RefId id = r.occ->ref;
        if (!occ_exact)
            exact[id] = false;
        const std::uint64_t sev = severityOf(kindOf(req.kind),
                                             req.distance);
        if (!assigned[id] || sev > joined_sev[id]) {
            report.required[id] = req;
            report.required[id].exact = exact[id];
            joined_sev[id] = sev;
            assigned[id] = true;
        }
        report.required[id].exact = exact[id];
    }

    // Proven same-epoch cross-task write-write conflicts (GRAPH004).
    // Proven-only discipline: a conflict needs word-exact footprints
    // and either two distinct concrete task labels on one word or a
    // provably multi-trip DOALL whose writes ignore the task index.
    // Lock-serialized writes and post/wait-ordered epochs are excluded:
    // there the interleaving is synchronized, not racy.
    std::set<std::tuple<hir::RefId, hir::RefId, std::uint64_t>> seen_wc;
    auto add_conflict = [&](const OOcc &a, const OOcc &b,
                            std::uint64_t word, std::int64_t ta,
                            std::int64_t tb) {
        if (!seen_wc.insert({a.ref, b.ref, word}).second)
            return;
        WriteConflict wc;
        wc.a = a.ref;
        wc.b = b.ref;
        wc.array = a.stmt->array;
        wc.word = word;
        wc.taskA = std::min(ta, tb);
        wc.taskB = std::max(ta, tb);
        report.writeConflicts.push_back(wc);
    };
    for (const ONode &n : nodes) {
        if (!n.parallel || n.hasSync)
            continue;
        std::vector<const OOcc *> ws;
        for (const OOcc &occ : n.refs) {
            const Footprint &fp = occ.fp;
            if (!occ.stmt->isWrite || occ.inCritical || fp.whole ||
                fp.approx || (fp.labelTop && !fp.multiTask))
                continue;
            ws.push_back(&occ);
            if (fp.clash) {
                add_conflict(occ, occ, fp.clash->word, fp.clash->a,
                             fp.clash->b);
            } else if (fp.multiTask && !fp.words.empty()) {
                std::uint64_t w = ~std::uint64_t{0};
                for (const auto &[word, label] : fp.words)
                    w = std::min(w, word);
                add_conflict(occ, occ, w, fp.multiTaskA, fp.multiTaskB);
            }
        }
        for (std::size_t i = 0; i < ws.size(); ++i) {
            for (std::size_t j = i + 1; j < ws.size(); ++j) {
                const Footprint &fa = ws[i]->fp;
                const Footprint &fb = ws[j]->fp;
                if (ws[i]->stmt->array != ws[j]->stmt->array)
                    continue;
                const Footprint &small =
                    fa.words.size() <= fb.words.size() ? fa : fb;
                const Footprint &big = &small == &fa ? fb : fa;
                std::uint64_t best = ~std::uint64_t{0};
                std::int64_t ta = 0, tb = 0;
                for (const auto &[word, la] : small.words) {
                    auto it = big.words.find(word);
                    if (it == big.words.end() || word >= best)
                        continue;
                    const std::int64_t lb = it->second;
                    if (fa.multiTask || fb.multiTask) {
                        const Footprint &m = fa.multiTask ? fa : fb;
                        best = word;
                        ta = m.multiTaskA;
                        tb = m.multiTaskB;
                    } else if (la != taskTop && lb != taskTop &&
                               la != lb)
                    {
                        best = word;
                        ta = la;
                        tb = lb;
                    }
                }
                if (best != ~std::uint64_t{0})
                    add_conflict(*ws[i], *ws[j], best, ta, tb);
            }
        }
    }

    // Redundant-marking domination (MARK002 input): a Time-Read whose
    // every occurrence is provably preceded, within the same epoch
    // instance, by a same-task non-conditional Time-Read covering its
    // words at an equal-or-stricter distance. Cross-node precedence is
    // established by the must-availability dataflow (facts die at epoch
    // boundaries and at post/wait nodes); intra-node precedence by walk
    // order plus either lockstep identity (identical loop nests and
    // subscripts) or completed-subtree containment (no shared serial
    // loop, word containment per task).
    {
        auto mark_of = [&](hir::RefId id) -> const compiler::Mark & {
            return cp.marking.mark(id);
        };

        struct Cand
        {
            const OOcc *occ;
            const ONode *node;
            std::size_t idx;
        };
        std::vector<Cand> cands;
        std::vector<std::vector<std::uint32_t>> gens(nodes.size());
        std::vector<bool> kills(nodes.size(), false);
        std::vector<std::vector<compiler::EpochEdge>> adj(nodes.size());
        for (const ONode &n : nodes) {
            kills[n.id] = n.hasSync;
            for (const auto &[to, w] : n.succs)
                adj[n.id].push_back(compiler::EpochEdge{to, w});
            if (n.hasSync)
                continue;
            for (std::size_t i = 0; i < n.refs.size(); ++i) {
                const OOcc &occ = n.refs[i];
                if (occ.stmt->isWrite || occ.conditional ||
                    occ.inCritical || occ.fp.whole || occ.fp.approx ||
                    mark_of(occ.ref).kind != MarkKind::TimeRead)
                    continue;
                gens[n.id].push_back(
                    static_cast<std::uint32_t>(cands.size()));
                cands.push_back({&occ, &n, i});
            }
        }
        FlowGraph fg(std::move(adj));
        EpochFactsDomain dom(cands.size(), gens, kills);
        auto avail = solveDataflow(fg, FlowDir::Forward, dom);

        // Task-aware word containment: every word the target touches is
        // touched by the dominator from the same task (or from every
        // task, when the dominator's subscripts ignore the DOALL index).
        auto dominates_words = [](const Footprint &f1,
                                  const Footprint &f2) {
            for (const auto &[w, l2] : f2.words) {
                auto it = f1.words.find(w);
                if (it == f1.words.end())
                    return false;
                if (f1.labelTop)
                    continue;
                if (l2 == taskTop || it->second != l2)
                    return false;
            }
            return true;
        };

        // The shared loop prefix may contain only DOALL loops: any
        // shared serial loop interleaves the two subtrees, so "listed
        // earlier" would no longer mean "completed earlier".
        auto prefix_parallel_only = [](const std::vector<OLoop> &a,
                                       const std::vector<OLoop> &b) {
            for (std::size_t i = 0;
                 i < a.size() && i < b.size() && a[i] == b[i]; ++i)
                if (!a[i].parallel)
                    return false;
            return true;
        };

        std::vector<std::vector<std::pair<const ONode *, std::size_t>>>
            occs_of(prog.refCount());
        for (const ONode &n : nodes)
            for (std::size_t i = 0; i < n.refs.size(); ++i)
                if (!n.refs[i].stmt->isWrite)
                    occs_of[n.refs[i].ref].push_back({&n, i});

        for (hir::RefId id = 0; id < prog.refCount(); ++id) {
            if (occs_of[id].empty() ||
                mark_of(id).kind != MarkKind::TimeRead)
                continue;
            const std::uint32_t d2 = mark_of(id).distance;
            hir::RefId dominator = hir::invalidRef;
            bool all = true;
            for (const auto &[n, idx] : occs_of[id]) {
                const OOcc &occ = n->refs[idx];
                if (occ.inCritical || occ.fp.whole || occ.fp.approx ||
                    n->hasSync)
                {
                    all = false;
                    break;
                }
                hir::RefId found = hir::invalidRef;
                for (const Cand &c : cands) {
                    if (c.node != n || c.idx >= idx || c.occ->ref == id)
                        continue;
                    if (c.occ->stmt->array != occ.stmt->array ||
                        mark_of(c.occ->ref).distance > d2)
                        continue;
                    const bool lockstep =
                        c.occ->loops == occ.loops &&
                        c.occ->stmt->subs == occ.stmt->subs;
                    const bool completed =
                        prefix_parallel_only(c.occ->loops, occ.loops) &&
                        dominates_words(c.occ->fp, occ.fp);
                    if (lockstep || completed) {
                        found = c.occ->ref;
                        break;
                    }
                }
                if (found == hir::invalidRef &&
                    !avail.in[n->id].universal)
                {
                    for (std::size_t f = 0; f < cands.size(); ++f) {
                        if (!avail.in[n->id].bits[f])
                            continue;
                        const Cand &c = cands[f];
                        if (c.occ->ref == id ||
                            c.occ->stmt->array != occ.stmt->array ||
                            mark_of(c.occ->ref).distance > d2)
                            continue;
                        if (dominates_words(c.occ->fp, occ.fp)) {
                            found = c.occ->ref;
                            break;
                        }
                    }
                }
                if (found == hir::invalidRef) {
                    all = false;
                    break;
                }
                if (dominator == hir::invalidRef)
                    dominator = found;
            }
            if (all && dominator != hir::invalidRef)
                report.redundantMarks.push_back(
                    RedundantMark{id, dominator});
        }
    }

    // Compare against the real marking.
    for (hir::RefId id = 0; id < prog.refCount(); ++id) {
        if (prog.refInfo(id).stmt->isWrite)
            continue;
        const OracleRequirement &req = report.required[id];
        if (!req.exact)
            ++report.inexactReads;
        const compiler::Mark &m = cp.marking.mark(id);
        const std::uint64_t comp_sev = severityOf(m.kind, m.distance);
        const std::uint64_t req_sev =
            severityOf(kindOf(req.kind), req.distance);
        if (comp_sev < req_sev)
            report.underMarked.push_back(id);
        else if (comp_sev > req_sev && req.exact)
            report.overMarked.push_back(id);
    }
    return report;
}

namespace {

class OraclePass : public LintPass
{
  public:
    const char *name() const override { return "stale-marking-oracle"; }

    std::vector<std::string>
    ids() const override
    {
        return {"ORACLE001", "ORACLE002"};
    }

    void
    run(const compiler::CompiledProgram &cp, const LintOptions &opts,
        AnalysisCache &cache, DiagnosticEngine &diags) override
    {
        if (!opts.runOracle)
            return;
        const OracleReport &rep = cache.oracle(cp, opts);
        const hir::Program &prog = cp.program;

        for (hir::RefId id : rep.underMarked) {
            const OracleRequirement &req = rep.required[id];
            std::string threat = "unknown write";
            if (req.threat != hir::invalidRef)
                threat = csprintf(
                    "write ref %d %s, %d boundary(ies) away", req.threat,
                    SourceLoc::ofRef(prog, req.threat).where,
                    req.threatDistance);
            diags.report(
                "ORACLE001", Severity::Error,
                SourceLoc::ofRef(prog, id),
                csprintf("under-marked read: compiler mark '%s' but the "
                         "oracle requires '%s' (nearest conflicting %s)",
                         cp.marking.mark(id).str(), req.str(), threat));
        }

        if (!rep.overMarked.empty()) {
            const hir::RefId first = rep.overMarked.front();
            diags.report(
                "ORACLE002", Severity::Note, SourceLoc{},
                csprintf("%d read(s) marked more conservatively than the "
                         "word-exact oracle requires (precision loss, "
                         "not unsoundness); e.g. ref %d %s: compiler "
                         "'%s' vs required '%s'",
                         rep.overMarked.size(), first,
                         SourceLoc::ofRef(prog, first).where,
                         cp.marking.mark(first).str(),
                         rep.required[first].str()));
        }
    }
};

} // namespace

std::unique_ptr<LintPass>
makeOraclePass()
{
    return std::make_unique<OraclePass>();
}

} // namespace verify
} // namespace hscd
