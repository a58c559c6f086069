#include "sim/stream.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>

#include "common/log.hh"

namespace hscd {
namespace sim {

namespace {

using Code = LoweredOp::Code;
using Kind = StreamOp::Kind;
using Range = std::optional<hir::Range>;

std::uint32_t
size32(std::size_t n)
{
    return static_cast<std::uint32_t>(n);
}

/**
 * One pass over the HIR that emits the master, then the body of each
 * DOALL the master reached, into one StreamProgram.
 */
class Lowerer
{
  public:
    explicit Lowerer(const hir::Program &prog)
        : _prog(prog), _sp(std::make_shared<StreamProgram>())
    {
    }

    std::shared_ptr<const StreamProgram>
    run()
    {
        _sp->arrays = _prog.arrays();
        for (const auto &[name, value] : _prog.params().vars())
            _scope.push_back({name, newSlot(hir::Range{value, value}, value)});
        // loops[0] owns the master's straight-line generators; its slot
        // is no slot any address reads.
        _sp->loops.push_back({static_cast<std::uint32_t>(-1)});
        _owners.assign(1, 0);
        lowerList(_prog.main().body);
        emit(Code::End);

        // DOALL bodies run in task mode: nested DOALLs are serial loops.
        _task = true;
        for (PendingDoall &p : _pending) {
            _scope = std::move(p.scope);
            _owners.assign(1, p.loop);
            _sync = false;
            _sp->loops[p.loop].body = pc();
            lowerList(p.stmt->body);
            _sp->loops[p.loop].end = emit(Code::IterEnd);
            _sp->loops[p.loop].hasSync = _sync;
        }

        // Group the generators by owner: each loop's become contiguous.
        std::vector<std::uint32_t> at(_sp->loops.size() + 1, 0);
        for (std::uint32_t owner : _genOwner)
            ++at[owner + 1];
        for (std::size_t li = 0; li < _sp->loops.size(); ++li) {
            at[li + 1] += at[li];
            _sp->loops[li].gens = at[li];
            _sp->loops[li].gensEnd = at[li + 1];
        }
        std::vector<AddrGen> gens(_sp->gens.size());
        for (std::size_t g = 0; g < gens.size(); ++g)
            gens[at[_genOwner[g]]++] = _sp->gens[g];
        _sp->gens = std::move(gens);
        return _sp;
    }

  private:
    struct Binding
    {
        std::string name;
        std::uint32_t slot;
    };

    /** The next op's pc; a pending run is emitted first. */
    std::uint32_t
    pc()
    {
        const std::uint32_t end = size32(_sp->runOps.size());
        if (_runBegin != end)
            _sp->code.push_back({_runBegin, end, Code::Run});
        _runBegin = end;
        return size32(_sp->code.size());
    }

    std::uint32_t
    emit(Code code, std::int64_t aux = 0, std::uint32_t arg = 0)
    {
        const std::uint32_t at = pc();
        _sp->code.push_back({aux, arg, code});
        return at;
    }

    /** An executor op the program passes through as it is. */
    void
    mark(Kind kind, std::int64_t flag_expr = 0)
    {
        emit(kind == Kind::Post || kind == Kind::Wait ? Code::Sync
                                                      : Code::Mark,
             flag_expr, static_cast<std::uint32_t>(kind));
    }

    std::uint32_t
    newSlot(Range range, std::int64_t init = 0)
    {
        _range.push_back(range);
        _sp->slotInit.push_back(init);
        return size32(_range.size() - 1);
    }

    /** The slot of @p name's innermost binding, read by @p e. */
    std::uint32_t
    slotOf(const std::string &name, const hir::IntExpr &e) const
    {
        for (auto it = _scope.rbegin(); it != _scope.rend(); ++it)
            if (it->name == name)
                return it->slot;
        panic("IntExpr::eval: unbound variable '%s' in %s", name, e.str());
    }

    /**
     * An expression over slots: konst plus @p terms, plus, given a
     * @p seed, the hash of the live bindings (the innermost per name).
     */
    std::uint32_t
    expr(std::int64_t konst, const std::vector<SlotTerm> &terms,
         std::optional<std::uint64_t> seed)
    {
        SlotExpr x;
        x.konst = konst;
        x.terms = size32(_sp->terms.size());
        _sp->terms.insert(_sp->terms.end(), terms.begin(), terms.end());
        x.termsEnd = x.binds = size32(_sp->terms.size());
        for (auto it = _scope.rbegin(); seed && it != _scope.rend(); ++it)
            if (std::none_of(it.base(), _scope.end(), [&](const Binding &b) {
                    return b.name == it->name;
                }))
                _sp->terms.push_back(
                    {it->slot,
                     static_cast<std::int64_t>(hir::nameHash(it->name))});
        x.bindsEnd = size32(_sp->terms.size());
        x.seed = seed.value_or(0);
        x.hashed = seed.has_value();
        _sp->exprs.push_back(x);
        return size32(_sp->exprs.size() - 1);
    }

    std::uint32_t
    expr(const hir::IntExpr &e)
    {
        std::vector<SlotTerm> terms;
        for (const std::string &v : e.variables())
            terms.push_back({slotOf(v, e), e.coeff(v)});
        std::optional<std::uint64_t> seed;
        if (e.hasUnknown()) // IntExpr::eval's seed, in 32-bit arithmetic
            seed = std::uint32_t(e.unknownId() + 0x51ed270bU);
        return expr(e.constantValue(), terms, seed);
    }

    /** The values @p e can take, when every variable has a range. */
    Range
    rangeOf(const hir::IntExpr &e) const
    {
        if (e.hasUnknown())
            return std::nullopt;
        hir::Range r{e.constantValue(), e.constantValue()};
        for (const std::string &v : e.variables()) {
            const Range &vr = _range[slotOf(v, e)];
            if (!vr)
                return std::nullopt;
            const std::int64_t c = e.coeff(v);
            r.lo += c * (c >= 0 ? vr->lo : vr->hi);
            r.hi += c * (c >= 0 ? vr->hi : vr->lo);
        }
        return r;
    }

    /** A loop's LoopInfo; its bounds are read in the enclosing scope. */
    std::uint32_t
    newLoop(const hir::LoopStmt &l)
    {
        const Range lo = rangeOf(l.lo);
        const Range hi = rangeOf(l.hi);
        LoopInfo info;
        info.slot = newSlot(lo && hi ? Range(hir::Range{lo->lo, hi->hi})
                                     : std::nullopt);
        info.lo = expr(l.lo);
        info.hi = expr(l.hi);
        info.step = l.step;
        _sp->loops.push_back(info);
        return size32(_sp->loops.size() - 1);
    }

    void
    lowerList(const hir::StmtList &list)
    {
        for (const hir::StmtPtr &s : list)
            lowerStmt(*s);
    }

    void
    lowerStmt(const hir::Stmt &s)
    {
        using hir::StmtKind;
        switch (s.kind()) {
          case StmtKind::ArrayRef:
            lowerRef(static_cast<const hir::ArrayRefStmt &>(s));
            break;
          case StmtKind::Compute:
            _sp->runOps.push_back(
                {static_cast<std::int64_t>(
                     static_cast<const hir::ComputeStmt &>(s).cycles),
                 hir::invalidRef, Kind::Compute});
            break;
          case StmtKind::Loop: {
            const auto &l = static_cast<const hir::LoopStmt &>(s);
            if (l.parallel && !_task) {
                // The master yields it; the body is lowered after the
                // master, in the master's scope plus the DOALL index.
                const std::uint32_t li = newLoop(l);
                _pending.push_back({li, &l, _scope});
                _pending.back().scope.push_back({l.var, _sp->loops[li].slot});
                emit(Code::Doall, li);
            } else if (!unrollLoop(l)) {
                lowerLoop(l);
            }
            break;
          }
          case StmtKind::IfUnknown:
            lowerBranch(static_cast<const hir::IfUnknownStmt &>(s));
            break;
          case StmtKind::Call:
            mark(Kind::CallBoundary);
            lowerList(_prog.procedures()
                          [static_cast<const hir::CallStmt &>(s).callee]
                              .body);
            mark(Kind::CallBoundary);
            break;
          case StmtKind::Critical:
            mark(Kind::LockAcquire);
            lowerList(static_cast<const hir::CriticalStmt &>(s).body);
            mark(Kind::LockRelease);
            break;
          case StmtKind::Barrier:
            hscd_assert(!_task, "barrier inside a DOALL body");
            mark(Kind::Barrier);
            break;
          case StmtKind::Sync: {
            const auto &sy = static_cast<const hir::SyncStmt &>(s);
            _sync = true;
            mark(sy.isPost ? Kind::Post : Kind::Wait, expr(sy.flag));
            break;
          }
        }
    }

    /**
     * A generator when every subscript is affine and provably in range,
     * so the address needs no check at run time; a SlowRef otherwise.
     */
    void
    lowerRef(const hir::ArrayRefStmt &r)
    {
        const hir::ArrayDecl &a = _prog.array(r.array);
        bool affine = true;
        std::int64_t base = static_cast<std::int64_t>(a.base);
        std::vector<SlotTerm> strides;
        std::int64_t mult = static_cast<std::int64_t>(hir::wordBytes);
        for (std::size_t d = 0; affine && d < r.subs.size(); ++d) {
            const hir::IntExpr &e = r.subs[d];
            const Range rg = rangeOf(e);
            affine = rg && rg->lo >= 0 && rg->hi < a.dims[d];
            base += e.constantValue() * mult;
            for (const std::string &v : e.variables())
                strides.push_back({slotOf(v, e), e.coeff(v) * mult});
            mult *= a.dims[d];
        }
        if (!affine) {
            const std::int64_t first = _sp->exprs.size();
            for (const hir::IntExpr &e : r.subs)
                expr(e);
            emit(Code::SlowRef, std::int64_t(r.array) << 32 | first, r.id);
            return;
        }

        // The innermost enclosing loop whose slot the address reads owns
        // the generator; the others hold still while that loop runs.
        AddrGen g;
        std::uint32_t owner = _owners.front();
        for (auto it = _owners.rbegin(); it != _owners.rend(); ++it) {
            for (const SlotTerm &t : strides)
                if (t.slot == _sp->loops[*it].slot)
                    g.delta += t.coef * _sp->loops[*it].step;
            if (g.delta != 0) {
                owner = *it;
                break;
            }
        }
        g.addr = expr(base, strides, std::nullopt);
        g.pos = size32(_sp->runOps.size());
        _sp->runOps.push_back({0, r.id, Kind::Ref});
        _sp->gens.push_back(g);
        _genOwner.push_back(owner);
    }

    void
    lowerLoop(const hir::LoopStmt &l)
    {
        const std::uint32_t li = newLoop(l);
        const std::uint32_t begin = emit(Code::LoopBegin, li);
        _scope.push_back({l.var, _sp->loops[li].slot});
        _owners.push_back(li);
        lowerList(l.body);
        _owners.pop_back();
        _scope.pop_back();
        emit(Code::LoopNext, li, begin + 1);
        _sp->code[begin].arg = pc();
    }

    /**
     * A short loop of constant bounds whose body is only affine Refs and
     * Computes unrolls into the enclosing run: each trip binds the
     * variable to a constant slot, which folds into the generators. The
     * size cap keeps the program O(program text).
     */
    bool
    unrollLoop(const hir::LoopStmt &l)
    {
        constexpr std::int64_t kMaxUnrolledOps = 32;
        const Range lo = rangeOf(l.lo);
        const Range hi = rangeOf(l.hi);
        if (!lo || !hi || lo->lo != lo->hi || hi->lo != hi->hi)
            return false;
        const std::int64_t trips =
            lo->lo > hi->lo ? 0 : (hi->lo - lo->lo) / l.step + 1;
        if (trips * static_cast<std::int64_t>(l.body.size()) >
            kMaxUnrolledOps)
            return false;
        for (const hir::StmtPtr &s : l.body) {
            if (s->kind() == hir::StmtKind::Compute)
                continue;
            if (s->kind() != hir::StmtKind::ArrayRef)
                return false;
            for (const hir::IntExpr &e :
                 static_cast<const hir::ArrayRefStmt &>(*s).subs)
                if (e.hasUnknown())
                    return false;
        }
        for (std::int64_t t = 0; t < trips; ++t) {
            const std::int64_t v = lo->lo + t * l.step;
            _scope.push_back({l.var, newSlot(hir::Range{v, v}, v)});
            lowerList(l.body);
            _scope.pop_back();
        }
        return true;
    }

    void
    lowerBranch(const hir::IfUnknownStmt &br)
    {
        if (br.policy == hir::TakePolicy::Always ||
            br.policy == hir::TakePolicy::Never) {
            lowerList(br.policy == hir::TakePolicy::Always ? br.thenBody
                                                           : br.elseBody);
            return;
        }
        const std::uint32_t branch =
            br.policy == hir::TakePolicy::Hash
                ? emit(Code::Hash, expr(0, {}, 0x9e3779b9ULL + br.id))
                : emit(Code::Alternate, br.id);
        lowerList(br.thenBody);
        const std::uint32_t jump = br.elseBody.empty() ? 0 : emit(Code::Jump);
        _sp->code[branch].arg = pc();
        lowerList(br.elseBody);
        if (jump)
            _sp->code[jump].arg = pc();
    }

    struct PendingDoall
    {
        std::uint32_t loop;
        const hir::LoopStmt *stmt;
        std::vector<Binding> scope;
    };

    const hir::Program &_prog;
    std::shared_ptr<StreamProgram> _sp;
    std::vector<Binding> _scope; ///< bound names, innermost last
    std::vector<Range> _range;   ///< per slot
    /** Enclosing loops of the block being lowered, outermost first. */
    std::vector<std::uint32_t> _owners;
    std::vector<std::uint32_t> _genOwner; ///< per generator
    std::vector<PendingDoall> _pending;
    std::uint32_t _runBegin = 0; ///< runOps index of the pending run
    bool _task = false; ///< lowering a DOALL body
    bool _sync = false; ///< the DOALL body has post/wait
};

/**
 * Per-CompiledProgram cache, hung off CompiledProgram::simCache. The
 * slot mutex serializes the lowering, which both guarantees insert-once
 * and keeps concurrent sweep threads from lowering one program twice.
 */
struct CacheSlot
{
    std::mutex mu;
    std::shared_ptr<const StreamProgram> program;
};

std::mutex g_slotMu;
std::atomic<std::uint64_t> g_streamBuilds{0};
std::atomic<std::uint64_t> g_streamHits{0};

} // namespace

OpCursor::OpCursor(const StreamProgram &sp)
    : _genInfo(sp.gens.data()), _sp(&sp), _code(sp.code.data()),
      _state(2 * sp.slotInit.size(), 0), _opsBuf(sp.runOps)
{
    _ops = _opsBuf.data();
    _slots = _state.data();
    _his = _slots + sp.slotInit.size();
}

void
OpCursor::reset(std::uint32_t pc)
{
    _pc = pc;
    _cur = _end = nullptr;
    _tight = nullptr;
    _share = IterShare{};
    _iter = _lastK = -1;
}

void
OpCursor::startMaster()
{
    std::copy(_sp->slotInit.begin(), _sp->slotInit.end(), _slots);
    recompute(_sp->loops[0]);
    reset(0);
}

void
OpCursor::enterEpoch(const OpCursor &master)
{
    std::copy(master._slots, master._slots + _sp->slotInit.size(), _slots);
    _doall = master._doallLast;
    _epochLo = master._doallLo;
    reset(_doall->end);
}

void
OpCursor::startIteration()
{
    const auto k = static_cast<std::int64_t>(_share.begin);
    _share.begin += _share.stride;
    const LoopInfo &l = *_doall;
    _iter = _epochLo + k * l.step;
    _slots[l.slot] = _iter;
    ++_stamp;
    if (_lastK < 0) {
        recompute(l);
    } else {
        for (std::uint32_t g = l.gens; g < l.gensEnd; ++g)
            _ops[_genInfo[g].pos].aux += _genInfo[g].delta * (k - _lastK);
    }
    _lastK = k;
    _pc = l.body;
}

std::size_t
OpCursor::doallTrips() const
{
    return _doallLo > _doallHi
               ? 0
               : static_cast<std::size_t>((_doallHi - _doallLo) /
                                          _doallLast->step) + 1;
}

void
OpCursor::recompute(const LoopInfo &l)
{
    for (std::uint32_t g = l.gens; g < l.gensEnd; ++g)
        _ops[_genInfo[g].pos].aux = eval(_sp->exprs[_genInfo[g].addr], 0);
}

std::uint64_t
OpCursor::hash(const SlotExpr &e) const
{
    std::uint64_t sum = 0;
    for (std::uint32_t b = e.binds; b < e.bindsEnd; ++b)
        sum += hir::mixBinding(static_cast<std::uint64_t>(_sp->terms[b].coef),
                               _slots[_sp->terms[b].slot]);
    return hir::mixEnd(e.seed, sum);
}

std::int64_t
OpCursor::eval(const SlotExpr &e, std::int64_t unknown_modulus) const
{
    std::int64_t acc = e.konst;
    for (std::uint32_t t = e.terms; t < e.termsEnd; ++t)
        acc += _sp->terms[t].coef * _slots[_sp->terms[t].slot];
    if (e.hashed) {
        const std::uint64_t h = hash(e);
        acc += static_cast<std::int64_t>(
            unknown_modulus > 0
                ? h % static_cast<std::uint64_t>(unknown_modulus)
                : h & 0xffff);
    }
    return acc;
}

bool
OpCursor::alternate(std::uint32_t id)
{
    if (id >= _alt.size())
        _alt.resize(id + 1);
    AltCount &c = _alt[id];
    if (_doall && c.stamp != _stamp)
        c = AltCount{_stamp, 0};
    return (c.trips++ % 2) == 0;
}

std::int64_t
OpCursor::slowRefAddr(std::int64_t aux)
{
    const hir::ArrayDecl &a = _sp->arrays[static_cast<std::size_t>(aux >> 32)];
    const SlotExpr *e = &_sp->exprs[aux & 0xffffffff];
    _subs.clear();
    for (const std::int64_t dim : a.dims) {
        std::int64_t v = eval(*e, e->hashed ? dim : 0);
        // Wrap an unknown subscript into range; one already in range
        // wraps to itself, so it skips the divisions.
        if (e++->hashed && (v < 0 || v >= dim))
            v = ((v % dim) + dim) % dim;
        _subs.push_back(v);
    }
    return static_cast<std::int64_t>(a.elementAddr(_subs));
}

bool
OpCursor::step(StreamOp &out)
{
    const LoopInfo *const loops = _sp->loops.data();
    while (true) {
        const LoweredOp &op = _code[_pc];
        const auto idx = static_cast<std::size_t>(op.aux);
        switch (op.code) {
          case Code::Run: {
            _cur = _ops + op.aux;
            _end = _ops + op.arg;
            const LoweredOp &after = _code[++_pc];
            if (after.code == Code::LoopNext && after.arg == _pc - 1) {
                _tight = &loops[after.aux];
                _tightBegin = _cur;
            } else if (after.code == Code::Jump) {
                _pc = after.arg; // the run's end goes straight there
            }
            return false;
          }
          case Code::LoopNext: {
            const LoopInfo &l = loops[idx];
            if ((_slots[l.slot] += l.step) > _his[l.slot])
                break;
            for (std::uint32_t g = l.gens; g < l.gensEnd; ++g)
                _ops[_genInfo[g].pos].aux += _genInfo[g].delta;
            _pc = op.arg;
            continue;
          }
          case Code::IterEnd:
            if (_share.begin >= _share.end) {
                out = StreamOp{};
                return true;
            }
            startIteration();
            continue;
          case Code::LoopBegin: {
            const LoopInfo &l = loops[idx];
            _slots[l.slot] = eval(_sp->exprs[l.lo], 0);
            _his[l.slot] = eval(_sp->exprs[l.hi], 0);
            if (_slots[l.slot] > _his[l.slot]) {
                _pc = op.arg;
                continue;
            }
            recompute(l);
            break;
          }
          case Code::Alternate:
          case Code::Hash:
            if (op.code == Code::Alternate
                    ? !alternate(static_cast<std::uint32_t>(idx))
                    : ((hash(_sp->exprs[idx]) >> 7) & 1) == 0) {
                _pc = op.arg;
                continue;
            }
            break;
          case Code::Jump:
            _pc = op.arg;
            continue;
          case Code::SlowRef:
            out = StreamOp{slowRefAddr(op.aux), op.arg, Kind::Ref};
            if (_code[++_pc].code == Code::Jump)
                _pc = _code[_pc].arg;
            return true;
          case Code::Mark:
          case Code::Sync:
            out = StreamOp{op.code == Code::Sync ? eval(_sp->exprs[idx], 0)
                                                 : 0,
                           hir::invalidRef, static_cast<Kind>(op.arg)};
            ++_pc;
            return true;
          case Code::Doall:
            _doallLast = &loops[idx];
            _doallLo = eval(_sp->exprs[_doallLast->lo], 0);
            _doallHi = eval(_sp->exprs[_doallLast->hi], 0);
            out = StreamOp{op.aux, hir::invalidRef, Kind::BeginDoall};
            ++_pc;
            return true;
          case Code::End:
            out = StreamOp{};
            return true;
        }
        ++_pc;
    }
}

std::shared_ptr<const StreamProgram>
epochStream(const compiler::CompiledProgram &cp, const MachineConfig &)
{
    CacheSlot *slot;
    {
        std::lock_guard<std::mutex> g(g_slotMu);
        if (!cp.simCache)
            cp.simCache = std::make_shared<CacheSlot>();
        slot = static_cast<CacheSlot *>(cp.simCache.get());
    }
    std::lock_guard<std::mutex> g(slot->mu);
    if (slot->program) {
        ++g_streamHits;
    } else {
        slot->program = Lowerer(cp.program).run();
        ++g_streamBuilds;
    }
    return slot->program;
}

StreamCacheStats
streamCacheStats()
{
    return {g_streamBuilds.load(), g_streamHits.load()};
}

} // namespace sim
} // namespace hscd
