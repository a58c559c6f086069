/** @file Trace-grammar parsing and trace runs. */

#include "workloads/trace.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "hir/program.hh"
#include "sim/machine.hh"

namespace hscd {
namespace workloads {

namespace {

/** Strict non-negative decimal; false on junk/overflow. */
bool
parseUint(const std::string &tok, std::uint64_t &out)
{
    if (tok.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : tok) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
        if (v > (std::uint64_t{1} << 40))
            return false;
    }
    out = v;
    return true;
}

std::vector<std::string>
tokenize(const std::string &line)
{
    std::vector<std::string> toks;
    std::string cur;
    for (char c : line) {
        if (c == '#')
            break;
        if (c == ' ' || c == '\t' || c == '\r') {
            if (!cur.empty()) {
                toks.push_back(cur);
                cur.clear();
            }
        } else {
            cur += c;
        }
    }
    if (!cur.empty())
        toks.push_back(cur);
    return toks;
}

[[noreturn]] void
traceError(const std::string &name, std::size_t lineno,
           const std::string &what)
{
    fatal("trace %s:%d: %s", name, static_cast<std::uint64_t>(lineno),
          what);
}

} // namespace

bool
isTraceSpec(const std::string &spec)
{
    const std::string s = toLower(trim(spec));
    return s.rfind("trace:", 0) == 0;
}

std::string
traceSpecPath(const std::string &spec)
{
    const std::string s = trim(spec);
    if (toLower(s).rfind("trace:", 0) != 0)
        fatal("not a trace spec: '%s' (expected trace:<file>)", spec);
    const std::string path = s.substr(6);
    if (path.empty())
        fatal("bad trace spec '%s': missing file path", spec);
    return path;
}

TraceWorkload
parseTraceText(const std::string &text, const std::string &name)
{
    TraceWorkload out;
    out.source = name;

    bool procsDeclared = false;
    unsigned declaredProcs = 0;
    unsigned maxProc = 0;
    Addr maxAddr = 0;
    std::uint64_t maxArray = 0;
    std::size_t maxArrayLine = 0;
    EpochId epoch = 0;
    mem::ValueStamp stamp = 0;

    std::size_t lineno = 0;
    // Advance to epoch @p ep, one boundary per epoch crossed.
    auto advanceTo = [&](std::uint64_t ep) {
        if (ep < epoch)
            traceError(name, lineno,
                       csprintf("non-monotone epoch %d (current %d)", ep,
                                epoch));
        if (ep > kMaxEpoch)
            traceError(name, lineno,
                       csprintf("epoch %d out of range (max %d)", ep,
                                kMaxEpoch));
        while (epoch < ep) {
            sim::TraceRecord b;
            b.type = sim::TraceRecord::Type::Boundary;
            b.epoch = ++epoch;
            out.records.push_back(b);
        }
    };

    std::size_t pos = 0;
    while (pos <= text.size()) {
        if (pos == text.size() && lineno > 0)
            break;
        const std::size_t nl = text.find('\n', pos);
        const bool terminated = nl != std::string::npos;
        const std::string line =
            text.substr(pos, terminated ? nl - pos : std::string::npos);
        pos = terminated ? nl + 1 : text.size() + 1;
        ++lineno;

        const std::vector<std::string> toks = tokenize(line);
        if (toks.empty())
            continue;
        // An unterminated final line may be a torn tail from a killed
        // writer; accept it only if it parses as a complete record.
        const char *torn =
            terminated ? "" : " (torn final line: no trailing newline)";

        if (toks[0] == "procs") {
            if (!out.records.empty())
                traceError(name, lineno,
                           "'procs' directive must precede all accesses");
            if (procsDeclared)
                traceError(name, lineno, "duplicate 'procs' directive");
            std::uint64_t p = 0;
            if (toks.size() != 2 || !parseUint(toks[1], p) || p == 0)
                traceError(name, lineno,
                           csprintf("malformed 'procs' directive '%s'%s",
                                    trim(line), torn));
            if (p > kMaxProcs)
                traceError(name, lineno,
                           csprintf("procs %d out of range (max %d)", p,
                                    kMaxProcs));
            procsDeclared = true;
            declaredProcs = static_cast<unsigned>(p);
            continue;
        }
        if (toks[0] == "epoch") {
            std::uint64_t ep = 0;
            if (toks.size() != 2 || !parseUint(toks[1], ep))
                traceError(name, lineno,
                           csprintf("malformed 'epoch' directive '%s'%s",
                                    trim(line), torn));
            advanceTo(ep);
            continue;
        }

        std::uint64_t proc = 0, addr = 0, ep = 0;
        const bool shapeOk =
            toks.size() == 3 || toks.size() == 4 || toks.size() == 8;
        if (!shapeOk || !parseUint(toks[0], proc) ||
            !parseUint(toks[1], addr) ||
            (toks[2] != "r" && toks[2] != "w" && toks[2] != "R" &&
             toks[2] != "W") ||
            (toks.size() >= 4 && !parseUint(toks[3], ep))) {
            traceError(name, lineno,
                       csprintf("malformed access record '%s'%s "
                                "(expected <proc> <addr> <r|w> [<epoch> "
                                "[<mark> <distance> <array> <crit>]])",
                                trim(line), torn));
        }
        if (procsDeclared ? proc >= declaredProcs : proc >= kMaxProcs)
            traceError(name, lineno,
                       csprintf("processor id %d out of range (%s)", proc,
                                procsDeclared
                                    ? csprintf("declared procs %d",
                                               declaredProcs)
                                    : csprintf("max %d", kMaxProcs)));
        if (addr % hir::wordBytes != 0)
            traceError(name, lineno,
                       csprintf("address %d is not word-aligned (%d bytes)",
                                addr, hir::wordBytes));
        if (addr >= kMaxAddr)
            traceError(name, lineno,
                       csprintf("address %d out of range (max %d)", addr,
                                kMaxAddr - 1));
        if (toks.size() >= 4)
            advanceTo(ep);

        sim::TraceRecord r;
        r.type = sim::TraceRecord::Type::Access;
        r.op.proc = static_cast<ProcId>(proc);
        r.op.addr = static_cast<Addr>(addr);
        r.op.write = toks[2] == "w" || toks[2] == "W";
        // The marking stub: no dependence info, so hardware may only
        // vouch for words written in the current epoch.
        r.op.arrayId = 0;
        r.op.mark = r.op.write ? compiler::MarkKind::Normal
                               : compiler::MarkKind::TimeRead;
        r.op.distance = 0;
        r.op.critical = false;
        if (toks.size() == 8) {
            const std::size_t mark = std::string("ntb").find(toks[4]);
            if (toks[4].size() != 1 || mark == std::string::npos)
                traceError(name, lineno,
                           csprintf("bad mark '%s' (expected n, t or b)",
                                    toks[4]));
            std::uint64_t dist = 0, array = 0;
            if (!parseUint(toks[5], dist) || dist > UINT32_MAX)
                traceError(name, lineno,
                           csprintf("distance '%s' out of range (0 to %d)",
                                    toks[5], UINT32_MAX));
            if (!parseUint(toks[6], array) || array > UINT32_MAX)
                traceError(name, lineno,
                           csprintf("array id '%s' out of range (0 to %d)",
                                    toks[6], UINT32_MAX));
            if (toks[7] != "0" && toks[7] != "1")
                traceError(name, lineno,
                           csprintf("critical flag '%s' is not 0 or 1",
                                    toks[7]));
            const compiler::MarkKind kinds[] = {
                compiler::MarkKind::Normal, compiler::MarkKind::TimeRead,
                compiler::MarkKind::Bypass};
            r.op.mark = kinds[mark];
            r.op.distance = static_cast<std::uint32_t>(dist);
            r.op.arrayId = static_cast<std::uint32_t>(array);
            r.op.critical = toks[7] == "1";
            if (array > maxArray) {
                maxArray = array;
                maxArrayLine = lineno;
            }
        }
        r.op.stamp = r.op.write ? ++stamp : 0;
        out.records.push_back(r);

        maxProc = std::max(maxProc, static_cast<unsigned>(proc));
        maxAddr = std::max(maxAddr, static_cast<Addr>(addr));
        if (r.op.write)
            ++out.writes;
        else
            ++out.reads;
    }

    if (out.reads + out.writes == 0)
        traceError(name, lineno ? lineno : 1, "trace contains no accesses");

    out.procs = procsDeclared ? declaredProcs : maxProc + 1;
    out.dataBytes = roundUp(maxAddr + hir::wordBytes, 64);
    out.epochCount = epoch + 1;
    // Each array holds at least one word, so a larger id is corrupt
    // (VC sizes its version table by the id).
    const Addr words = out.dataBytes / hir::wordBytes;
    if (maxArray >= words)
        traceError(name, maxArrayLine,
                   csprintf("array id %d at or above the trace's %d words",
                            maxArray, words));
    return out;
}

TraceWorkload
loadTraceFile(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot open trace file '%s'", path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return parseTraceText(ss.str(), path);
}

TraceWorkload
loadTraceSpec(const std::string &spec)
{
    return loadTraceFile(traceSpecPath(spec));
}

sim::RunResult
runTrace(const TraceWorkload &t, const MachineConfig &cfg_in,
         sim::TraceSink *sink)
{
    MachineConfig cfg = cfg_in;
    cfg.procs = std::max(cfg.procs, t.procs);
    sim::Machine m(t.records, t.dataBytes, cfg);
    m.setTraceSink(sink);
    return m.run();
}

} // namespace workloads
} // namespace hscd
