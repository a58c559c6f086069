#include "campaign/journal.hh"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <type_traits>

#include "common/log.hh"
#include "common/strutil.hh"
#include "obs/provenance.hh"

namespace hscd {
namespace campaign {

namespace {

/** Whitespace-free token encoding; the empty string becomes "-". */
std::string
escapeTok(const std::string &s)
{
    if (s.empty())
        return "-";
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        if (c == '%' || c <= ' ' || c == 0x7f || (out.empty() && c == '-'))
            out += csprintf("%%%02x", unsigned(c));
        else
            out += static_cast<char>(c);
    }
    return out;
}

std::string
unescapeTok(const std::string &t)
{
    if (t == "-")
        return "";
    std::string out;
    out.reserve(t.size());
    for (std::size_t i = 0; i < t.size(); ++i) {
        if (t[i] == '%' && i + 2 < t.size()) {
            out += static_cast<char>(
                std::strtoul(t.substr(i + 1, 2).c_str(), nullptr, 16));
            i += 2;
        } else {
            out += t[i];
        }
    }
    return out;
}

/** IEEE-754 bit pattern as 16 hex digits (bit-exact double travel). */
std::string
doubleBits(double v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return csprintf("%016x", u);
}

} // namespace

std::string
TokenReader::tok()
{
    std::string t;
    if (!(in >> t))
        ok = false;
    return t;
}

std::uint64_t
TokenReader::u64(int base)
{
    const std::string t = tok();
    if (!ok)
        return 0;
    char *end = nullptr;
    std::uint64_t v = std::strtoull(t.c_str(), &end, base);
    if (end == t.c_str() || *end != '\0')
        ok = false;
    return v;
}

double
TokenReader::f64()
{
    std::uint64_t u = u64(16);
    double v = 0;
    std::memcpy(&v, &u, sizeof(v));
    return v;
}

std::string
TokenReader::str()
{
    return unescapeTok(tok());
}

bool
TokenReader::atEnd()
{
    if (!ok)
        return false;
    std::string t;
    return !(in >> t);
}

void
encodeResult(std::ostream &s, const sim::RunResult &r)
{
    auto u = [&](std::uint64_t v) { s << ' ' << v; };
    auto d = [&](double v) { s << ' ' << doubleBits(v); };
    auto str = [&](const std::string &v) { s << ' ' << escapeTok(v); };

    sim::forEachScalar(r, [&](const char *, auto v) {
        if constexpr (std::is_floating_point_v<decltype(v)>)
            d(v);
        else
            u(v);
    });
    u(r.firstViolations.size());
    for (const sim::OracleViolation &v : r.firstViolations) {
        u(v.addr); u(v.ref); u(v.seen); u(v.expected);
        u(v.epoch); u(v.proc);
    }
    u(r.shadowViolations);
    u(r.firstShadowViolations.size());
    for (const sim::ShadowViolation &v : r.firstShadowViolations) {
        u(v.addr); u(v.ref); u(v.proc); u(v.epoch);
        u(v.writerProc); u(v.writerEpoch);
    }
    u(static_cast<std::uint64_t>(r.abort.kind));
    str(r.abort.reason);
    u(r.abort.cycle); u(r.abort.epoch); u(r.abort.proc);
    str(r.abort.snapshot);
    u(r.faultsInjected); u(r.faultsRecovered); u(r.faultRetries);
}

bool
decodeResult(TokenReader &in, sim::RunResult &r)
{
    // Caps torn/corrupt length prefixes before they become allocations.
    constexpr std::uint64_t kMaxViolations = 1u << 20;

    sim::forEachScalar(r, [&](const char *, auto &v) {
        if constexpr (std::is_floating_point_v<std::decay_t<decltype(v)>>)
            v = in.f64();
        else
            v = in.u64();
    });
    std::uint64_t n = in.u64();
    if (!in.ok || n > kMaxViolations)
        return false;
    r.firstViolations.resize(n);
    for (sim::OracleViolation &v : r.firstViolations) {
        v.addr = in.u64();
        v.ref = static_cast<hir::RefId>(in.u64());
        v.seen = in.u64(); v.expected = in.u64();
        v.epoch = in.u64();
        v.proc = static_cast<ProcId>(in.u64());
    }
    r.shadowViolations = in.u64();
    n = in.u64();
    if (!in.ok || n > kMaxViolations)
        return false;
    r.firstShadowViolations.resize(n);
    for (sim::ShadowViolation &v : r.firstShadowViolations) {
        v.addr = in.u64();
        v.ref = static_cast<hir::RefId>(in.u64());
        v.proc = static_cast<ProcId>(in.u64());
        v.epoch = in.u64();
        v.writerProc = static_cast<ProcId>(in.u64());
        v.writerEpoch = in.u64();
    }
    // A kind past the last enumerator is corruption, not an abort.
    const std::uint64_t kind = in.u64();
    if (kind > static_cast<std::uint64_t>(fault::AbortKind::ClockLimit))
        return false;
    r.abort.kind = static_cast<fault::AbortKind>(kind);
    r.abort.reason = in.str();
    r.abort.cycle = in.u64(); r.abort.epoch = in.u64();
    r.abort.proc = static_cast<std::uint32_t>(in.u64());
    r.abort.snapshot = in.str();
    r.faultsInjected = in.u64(); r.faultsRecovered = in.u64();
    r.faultRetries = in.u64();
    return in.ok;
}

std::string
journalHeader(const std::string &magic, std::uint64_t identity)
{
    return magic + ' ' + csprintf("%016x", identity);
}

void
writeResultCellJson(std::ostream &f, const sim::RunResult &r,
                    const std::string &error)
{
    using obs::jsonEscape;
    f << "      \"fingerprint\": \""
      << csprintf("%016x", r.fingerprint()) << "\"";
    sim::forEachScalar(r, [&](const char *key, auto v) {
        f << ",\n      \"" << key << "\": ";
        if constexpr (std::is_floating_point_v<decltype(v)>)
            f << csprintf("%.17g", v);
        else
            f << v;
    });
    // Robustness fields are emitted only when present so fault-free
    // sweeps keep their historical byte-identical JSON.
    if (r.shadowViolations != 0)
        f << ",\n      \"shadow_violations\": " << r.shadowViolations;
    if (r.faultsInjected || r.faultsRecovered || r.faultRetries) {
        f << ",\n      \"faults_injected\": " << r.faultsInjected;
        f << ",\n      \"faults_recovered\": " << r.faultsRecovered;
        f << ",\n      \"fault_retries\": " << r.faultRetries;
    }
    if (r.aborted()) {
        f << ",\n      \"abort\": {\n";
        f << "        \"kind\": \"" << fault::abortKindName(r.abort.kind)
          << "\",\n";
        f << "        \"reason\": \"" << jsonEscape(r.abort.reason)
          << "\",\n";
        f << "        \"cycle\": " << r.abort.cycle << ",\n";
        f << "        \"epoch\": " << r.abort.epoch << ",\n";
        f << "        \"proc\": " << r.abort.proc << "\n";
        f << "      }";
    }
    if (!error.empty())
        f << ",\n      \"error\": \"" << jsonEscape(error) << "\"";
}

bool
parseJournalHeader(const std::string &line, const std::string &magic,
                   std::uint64_t &identity)
{
    // Exact prefix match: a header torn anywhere inside the magic is a
    // prefix of it, never equal to it.
    if (line.size() < magic.size() + 2)
        return false;
    if (line.compare(0, magic.size(), magic) != 0 ||
        line[magic.size()] != ' ')
        return false;
    const std::string id = line.substr(magic.size() + 1);
    // Exactly 16 hex digits and nothing after them: a torn identity
    // (fewer digits) or trailing junk is structurally invalid, so it
    // can never be misread as some other sweep's (shorter) identity.
    if (id.size() != 16)
        return false;
    for (char c : id)
        if (!std::isxdigit(static_cast<unsigned char>(c)))
            return false;
    identity = std::strtoull(id.c_str(), nullptr, 16);
    return true;
}

bool
atomicWrite(const std::string &path, const std::string &content)
{
    // flush() pushes the bytes to the OS, which survives `kill -9` of
    // this process (the crash model the sweep's kill -9 gate exercises;
    // whole-machine power loss is out of scope).
    const std::string tmp = path + ".tmp";
    {
        std::ofstream f(tmp, std::ios::binary | std::ios::trunc);
        if (!f)
            return false;
        f << content;
        f.flush();
        if (!f)
            return false;
    }
    return std::rename(tmp.c_str(), path.c_str()) == 0;
}

CellOutcome
guardedCall(const std::function<sim::RunResult()> &fn)
{
    CellOutcome o;
    try {
        o.result = fn();
    } catch (const std::exception &e) {
        o.error = e.what();
        if (o.error.empty())
            o.error = "unhandled exception";
    } catch (...) {
        o.error = "unhandled non-standard exception";
    }
    return o;
}

CellJournal::CellJournal(std::string path, std::string magic,
                         std::uint64_t identity, std::size_t cells)
    : _path(std::move(path)), _magic(std::move(magic)), _identity(identity),
      _outcomes(cells), _have(cells, 0)
{
}

CellJournal::State
CellJournal::restore()
{
    std::ifstream f(_path);
    std::string line;
    if (!f || !std::getline(f, line))
        return _state = State::Fresh;
    if (!parseJournalHeader(line, _magic, _found))
        return _state = State::NotAJournal;
    if (_found != _identity)
        return _state = State::Foreign;

    std::string kept = line + "\n";
    // getline() hits EOF only on a last line without its newline: an
    // append would continue that line, so the file must be rewritten.
    bool compact = f.eof();
    while (std::getline(f, line)) {
        compact = compact || f.eof();
        if (line.empty())
            continue;
        TokenReader in(line);
        const bool tagged = in.tok() == "cell";
        const std::uint64_t idx = in.u64();
        CellOutcome o;
        o.error = in.str();
        if (!tagged || !decodeResult(in, o.result) || !in.atEnd() ||
            idx >= _outcomes.size() || _have[idx]) {
            ++_dropped; // torn tail or duplicate: the cell re-runs
            compact = true;
            continue;
        }
        _outcomes[idx] = std::move(o);
        _have[idx] = 1;
        ++_restored;
        kept += line + "\n";
    }
    f.close();
    if (compact && !atomicWrite(_path, kept))
        fatal("cannot rewrite journal '%s'", _path);
    return _state = State::Resumed;
}

bool
CellJournal::open()
{
    if (_state == State::Resumed) {
        _file.open(_path, std::ios::app);
    } else {
        _file.open(_path, std::ios::trunc);
        _file << journalHeader(_magic, _identity) << '\n';
        _file.flush();
    }
    return _file.good();
}

void
CellJournal::append(std::size_t cell, const CellOutcome &o)
{
    std::ostringstream rec;
    rec << "cell " << cell << ' ' << escapeTok(o.error);
    encodeResult(rec, o.result);
    rec << '\n';
    std::lock_guard<std::mutex> lock(_mu);
    if (_have[cell])
        return;
    _outcomes[cell] = o;
    _have[cell] = 1;
    // One flushed line per cell: a kill -9 tears at most this line.
    _file << rec.str();
    _file.flush();
}

std::size_t
CellJournal::errors() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::size_t n = 0;
    for (std::size_t i = 0; i < _outcomes.size(); ++i)
        if (_have[i] && !_outcomes[i].error.empty())
            ++n;
    return n;
}

} // namespace campaign
} // namespace hscd
