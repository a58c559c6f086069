#include "span.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <unordered_map>

namespace simbench {

namespace {

thread_local std::uint32_t tlParent = 0;
thread_local std::uint32_t tlPass = 0;
thread_local std::int32_t tlCell = -1;

std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t mine = ++next;
    return mine;
}

} // namespace

Tracer::Tracer() : _origin(std::chrono::steady_clock::now()) {}

double
Tracer::nowUs() const
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - _origin)
        .count();
}

void
Tracer::record(const Span &s)
{
    std::lock_guard<std::mutex> lk(_mtx);
    _spans.push_back(s);
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lk(_mtx);
    return _spans;
}

bool
Tracer::writeChromeJson(const std::string &path,
                        const std::string &provenanceJson) const
{
    std::ofstream os(path);
    if (!os)
        return false;
    os << "{\"otherData\": " << provenanceJson << ",\n\"traceEvents\": [\n";
    const std::vector<Span> all = spans();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        char buf[320];
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,"
                      "\"parent\":%u,\"pass\":%u,\"cell\":%d}}%s\n",
                      s.name, s.tid, s.startUs, s.durUs(), s.id, s.parent,
                      s.pass, s.cell, i + 1 == all.size() ? "" : ",");
        os << buf;
    }
    os << "]}\n";
    return bool(os);
}

SpanScope::SpanScope(Tracer *t, const char *name, std::int32_t cell) : _t(t)
{
    if (!_t)
        return;
    _s.name = name;
    _s.id = _t->nextId();
    _s.parent = tlParent;
    _s.pass = tlPass;
    _s.cell = cell >= 0 ? cell : tlCell;
    _s.tid = threadNumber();
    _savedParent = tlParent;
    _savedCell = tlCell;
    tlParent = _s.id;
    tlCell = _s.cell;
    _s.startUs = _t->nowUs();
}

SpanScope::~SpanScope()
{
    if (!_t)
        return;
    _s.endUs = _t->nowUs();
    tlParent = _savedParent;
    tlCell = _savedCell;
    _t->record(_s);
}

ThreadContext::ThreadContext(std::uint32_t parent, std::uint32_t pass)
    : _savedParent(tlParent), _savedPass(tlPass), _savedCell(tlCell)
{
    tlParent = parent;
    tlPass = pass;
    tlCell = -1;
}

ThreadContext::~ThreadContext()
{
    tlParent = _savedParent;
    tlPass = _savedPass;
    tlCell = _savedCell;
}

void
setThreadPass(std::uint32_t pass)
{
    tlPass = pass;
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint32_t, std::vector<const Span *>> children;
    for (const Span &s : spans)
        if (s.parent)
            children[s.parent].push_back(&s);

    std::map<std::string, double> out;
    for (const Span &s : spans) {
        double covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            std::vector<std::pair<double, double>> iv;
            for (const Span *c : it->second)
                iv.emplace_back(std::max(c->startUs, s.startUs),
                                std::min(c->endUs, s.endUs));
            std::sort(iv.begin(), iv.end());
            double curStart = 0, curEnd = -1;
            for (const auto &[a, b] : iv) {
                if (a > curEnd) {
                    if (curEnd > curStart)
                        covered += curEnd - curStart;
                    curStart = a;
                    curEnd = b;
                } else {
                    curEnd = std::max(curEnd, b);
                }
            }
            if (curEnd > curStart)
                covered += curEnd - curStart;
        }
        out[s.name] += s.durUs() - covered;
    }
    return out;
}

} // namespace simbench
