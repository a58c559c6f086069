#include "verify/diagnostic.hh"

#include "common/log.hh"
#include "common/strutil.hh"
#include "verify/catalog.hh"

namespace hscd {
namespace verify {

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:
        return "note";
      case Severity::Warning:
        return "warning";
      case Severity::Error:
        return "error";
    }
    return "?";
}

SourceLoc
SourceLoc::ofRef(const hir::Program &prog, hir::RefId id)
{
    const hir::RefInfo &info = prog.refInfo(id);
    SourceLoc loc;
    loc.proc = prog.procedures().at(info.proc).name;
    loc.ref = id;
    std::string subs;
    for (std::size_t i = 0; i < info.stmt->subs.size(); ++i)
        subs += (i ? "," : "") + info.stmt->subs[i].str();
    loc.where = csprintf("%s(%s)", prog.array(info.stmt->array).name, subs);
    return loc;
}

std::string
SourceLoc::str() const
{
    std::string out = proc.empty() ? std::string("<program>") : proc;
    if (ref != hir::invalidRef)
        out += csprintf(":ref%d", ref);
    if (!where.empty())
        out += ":" + where;
    return out;
}

std::string
Diagnostic::str() const
{
    return csprintf("%s: %s: [%s] %s", loc.str(), severityName(severity),
                    id, message);
}

void
DiagnosticEngine::report(const std::string &id, Severity sev, SourceLoc loc,
                         const std::string &message)
{
    // Every emitted ID must be cataloged with this exact severity: the
    // catalog is the single source of truth a pass cannot drift from.
    const CatalogEntry *entry = catalogLookup(id);
    hscd_assert(entry, "diagnostic id '%s' is not in the catalog "
                       "(src/verify/catalog.cc)", id.c_str());
    hscd_assert(entry->severity == sev,
                "diagnostic '%s' reported as %s but cataloged as %s",
                id.c_str(), severityName(sev),
                severityName(entry->severity));
    _diags.push_back(Diagnostic{id, sev, std::move(loc), message});
}

std::size_t
DiagnosticEngine::count(Severity s) const
{
    std::size_t n = 0;
    for (const Diagnostic &d : _diags)
        if (d.severity == s)
            ++n;
    return n;
}

std::string
DiagnosticEngine::renderText() const
{
    std::string out;
    for (const Diagnostic &d : _diags)
        out += d.str() + "\n";
    out += csprintf("%s: %d error(s), %d warning(s), %d note(s)\n",
                    _program.empty() ? "<program>" : _program, errors(),
                    warnings(), notes());
    return out;
}

std::string
DiagnosticEngine::renderJson(int indent) const
{
    const std::string pad(indent, ' ');
    const std::string pad2(indent + 2, ' ');
    const std::string pad4(indent + 4, ' ');
    std::string out = pad + "{\n";
    out += pad2 + csprintf("\"program\": \"%s\",\n", jsonEscape(_program));
    out += pad2 +
           csprintf("\"counts\": {\"errors\": %d, \"warnings\": %d, "
                    "\"notes\": %d},\n",
                    errors(), warnings(), notes());
    out += pad2 + "\"diagnostics\": [";
    for (std::size_t i = 0; i < _diags.size(); ++i) {
        const Diagnostic &d = _diags[i];
        out += (i ? "," : "") + std::string("\n") + pad4;
        out += csprintf("{\"id\": \"%s\", \"severity\": \"%s\", "
                        "\"proc\": \"%s\", \"ref\": %s, "
                        "\"where\": \"%s\", \"message\": \"%s\"}",
                        jsonEscape(d.id), severityName(d.severity),
                        jsonEscape(d.loc.proc),
                        d.loc.ref == hir::invalidRef
                            ? std::string("null")
                            : std::to_string(d.loc.ref),
                        jsonEscape(d.loc.where), jsonEscape(d.message));
    }
    if (!_diags.empty())
        out += "\n" + pad2;
    out += "]\n" + pad + "}";
    return out;
}

} // namespace verify
} // namespace hscd
