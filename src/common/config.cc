#include "common/config.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "common/log.hh"
#include "common/strutil.hh"

namespace hscd {

Params &
Params::define(const std::string &key, const std::string &def,
               const std::string &desc)
{
    if (!_entries.emplace(key, Entry{def, def, desc}).second)
        fatal("parameter '%s' defined twice", key);
    _order.push_back(key);
    return *this;
}

Params &
Params::defineFlag(const std::string &key, const std::string &desc)
{
    define(key, "false", desc);
    _entries[key].flag = true;
    return *this;
}

Params &
Params::alias(const std::string &spelling, const std::string &key)
{
    entry(key); // fatal() unless the key is defined
    if (!_aliases.emplace(spelling, key).second)
        fatal("alias '%s' defined twice", spelling);
    return *this;
}

void
Params::set(const std::string &key, const std::string &value)
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        fatal("unknown parameter '%s'", key);
    it->second.value = value;
}

void
Params::parseAssignment(const std::string &kv)
{
    auto eq = kv.find('=');
    if (eq == std::string::npos)
        fatal("expected key=value, got '%s'", kv);
    set(trim(kv.substr(0, eq)), trim(kv.substr(eq + 1)));
}

void
Params::parseArgs(const std::vector<std::string> &args)
{
    for (const std::string &a : args)
        parseAssignment(a);
}

std::vector<std::string>
Params::parseCommandLine(int argc, const char *const *argv)
{
    std::vector<std::string> positionals;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (auto a = _aliases.find(arg); a != _aliases.end())
            arg = "--" + a->second;
        if (arg.size() < 2 || arg[0] != '-') {
            positionals.push_back(arg);
            continue;
        }
        const std::size_t eq = arg.find('=');
        const std::string flag = arg.substr(0, eq);
        auto it = flag.rfind("--", 0) == 0 ? _entries.find(flag.substr(2))
                                           : _entries.end();
        if (it == _entries.end())
            fatal("unknown option '%s'", flag);
        if (eq != std::string::npos)
            it->second.value = arg.substr(eq + 1);
        else if (it->second.flag)
            it->second.value = "true";
        else if (i + 1 < argc)
            it->second.value = argv[++i];
        else
            fatal("option '%s' needs a value", flag);
    }
    return positionals;
}

bool
Params::has(const std::string &key) const
{
    return _entries.count(key) != 0;
}

const Params::Entry &
Params::entry(const std::string &key) const
{
    auto it = _entries.find(key);
    if (it == _entries.end())
        fatal("unknown parameter '%s'", key);
    return it->second;
}

std::string
Params::getString(const std::string &key) const
{
    return entry(key).value;
}

std::uint64_t
Params::parseUint(const std::string &what, const std::string &text,
                  std::uint64_t lo, std::uint64_t hi)
{
    const char *first = text.data();
    const char *last = first + text.size();
    int base = 10;
    if (text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X')) {
        first += 2;
        base = 16;
    }
    std::uint64_t v = 0;
    const auto [end, ec] = std::from_chars(first, last, v, base);
    // from_chars takes no sign for an unsigned type; junk after the
    // digits (a fraction, an exponent) leaves end short of last.
    if (first == last || end != last || ec == std::errc::invalid_argument)
        fatal("%s: '%s' is not a whole number (decimal digits or 0x hex)",
              what, text);
    if (ec == std::errc::result_out_of_range || v < lo || v > hi)
        fatal("%s: %s is out of range [%d, %d]", what, text, lo, hi);
    return v;
}

std::uint64_t
Params::getUint(const std::string &key, std::uint64_t lo,
                std::uint64_t hi) const
{
    return parseUint(key, entry(key).value, lo, hi);
}

double
Params::parseReal(const std::string &what, const std::string &text,
                  double lo, double hi)
{
    char *end = nullptr;
    const double out = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || std::isnan(out))
        fatal("%s: '%s' is not a number", what, text);
    if (out < lo || out > hi)
        fatal("%s: %s is out of range [%g, %g]", what, text, lo, hi);
    return out;
}

double
Params::getDouble(const std::string &key, double lo, double hi) const
{
    return parseReal(key, entry(key).value, lo, hi);
}

bool
Params::getBool(const std::string &key) const
{
    const std::string &v = entry(key).value;
    try {
        return parseBool(v);
    } catch (const std::invalid_argument &) {
        fatal("%s: '%s' is not a boolean (true or false)", key, v);
    }
}

std::string
Params::describe(const std::string &key) const
{
    const Entry &e = entry(key);
    return csprintf("%s=%s  # %s", key, e.value, e.desc);
}

std::string
Params::help() const
{
    std::string out;
    for (const std::string &key : _order) {
        const Entry &e = _entries.at(key);
        std::string spelling = "--" + key;
        for (const auto &[alias, target] : _aliases)
            if (target == key)
                spelling = alias + ", " + spelling;
        std::string desc = e.desc;
        if (!e.flag) {
            std::string metavar = key;
            for (char &c : metavar)
                c = c == '-' ? '_' : char(std::toupper((unsigned char)c));
            spelling += " " + metavar;
            if (!e.def.empty())
                desc += " (default " + e.def + ")";
        }
        // Every line of a description starts in column 26; a long
        // spelling gets a line of its own.
        const std::string indent = "\n" + std::string(26, ' ');
        std::string text = spelling.size() > 23 ? indent : " ";
        for (char c : desc)
            text += c == '\n' ? indent : std::string(1, c);
        out += csprintf("  %-23s%s\n", spelling, text);
    }
    return out;
}

} // namespace hscd
