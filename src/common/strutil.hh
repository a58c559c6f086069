/**
 * @file
 * String formatting and parsing helpers.
 *
 * csprintf() is a type-safe printf-alike built on iostreams, in the spirit
 * of gem5's base/cprintf; only the conversions the simulator needs are
 * supported (%d %u %s %f %g %x %c %%, with width/precision/fill).
 */

#ifndef HSCD_COMMON_STRUTIL_HH
#define HSCD_COMMON_STRUTIL_HH

#include <sstream>
#include <string>
#include <vector>

namespace hscd {

namespace detail {

/** Apply one % conversion spec (already located) to the stream. */
void applyFormat(std::ostream &os, const std::string &fmt, std::size_t &pos);

inline void
csprintfRec(std::ostream &os, const std::string &fmt, std::size_t pos)
{
    // No arguments left: emit the remainder, turning %% into %.
    while (pos < fmt.size()) {
        if (fmt[pos] == '%' && pos + 1 < fmt.size() && fmt[pos + 1] == '%') {
            os << '%';
            pos += 2;
        } else {
            os << fmt[pos++];
        }
    }
}

template <typename T, typename... Args>
void
csprintfRec(std::ostream &os, const std::string &fmt, std::size_t pos,
            const T &val, const Args &...rest)
{
    while (pos < fmt.size()) {
        if (fmt[pos] != '%') {
            os << fmt[pos++];
            continue;
        }
        if (pos + 1 < fmt.size() && fmt[pos + 1] == '%') {
            os << '%';
            pos += 2;
            continue;
        }
        applyFormat(os, fmt, pos);
        os << val;
        // Restore default stream state for subsequent conversions.
        os.copyfmt(std::ios(nullptr));
        csprintfRec(os, fmt, pos, rest...);
        return;
    }
}

} // namespace detail

/** Type-safe printf returning a std::string. */
template <typename... Args>
std::string
csprintf(const std::string &fmt, const Args &...args)
{
    std::ostringstream os;
    detail::csprintfRec(os, fmt, 0, args...);
    return os.str();
}

/** Split @p s on @p sep, dropping empty fields if @p keep_empty is false. */
std::vector<std::string> split(const std::string &s, char sep,
                               bool keep_empty = false);

/** Strip leading/trailing whitespace. */
std::string trim(const std::string &s);

/** Lower-case ASCII copy. */
std::string toLower(const std::string &s);

/** Render a count with thousands separators, e.g. 1234567 -> "1,234,567". */
std::string withCommas(std::uint64_t v);

/**
 * Escape @p s for embedding in a JSON string literal (no quotes added):
 * '"', '\\', '\n', '\t' and '\r' get their short escapes, other
 * control characters \u00XX.
 */
std::string jsonEscape(const std::string &s);

/** Parse a boolean ("1/0/true/false/yes/no/on/off"); throws on junk. */
bool parseBool(const std::string &s);

} // namespace hscd

#endif // HSCD_COMMON_STRUTIL_HH
