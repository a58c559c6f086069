#include "common/strutil.hh"

#include <cctype>
#include <iomanip>
#include <stdexcept>

namespace hscd {
namespace detail {

void
applyFormat(std::ostream &os, const std::string &fmt, std::size_t &pos)
{
    // fmt[pos] == '%'. Parse flags, width, precision, and the conversion
    // character; translate into iostream manipulations.
    std::size_t p = pos + 1;
    bool left = false;
    bool zero = false;
    while (p < fmt.size() && (fmt[p] == '-' || fmt[p] == '0' ||
                              fmt[p] == '+' || fmt[p] == ' ')) {
        if (fmt[p] == '-')
            left = true;
        if (fmt[p] == '0')
            zero = true;
        if (fmt[p] == '+')
            os << std::showpos;
        ++p;
    }
    int width = 0;
    while (p < fmt.size() && std::isdigit(static_cast<unsigned char>(fmt[p])))
        width = width * 10 + (fmt[p++] - '0');
    int precision = -1;
    if (p < fmt.size() && fmt[p] == '.') {
        ++p;
        precision = 0;
        while (p < fmt.size() &&
               std::isdigit(static_cast<unsigned char>(fmt[p])))
            precision = precision * 10 + (fmt[p++] - '0');
    }
    // Skip C length modifiers; iostreams don't need them.
    while (p < fmt.size() && (fmt[p] == 'l' || fmt[p] == 'h' ||
                              fmt[p] == 'z' || fmt[p] == 'j'))
        ++p;

    char conv = p < fmt.size() ? fmt[p] : 's';
    ++p;

    if (width > 0)
        os << std::setw(width);
    if (left)
        os << std::left;
    if (zero && !left)
        os << std::setfill('0') << std::internal;

    switch (conv) {
      case 'x':
        os << std::hex;
        break;
      case 'X':
        os << std::hex << std::uppercase;
        break;
      case 'o':
        os << std::oct;
        break;
      case 'f':
        os << std::fixed
           << std::setprecision(precision >= 0 ? precision : 6);
        break;
      case 'e':
        os << std::scientific
           << std::setprecision(precision >= 0 ? precision : 6);
        break;
      case 'g':
        os << std::setprecision(precision >= 0 ? precision : 6);
        break;
      default:
        if (precision >= 0)
            os << std::setprecision(precision);
        break;
    }
    pos = p;
}

} // namespace detail

std::vector<std::string>
split(const std::string &s, char sep, bool keep_empty)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            if (keep_empty || !cur.empty())
                out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    if (keep_empty || !cur.empty())
        out.push_back(cur);
    return out;
}

std::string
trim(const std::string &s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
toLower(const std::string &s)
{
    std::string out(s);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::string
withCommas(std::uint64_t v)
{
    std::string digits = std::to_string(v);
    std::string out;
    int count = 0;
    for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
        if (count && count % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++count;
    }
    return {out.rbegin(), out.rend()};
}

bool
parseBool(const std::string &s)
{
    const std::string v = toLower(trim(s));
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    throw std::invalid_argument("parseBool: cannot parse '" + s + "'");
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", static_cast<int>(c));
            else
                out += c;
            break;
        }
    }
    return out;
}

} // namespace hscd
