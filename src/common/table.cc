#include "common/table.hh"

#include <algorithm>
#include <sstream>

#include "common/log.hh"
#include "common/strutil.hh"

namespace hscd {

TextTable &
TextTable::col(std::string header, Align align)
{
    _headers.push_back(std::move(header));
    _aligns.push_back(align);
    return *this;
}

TextTable &
TextTable::row()
{
    _rows.push_back({});
    return *this;
}

TextTable &
TextTable::cell(const std::string &text)
{
    hscd_assert(!_rows.empty(), "cell() before row()");
    hscd_assert(_rows.back().cells.size() < _headers.size(),
                "too many cells in row");
    _rows.back().cells.push_back(text);
    return *this;
}

TextTable &
TextTable::cell(const char *text)
{
    return cell(std::string(text));
}

TextTable &
TextTable::cell(double v, int precision)
{
    std::ostringstream os;
    os.setf(std::ios::fixed);
    os.precision(precision);
    os << v;
    return cell(os.str());
}

TextTable &
TextTable::cell(std::uint64_t v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::cell(std::int64_t v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::cell(int v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::cell(unsigned v)
{
    return cell(std::to_string(v));
}

TextTable &
TextTable::rule()
{
    _rows.push_back({});
    _rows.back().is_rule = true;
    return *this;
}

void
TextTable::print(std::ostream &os) const
{
    std::vector<std::size_t> widths(_headers.size());
    for (std::size_t c = 0; c < _headers.size(); ++c)
        widths[c] = _headers[c].size();
    for (const Row &r : _rows)
        for (std::size_t c = 0; c < r.cells.size(); ++c)
            widths[c] = std::max(widths[c], r.cells[c].size());

    auto hr = [&] {
        os << "+";
        for (std::size_t w : widths)
            os << std::string(w + 2, '-') << "+";
        os << "\n";
    };
    auto emit = [&](const std::vector<std::string> &cells) {
        os << "|";
        for (std::size_t c = 0; c < _headers.size(); ++c) {
            const std::string text = c < cells.size() ? cells[c] : "";
            const std::size_t pad = widths[c] - text.size();
            if (_aligns[c] == Align::Left)
                os << " " << text << std::string(pad, ' ') << " |";
            else
                os << " " << std::string(pad, ' ') << text << " |";
        }
        os << "\n";
    };

    hr();
    emit(_headers);
    hr();
    for (const Row &r : _rows) {
        if (!r.is_rule)
            emit(r.cells);
        else if (&r != &_rows.back())
            hr();
    }
    hr();
}

std::string
TextTable::str() const
{
    std::ostringstream os;
    print(os);
    return os.str();
}

} // namespace hscd
