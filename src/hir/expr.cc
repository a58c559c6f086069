#include "hir/expr.hh"

#include <algorithm>

#include "common/log.hh"
#include "common/strutil.hh"

namespace hscd {
namespace hir {

std::uint64_t
nameHash(const std::string &name)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (char c : name)
        h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    return h;
}

std::uint64_t
mixEnd(std::uint64_t seed, std::uint64_t sum)
{
    std::uint64_t acc = seed * 0x9e3779b97f4a7c15ULL + sum;
    acc ^= acc >> 33;
    acc *= 0xc4ceb9fe1a85ec53ULL;
    return acc ^ (acc >> 33);
}

std::uint64_t
Env::mixHash(std::uint64_t seed) const
{
    // Order-insensitive: combine per-binding hashes commutatively so the
    // result doesn't depend on binding insertion order.
    std::uint64_t sum = 0;
    for (const auto &[name, value] : _vars)
        sum += mixBinding(nameHash(name), value);
    return mixEnd(seed, sum);
}

IntExpr
IntExpr::constant(std::int64_t c)
{
    IntExpr e;
    e._konst = c;
    return e;
}

IntExpr
IntExpr::var(const std::string &name)
{
    IntExpr e;
    e._coeffs.emplace_back(name, 1);
    return e;
}

IntExpr
IntExpr::unknown(std::uint32_t id)
{
    IntExpr e;
    e._unknown = true;
    e._unknownId = id;
    return e;
}

void
IntExpr::addTerm(const std::string &var, std::int64_t coeff)
{
    auto it = std::lower_bound(
        _coeffs.begin(), _coeffs.end(), var,
        [](const auto &kv, const std::string &v) { return kv.first < v; });
    if (it != _coeffs.end() && it->first == var) {
        it->second += coeff;
        if (it->second == 0)
            _coeffs.erase(it);
    } else if (coeff != 0) {
        _coeffs.insert(it, {var, coeff});
    }
}

IntExpr
IntExpr::operator+(const IntExpr &o) const
{
    IntExpr out = *this;
    out._konst += o._konst;
    for (const auto &[v, c] : o._coeffs)
        out.addTerm(v, c);
    if (o._unknown) {
        hscd_assert(!out._unknown || out._unknownId == o._unknownId,
                    "cannot combine two distinct unknowns");
        out._unknown = true;
        out._unknownId = o._unknownId;
    }
    return out;
}

IntExpr
IntExpr::operator-(const IntExpr &o) const
{
    hscd_assert(!o._unknown, "cannot subtract an unknown expression");
    IntExpr out = *this;
    out._konst -= o._konst;
    for (const auto &[v, c] : o._coeffs)
        out.addTerm(v, -c);
    return out;
}

IntExpr
IntExpr::operator*(std::int64_t k) const
{
    hscd_assert(!_unknown || k == 1 || k == 0,
                "cannot scale an unknown expression");
    IntExpr out;
    if (k == 0)
        return out;
    out._konst = _konst * k;
    for (const auto &[v, c] : _coeffs)
        out._coeffs.emplace_back(v, c * k);
    out._unknown = _unknown;
    out._unknownId = _unknownId;
    return out;
}

IntExpr
IntExpr::operator+(std::int64_t k) const
{
    IntExpr out = *this;
    out._konst += k;
    return out;
}

IntExpr
IntExpr::operator-(std::int64_t k) const
{
    IntExpr out = *this;
    out._konst -= k;
    return out;
}

std::int64_t
IntExpr::coeff(const std::string &var) const
{
    for (const auto &[v, c] : _coeffs)
        if (v == var)
            return c;
    return 0;
}

std::vector<std::string>
IntExpr::variables() const
{
    std::vector<std::string> out;
    out.reserve(_coeffs.size());
    for (const auto &[v, c] : _coeffs) {
        (void)c;
        out.push_back(v);
    }
    return out;
}

bool
IntExpr::operator==(const IntExpr &o) const
{
    return _konst == o._konst && _coeffs == o._coeffs &&
           _unknown == o._unknown &&
           (!_unknown || _unknownId == o._unknownId);
}

std::optional<std::int64_t>
IntExpr::constantDifference(const IntExpr &o) const
{
    if (_unknown || o._unknown)
        return std::nullopt;
    if (_coeffs != o._coeffs)
        return std::nullopt;
    return _konst - o._konst;
}

std::int64_t
IntExpr::eval(const Env &env, std::int64_t unknown_modulus) const
{
    std::int64_t acc = _konst;
    for (const auto &[v, c] : _coeffs) {
        auto val = env.lookup(v);
        if (!val)
            panic("IntExpr::eval: unbound variable '%s' in %s", v, str());
        acc += c * *val;
    }
    if (_unknown) {
        std::uint64_t h = env.mixHash(_unknownId + 0x51ed270b);
        if (unknown_modulus > 0)
            acc += static_cast<std::int64_t>(
                h % static_cast<std::uint64_t>(unknown_modulus));
        else
            acc += static_cast<std::int64_t>(h & 0xffff);
    }
    return acc;
}

std::optional<Range>
IntExpr::range(const std::map<std::string, Range> &var_ranges) const
{
    if (_unknown)
        return std::nullopt;
    Range r{_konst, _konst};
    for (const auto &[v, c] : _coeffs) {
        auto it = var_ranges.find(v);
        if (it == var_ranges.end())
            return std::nullopt;
        const Range &vr = it->second;
        if (c >= 0) {
            r.lo += c * vr.lo;
            r.hi += c * vr.hi;
        } else {
            r.lo += c * vr.hi;
            r.hi += c * vr.lo;
        }
    }
    return r;
}

IntExpr
IntExpr::substitute(const std::string &var, std::int64_t value) const
{
    IntExpr out = *this;
    for (auto it = out._coeffs.begin(); it != out._coeffs.end(); ++it) {
        if (it->first == var) {
            out._konst += it->second * value;
            out._coeffs.erase(it);
            break;
        }
    }
    return out;
}

std::string
IntExpr::str() const
{
    std::string out;
    for (const auto &[v, c] : _coeffs) {
        if (!out.empty())
            out += c >= 0 ? " + " : " - ";
        else if (c < 0)
            out += "-";
        std::int64_t mag = c < 0 ? -c : c;
        if (mag != 1)
            out += std::to_string(mag) + "*";
        out += v;
    }
    if (_unknown) {
        if (!out.empty())
            out += " + ";
        out += csprintf("f%d(.)", _unknownId);
    }
    if (_konst != 0 || out.empty()) {
        if (!out.empty())
            out += _konst >= 0 ? " + " : " - ";
        else if (_konst < 0)
            out += "-";
        out += std::to_string(_konst < 0 ? -_konst : _konst);
    }
    return out;
}

} // namespace hir
} // namespace hscd
