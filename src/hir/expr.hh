/**
 * @file
 * Affine integer expressions for array subscripts and loop bounds.
 *
 * An IntExpr is kept in affine normal form: konst + sum(coeff_i * var_i),
 * where variables are loop indices or program parameters. Expressions the
 * compiler cannot analyze (the paper's X(f(i)) case) carry an "unknown"
 * term: they still evaluate deterministically at run time (a hash of the
 * unknown id and the live variable bindings), but the compiler must treat
 * their value as unconstrained.
 */

#ifndef HSCD_HIR_EXPR_HH
#define HSCD_HIR_EXPR_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace hscd {
namespace hir {

/** Env::mixHash(seed): mixEnd(seed, sum of mixBinding(nameHash, value)). */
std::uint64_t nameHash(const std::string &name);
std::uint64_t mixEnd(std::uint64_t seed, std::uint64_t sum);

inline std::uint64_t
mixBinding(std::uint64_t name_hash, std::int64_t value)
{
    return (name_hash ^ (static_cast<std::uint64_t>(value) +
                         0x9e3779b97f4a7c15ULL + (name_hash << 6) +
                         (name_hash >> 2))) *
           0xff51afd7ed558ccdULL;
}

/** Variable environment used when evaluating expressions. */
class Env
{
  public:
    void
    bind(const std::string &name, std::int64_t value)
    {
        for (auto &kv : _vars) {
            if (kv.first == name) {
                kv.second = value;
                return;
            }
        }
        _vars.emplace_back(name, value);
    }

    /** Remove the innermost binding of @p name. */
    void
    unbind(const std::string &name)
    {
        for (auto it = _vars.rbegin(); it != _vars.rend(); ++it) {
            if (it->first == name) {
                _vars.erase(std::next(it).base());
                return;
            }
        }
    }

    std::optional<std::int64_t>
    lookup(const std::string &name) const
    {
        for (auto it = _vars.rbegin(); it != _vars.rend(); ++it)
            if (it->first == name)
                return it->second;
        return std::nullopt;
    }

    const std::vector<std::pair<std::string, std::int64_t>> &
    vars() const
    {
        return _vars;
    }

    /** Order-insensitive hash of the current bindings. */
    std::uint64_t mixHash(std::uint64_t seed) const;

  private:
    std::vector<std::pair<std::string, std::int64_t>> _vars;
};

/** Inclusive integer interval; used by compile-time range analysis. */
struct Range
{
    std::int64_t lo = 0;
    std::int64_t hi = 0;

    bool contains(std::int64_t v) const { return v >= lo && v <= hi; }
    bool operator==(const Range &o) const = default;
};

class IntExpr
{
  public:
    /** Zero. */
    IntExpr() = default;

    /** Implicit from integer literals: loop bounds like doall("i",0,N-1). */
    IntExpr(std::int64_t c) : _konst(c) {}
    IntExpr(int c) : _konst(c) {}

    static IntExpr constant(std::int64_t c);
    static IntExpr var(const std::string &name);
    /** A compile-time-unanalyzable value, e.g. an index array access. */
    static IntExpr unknown(std::uint32_t id);

    IntExpr operator+(const IntExpr &o) const;
    IntExpr operator-(const IntExpr &o) const;
    IntExpr operator*(std::int64_t k) const;
    IntExpr operator+(std::int64_t k) const;
    IntExpr operator-(std::int64_t k) const;

    bool isConstant() const { return _coeffs.empty() && !_unknown; }
    bool hasUnknown() const { return _unknown; }
    std::int64_t constantValue() const { return _konst; }
    std::uint32_t unknownId() const { return _unknownId; }

    /** Coefficient of @p var (0 if absent). */
    std::int64_t coeff(const std::string &var) const;

    /** All variables with nonzero coefficient, sorted. */
    std::vector<std::string> variables() const;

    /** Structural equality of affine forms (unknowns compare by id). */
    bool operator==(const IntExpr &o) const;

    /**
     * Difference known at compile time: this - o as a constant, when both
     * are affine with identical coefficients and no unknowns.
     */
    std::optional<std::int64_t> constantDifference(const IntExpr &o) const;

    /**
     * Evaluate under @p env. Every variable must be bound; unknown terms
     * hash (id, bindings) into [0, unknown_modulus) and add the result.
     */
    std::int64_t eval(const Env &env, std::int64_t unknown_modulus = 0)
        const;

    /**
     * Compile-time value range given variable ranges; nullopt when the
     * expression has unknowns or an unbound variable.
     */
    std::optional<Range>
    range(const std::map<std::string, Range> &var_ranges) const;

    /** Substitute a constant for @p var. */
    IntExpr substitute(const std::string &var, std::int64_t value) const;

    /** Render, e.g. "2*i + j - 1" or "f17(i)". */
    std::string str() const;

  private:
    // Sorted by variable name; no zero coefficients stored.
    std::vector<std::pair<std::string, std::int64_t>> _coeffs;
    std::int64_t _konst = 0;
    bool _unknown = false;
    std::uint32_t _unknownId = 0;

    void addTerm(const std::string &var, std::int64_t coeff);
};

} // namespace hir
} // namespace hscd

#endif // HSCD_HIR_EXPR_HH
