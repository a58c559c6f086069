/**
 * @file
 * Typed key/value parameter store, and the one command-line parser.
 *
 * Benches and examples describe machine configurations as "key=value"
 * strings, and every CLI declares its flags as keys; Params validates
 * keys against registered defaults so typos are fatal() instead of
 * silently ignored, and its reads check each value in full (a bad one is
 * fatal(), never a substituted number).
 */

#ifndef HSCD_COMMON_CONFIG_HH
#define HSCD_COMMON_CONFIG_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace hscd {

class Params
{
  public:
    Params() = default;

    /** Register a key with a default value (defines the schema). */
    Params &define(const std::string &key, const std::string &def,
                   const std::string &desc = "");

    /** Register a boolean key, default false: a bare `--key` sets it. */
    Params &defineFlag(const std::string &key, const std::string &desc);

    /** Accept @p spelling (e.g. "-j") on a command line for `--key`. */
    Params &alias(const std::string &spelling, const std::string &key);

    /** Set a key that must already be defined. */
    void set(const std::string &key, const std::string &value);

    /** Parse "k=v" (one assignment). */
    void parseAssignment(const std::string &kv);

    /** Parse many assignments, e.g. from argv[1..]. */
    void parseArgs(const std::vector<std::string> &args);

    /**
     * Parse a command line, argv[1..argc): `--key V`, `--key=V`, a bare
     * `--key` for a flag, and the aliases. Returns the other arguments
     * (the positionals) in order; an unknown option or a missing value
     * is fatal().
     */
    std::vector<std::string> parseCommandLine(int argc,
                                              const char *const *argv);

    bool has(const std::string &key) const;

    std::string getString(const std::string &key) const;
    /** A whole number in [lo, hi], written as parseUint() reads it. */
    std::uint64_t
    getUint(const std::string &key, std::uint64_t lo = 0,
            std::uint64_t hi = std::numeric_limits<std::uint64_t>::max())
        const;
    /** A real number in [lo, hi] (never NaN). */
    double
    getDouble(const std::string &key,
              double lo = -std::numeric_limits<double>::infinity(),
              double hi = std::numeric_limits<double>::infinity()) const;
    bool getBool(const std::string &key) const;

    /**
     * @p text as a whole number in [lo, hi]: decimal digits (a leading
     * zero stays decimal) or 0x hex. A sign, a fraction, trailing junk,
     * overflow or a value out of range is fatal(), naming @p what.
     */
    static std::uint64_t
    parseUint(const std::string &what, const std::string &text,
              std::uint64_t lo = 0,
              std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());
    /** @p text as a real number in [lo, hi] (never NaN), as strtod
     *  reads it; anything else is fatal(), naming @p what. */
    static double parseReal(const std::string &what, const std::string &text,
                            double lo, double hi);

    /** All keys in definition order (for help text). */
    const std::vector<std::string> &keys() const { return _order; }
    std::string describe(const std::string &key) const;

    /** The command-line option listing: one entry per key, in order. */
    std::string help() const;

  private:
    struct Entry
    {
        std::string value;
        std::string def;
        std::string desc;
        bool flag = false;
    };

    const Entry &entry(const std::string &key) const;

    std::map<std::string, Entry> _entries;
    std::vector<std::string> _order;
    std::map<std::string, std::string> _aliases; ///< spelling -> key
};

} // namespace hscd

#endif // HSCD_COMMON_CONFIG_HH
