/**
 * @file
 * Whole-program container: global arrays, procedures, reference table,
 * and the shared-address-space layout.
 */

#ifndef HSCD_HIR_PROGRAM_HH
#define HSCD_HIR_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/types.hh"
#include "hir/stmt.hh"

namespace hscd {
namespace hir {

/** Bytes per simulated machine word (the paper uses 32-bit words). */
constexpr Addr wordBytes = 4;

/** A global (shared) array. Elements are one word each, column-major. */
struct ArrayDecl
{
    std::string name;
    std::vector<std::int64_t> dims;  ///< extent per dimension, 0-based idx
    Addr base = 0;                   ///< assigned by Program::layout()

    std::int64_t
    elements() const
    {
        std::int64_t n = 1;
        for (std::int64_t d : dims)
            n *= d;
        return n;
    }

    Addr sizeBytes() const { return Addr(elements()) * wordBytes; }

    /**
     * Address of the element at concrete 0-based subscripts
     * (column-major). Panics when a subscript is out of range.
     */
    Addr elementAddr(const std::vector<std::int64_t> &idx) const;
};

/** A procedure: a name plus a structured statement body. */
struct Procedure
{
    std::string name;
    StmtList body;
};

/** Location info for each static reference site (for diagnostics). */
struct RefInfo
{
    const ArrayRefStmt *stmt = nullptr;
    ProcIndex proc = 0;
};

/**
 * A whole program. Built via ProgramBuilder; immutable afterwards.
 */
class Program
{
  public:
    Program() = default;

    Program(const Program &) = delete;
    Program &operator=(const Program &) = delete;
    Program(Program &&) = default;
    Program &operator=(Program &&) = default;

    const std::vector<ArrayDecl> &arrays() const { return _arrays; }
    const std::vector<Procedure> &procedures() const { return _procs; }
    const Procedure &main() const { return _procs.at(_mainIndex); }
    ProcIndex mainIndex() const { return _mainIndex; }

    const ArrayDecl &array(ArrayId id) const { return _arrays.at(id); }
    ArrayId findArray(const std::string &name) const;
    ProcIndex findProcedure(const std::string &name) const;

    std::uint32_t refCount() const { return _refCount; }
    const RefInfo &refInfo(RefId id) const { return _refs.at(id); }

    /** Program-level constant bindings (problem sizes etc.). */
    const Env &params() const { return _params; }

    /**
     * Declared compile-time range of a parameter (defaults to its bound
     * value). Symbolic compilation analyzes against these ranges so one
     * marking serves every problem size in range.
     */
    Range paramRange(const std::string &name) const;

    /** Total bytes of shared data. */
    Addr dataBytes() const { return _dataBytes; }

    /** Word index within the shared space (addr / wordBytes). */
    static std::uint64_t wordOf(Addr a) { return a / wordBytes; }

    /** Reverse-map an address to "ARRAY(i,j)" for diagnostics. */
    std::string describeAddr(Addr a) const;

  private:
    friend class ProgramBuilder;

    /** Assign base addresses; called once by the builder. */
    void layout(Addr align);

    std::vector<ArrayDecl> _arrays;
    std::vector<Procedure> _procs;
    ProcIndex _mainIndex = 0;
    std::vector<RefInfo> _refs;
    std::uint32_t _refCount = 0;
    Env _params;
    std::map<std::string, Range> _paramRanges;
    Addr _dataBytes = 0;
};

} // namespace hir
} // namespace hscd

#endif // HSCD_HIR_PROGRAM_HH
