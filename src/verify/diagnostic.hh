/**
 * @file
 * Diagnostic engine for the coherence soundness verifier.
 *
 * Every lint pass reports findings through a DiagnosticEngine: a stable
 * diagnostic id (e.g. "HIR001"), a severity, a source location derived
 * from the HIR (procedure, reference id, rendered reference text), and a
 * human-readable message. The engine renders either plain text or JSON,
 * and computes the process exit status under an optional
 * warnings-are-errors policy.
 *
 * Severity contract:
 *  - Error:   a soundness or well-formedness violation; always fails.
 *  - Warning: suspicious but not provably wrong; fails under --werror.
 *  - Note:    informational (e.g. proven over-marking precision loss);
 *             never affects the exit status.
 */

#ifndef HSCD_VERIFY_DIAGNOSTIC_HH
#define HSCD_VERIFY_DIAGNOSTIC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/strutil.hh"
#include "hir/program.hh"

namespace hscd {
namespace verify {

/**
 * Process exit-code contract shared by every hscd binary (lint,
 * experiment sweeps, the R1 fault campaign). Each failure class gets
 * its own code so campaign drivers and CI can tell a usage typo from a
 * detected soundness violation from a structured run abort:
 *
 *   0  clean
 *   1  static diagnostics failed (lint errors, or warnings + --werror)
 *   2  command-line usage error
 *   3  runtime soundness violation (value-stamp oracle, shadow-epoch
 *      detector, or DOALL race) - the run produced wrong data and said so
 *   4  structured run abort (protocol retry exhaustion, watchdog,
 *      deadlock) - the run stopped itself before producing a result
 *   5  internal/harness error (uncaught exception, cell timeout)
 *
 * Codes 3 and 4 are the "detected failure" range: a nonzero count there
 * is a flagged result, never a silently wrong one.
 */
enum ExitCode : int
{
    ExitSuccess = 0,
    ExitDiagnostics = 1,
    ExitUsage = 2,
    ExitViolation = 3,
    ExitAbort = 4,
    ExitInternal = 5,
};

enum class Severity : std::uint8_t
{
    Note,
    Warning,
    Error,
};

const char *severityName(Severity s);

/**
 * Where a diagnostic points. The HIR has no file/line information, so a
 * location is the procedure name plus, when the finding is anchored to a
 * static memory reference, its RefId and a rendered "ARRAY(subs)" form.
 */
struct SourceLoc
{
    std::string proc;               ///< procedure name; "" = program scope
    hir::RefId ref = hir::invalidRef;
    std::string where;              ///< rendered site, e.g. "A(i+1)"

    /** Build the reference location for @p id from the program tables. */
    static SourceLoc ofRef(const hir::Program &prog, hir::RefId id);

    std::string str() const;
};

struct Diagnostic
{
    std::string id;      ///< stable catalog id, e.g. "ORACLE001"
    Severity severity = Severity::Warning;
    SourceLoc loc;
    std::string message;

    std::string str() const;
};

/**
 * Collects diagnostics from all passes over one program. Diagnostics are
 * kept in insertion order; passes themselves iterate the program
 * deterministically, so rendered output is byte-identical run to run.
 */
class DiagnosticEngine
{
  public:
    explicit DiagnosticEngine(std::string program_name = "")
        : _program(std::move(program_name))
    {}

    void report(const std::string &id, Severity sev, SourceLoc loc,
                const std::string &message);

    const std::vector<Diagnostic> &diagnostics() const { return _diags; }
    const std::string &programName() const { return _program; }

    std::size_t count(Severity s) const;
    std::size_t errors() const { return count(Severity::Error); }
    std::size_t warnings() const { return count(Severity::Warning); }
    std::size_t notes() const { return count(Severity::Note); }

    /** True when the run must fail: errors, or warnings under werror. */
    bool failed(bool werror) const
    {
        return errors() > 0 || (werror && warnings() > 0);
    }

    /** Process exit status per the ExitCode contract above. */
    int
    exitCode(bool werror) const
    {
        return failed(werror) ? ExitDiagnostics : ExitSuccess;
    }

    /** Human-readable listing, one diagnostic per line plus a summary. */
    std::string renderText() const;

    /**
     * One JSON object:
     * {"program":..., "counts":{"errors":n,"warnings":n,"notes":n},
     *  "diagnostics":[{"id":...,"severity":...,"proc":...,"ref":n,
     *                  "where":...,"message":...}, ...]}
     */
    std::string renderJson(int indent = 0) const;

  private:
    std::string _program;
    std::vector<Diagnostic> _diags;
};

using hscd::jsonEscape;

} // namespace verify
} // namespace hscd

#endif // HSCD_VERIFY_DIAGNOSTIC_HH
