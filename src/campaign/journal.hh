/**
 * @file
 * The campaign-cell core behind the sweep checkpoint
 * (`bench/sweep.cc --checkpoint/--resume`): one durable journal class,
 * the record codec behind it, and one exception guard around a cell.
 *
 * The format, under a caller-chosen magic that makes every other file
 * structurally "not a journal":
 *
 *   <magic> <16-hex-digit identity>\n        header, written first
 *   cell <idx> <error> <result tokens...>\n  one line per finished cell
 *
 * Records are whitespace-separated tokens, appended and flushed as each
 * cell finishes, so a `kill -9` can tear at most the final line. Every
 * RunResult field round-trips bit-exactly (doubles travel as IEEE bit
 * patterns), which is what lets a resumed run reproduce byte-identical
 * aggregate output without re-running finished work.
 *
 * Robustness contract:
 *  - A torn or corrupt *record* (the interrupted writer's tail) fails
 *    to decode, is dropped, and its cell is re-run. Before the journal
 *    is reopened for append it is compacted to its valid lines by
 *    tmp-file + rename, so a new record can never be glued onto a
 *    half-written line.
 *  - A torn or malformed *header* - including one truncated inside the
 *    identity hash - makes the whole file invalid: parseJournalHeader
 *    only accepts the exact magic followed by exactly 16 hex digits
 *    and nothing else. A truncated identity is therefore rejected as
 *    "not a journal", never misparsed as a shorter (foreign) identity.
 *  - A well-formed header with a different identity is foreign. What
 *    happens to a foreign or invalid file is the caller's policy.
 */

#ifndef HSCD_CAMPAIGN_JOURNAL_HH
#define HSCD_CAMPAIGN_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <functional>
#include <mutex>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "sim/result.hh"

namespace hscd {
namespace campaign {

/** Strict token reader: any malformed/missing token poisons the line. */
struct TokenReader
{
    explicit TokenReader(const std::string &line) : in(line) {}

    std::string tok();
    std::uint64_t u64(int base = 10);
    double f64();
    std::string str(); ///< an escaped token, unescaped
    /** True when every token so far parsed and nothing is left over. */
    bool atEnd();

    std::istringstream in;
    bool ok = true;
};

/** Append every RunResult field as journal tokens (leading spaces). */
void encodeResult(std::ostream &s, const sim::RunResult &r);

/**
 * Decode a RunResult previously written by encodeResult. Returns false
 * on any malformed token or implausible length prefix (torn tail).
 */
bool decodeResult(TokenReader &in, sim::RunResult &r);

/** Render the one-line journal header for @p magic and @p identity. */
std::string journalHeader(const std::string &magic, std::uint64_t identity);

/**
 * Strictly parse a journal header line. Accepts exactly
 * `<magic> <16 hex digits>` - no prefix, no suffix, no short identity.
 * Returns true and fills @p identity on success; false on anything
 * else, including a header torn mid-magic or mid-identity.
 */
bool parseJournalHeader(const std::string &line, const std::string &magic,
                        std::uint64_t &identity);

/**
 * Emit the per-cell result fields of the sweep JSON schema:
 * `"fingerprint"` through the conditional abort/error block, 6-space
 * indented, no trailing newline or comma (bench/sweep.cc's --json).
 */
void writeResultCellJson(std::ostream &f, const sim::RunResult &r,
                         const std::string &error);

/**
 * Write @p content to @p path via tmp-file + rename so the file is
 * either whole or absent after a crash. Returns false on I/O failure.
 */
bool atomicWrite(const std::string &path, const std::string &content);

/** One cell's outcome: its result, or the harness error that replaced it. */
struct CellOutcome
{
    sim::RunResult result;
    std::string error; ///< "" when the cell ran to an end
};

/**
 * Run @p fn, turning anything it throws into the outcome's error: the
 * exception's what(), "unhandled exception" for an empty what(), and
 * "unhandled non-standard exception" for a type not derived from
 * std::exception. Never throws.
 */
CellOutcome guardedCall(const std::function<sim::RunResult()> &fn);

/**
 * The durable journal of one campaign of @p cells cells, and the only
 * code that parses, compacts or appends journal records. restore() and
 * open() run before any append(); append() and the queries are
 * thread-safe.
 */
class CellJournal
{
  public:
    enum class State
    {
        Fresh,       ///< no file, or an empty one
        Resumed,     ///< our header; its whole records are restored
        NotAJournal, ///< the first line fails the strict header parse
        Foreign,     ///< a well-formed header with another identity
    };

    CellJournal(std::string path, std::string magic,
                std::uint64_t identity, std::size_t cells);

    /**
     * Read the file and restore its whole records. Torn, duplicate and
     * out-of-range records are dropped and the file is compacted to its
     * valid lines (fatal() if that fails), as it is when its last line
     * is unterminated. NotAJournal and Foreign restore nothing.
     */
    State restore();

    /**
     * Open the file for append; unless restore() returned Resumed it is
     * truncated and gets a header. False when it cannot be written.
     */
    bool open();

    /** Record cell @p cell and append its flushed record, once. */
    void append(std::size_t cell, const CellOutcome &o);

    bool has(std::size_t cell) const
    {
        std::lock_guard<std::mutex> lock(_mu);
        return _have[cell];
    }
    /** Outcome of a cell for which has() is true. */
    const CellOutcome &outcome(std::size_t cell) const
    {
        return _outcomes[cell];
    }
    /** Recorded cells whose outcome carries an error. */
    std::size_t errors() const;

    /** What restore() found: records kept and dropped, header identity. */
    std::size_t restored() const { return _restored; }
    std::size_t dropped() const { return _dropped; }
    std::uint64_t foundIdentity() const { return _found; }

  private:
    std::string _path;
    std::string _magic;
    std::uint64_t _identity;
    std::uint64_t _found = 0;
    State _state = State::Fresh;
    std::size_t _restored = 0;
    std::size_t _dropped = 0;

    mutable std::mutex _mu;
    std::ofstream _file;
    std::vector<CellOutcome> _outcomes;
    std::vector<char> _have;
};

} // namespace campaign
} // namespace hscd

#endif // HSCD_CAMPAIGN_JOURNAL_HH
