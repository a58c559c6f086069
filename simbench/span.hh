/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * Spans are opened from the benchmark's own code around each call into a
 * simulator layer (HIR build, compile, stream record, Machine
 * construction, Machine::run), around each cell and around each pass.
 * They are kept in memory and written once, as Chrome trace-event JSON,
 * when the run ends. A null Tracer makes every SpanScope a no-op that
 * does not even read the clock, so untraced passes run the same calls
 * with nothing recorded.
 */

#ifndef SIMBENCH_SPAN_HH
#define SIMBENCH_SPAN_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace simbench {

/** One closed span; times are microseconds since the Tracer started. */
struct Span
{
    const char *name = "";    ///< static string (a layer boundary)
    double startUs = 0;
    double endUs = 0;
    std::uint32_t id = 0;     ///< unique, > 0
    std::uint32_t parent = 0; ///< enclosing span's id, 0 at the root
    std::uint32_t pass = 0;
    std::int32_t cell = -1;   ///< cell index within the pass, -1 outside
    std::uint32_t tid = 0;    ///< small per-thread number

    double durUs() const { return endUs - startUs; }
};

class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    double nowUs() const;

    /** Thread-safe: spans close on Sweep worker threads too. */
    void record(const Span &s);
    std::uint32_t nextId() { return ++_lastId; }

    /** Snapshot of every span recorded so far, in closing order. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path,
                         const std::string &provenanceJson) const;

  private:
    const std::chrono::steady_clock::time_point _origin;
    std::atomic<std::uint32_t> _lastId{0};
    mutable std::mutex _mtx;
    std::vector<Span> _spans; ///< guarded by _mtx
};

/**
 * RAII span. Its parent, pass and cell come from the innermost span open
 * on this thread (or from a ThreadContext); a cell scope also names the
 * cell for every span nested in it.
 */
class SpanScope
{
  public:
    SpanScope(Tracer *t, const char *name, std::int32_t cell = -1);
    ~SpanScope();

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** This span's id (0 when tracing is off). */
    std::uint32_t id() const { return _s.id; }

  private:
    Tracer *_t;
    Span _s;
    std::uint32_t _savedParent = 0;
    std::int32_t _savedCell = -1;
};

/**
 * Make spans opened on this thread children of @p parent in pass
 * @p pass (used by cells that run on Sweep worker threads).
 */
class ThreadContext
{
  public:
    ThreadContext(std::uint32_t parent, std::uint32_t pass);
    ~ThreadContext();

    ThreadContext(const ThreadContext &) = delete;
    ThreadContext &operator=(const ThreadContext &) = delete;

  private:
    std::uint32_t _savedParent, _savedPass;
    std::int32_t _savedCell;
};

/** Start the numbering of spans opened on this thread at pass @p pass. */
void setThreadPass(std::uint32_t pass);

/**
 * Self time of every span, summed by name, in microseconds: each span's
 * duration minus the part of its interval its children cover (children
 * may overlap when cells run concurrently, so the union is taken).
 */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans);

} // namespace simbench

#endif // SIMBENCH_SPAN_HH
