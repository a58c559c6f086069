/**
 * @file
 * Durable, admission-controlled campaign work queue.
 *
 * The queue is what makes the server crash-safe. Every campaign lives
 * in the state directory as up to three files keyed by its identity
 * hash:
 *
 *   <id>.req          the canonical submit request (written via
 *                     tmp-file + fsync + rename, so it is either whole
 *                     or absent - a kill -9 mid-write leaves a .tmp the
 *                     recovery scan ignores)
 *   <id>.journal      the CellJournal (serve/journal.hh): strict
 *                     identity header plus one flushed record per
 *                     completed cell (torn tail compacted, torn or
 *                     foreign header set aside)
 *   <id>.result.json  the final aggregate, atomically renamed into
 *                     place on completion
 *
 * The durability contract: the "accepted" response is sent only after
 * the .req file is durable, and a cell is counted done only after its
 * journal record is flushed. `kill -9` at *any* point therefore loses
 * at most in-flight cells, and recover() resumes the remainder; the
 * aggregate a resumed campaign renders is byte-identical to an
 * uninterrupted run's (RunResults travel bit-exactly through the
 * journal and cells are rendered in submission order).
 *
 * Admission control: a bounded number of queued cells and of resident
 * campaigns. Submissions past either bound are *shed* with a
 * structured 429-style response instead of growing memory - the
 * client's contract is to back off and resubmit (identity-keyed
 * dedup makes that idempotent).
 */

#ifndef HSCD_SERVE_QUEUE_HH
#define HSCD_SERVE_QUEUE_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/journal.hh"
#include "serve/protocol.hh"
#include "sim/result.hh"

namespace hscd {
namespace serve {

/** Admission bounds (0 = a sane built-in default, never unlimited). */
struct QueueLimits
{
    std::size_t maxQueuedCells = 100000; ///< backpressure threshold
    std::size_t maxCampaignCells = 50000; ///< per-submission cap
    std::size_t maxCampaigns = 256;      ///< resident campaign cap
};

/** Monotonic counters for /stats (all guarded by the queue mutex). */
struct QueueCounters
{
    std::uint64_t submitted = 0;   ///< campaigns accepted
    std::uint64_t dedup = 0;       ///< resubmissions of a known id
    std::uint64_t shed = 0;        ///< submissions refused (backpressure)
    std::uint64_t rejected = 0;    ///< malformed submissions (400-style)
    std::uint64_t cellsRun = 0;    ///< cells executed by this process
    std::uint64_t cellsRestored = 0; ///< cells restored from journals
    std::uint64_t cellErrors = 0;  ///< cells that ended in harness error
    std::uint64_t completed = 0;   ///< campaigns fully finished
    std::uint64_t deadlineExpired = 0; ///< cells skipped past deadline
};

class CampaignQueue
{
  public:
    /**
     * Executes one cell; supplied by the embedding tool so the queue
     * stays independent of the bench harness. Must be thread-safe and
     * deterministic; may throw (the error becomes the cell's
     * structured error field).
     */
    using CellFn = std::function<sim::RunResult(const CampaignSpec &,
                                                std::size_t cellIndex)>;

    CampaignQueue(std::string stateDir, QueueLimits limits, CellFn runCell,
                  unsigned workers);
    ~CampaignQueue();

    CampaignQueue(const CampaignQueue &) = delete;
    CampaignQueue &operator=(const CampaignQueue &) = delete;

    /**
     * Scan the state directory and re-admit every durable campaign
     * (journaled results restored, remaining cells re-queued). Returns
     * the number of campaigns recovered. Call before serving.
     */
    std::size_t recover();

    struct Admission
    {
        enum class Status
        {
            Accepted, ///< durable; id identifies the campaign
            Dedup,    ///< identical campaign already resident
            Shed,     ///< backpressure: retry later (429-style)
        };
        Status status = Status::Shed;
        std::uint64_t id = 0;
        std::string error;       ///< reason when shed
        std::size_t queuedCells = 0;
    };

    /** Admit (or refuse) a validated submission. Thread-safe. */
    Admission submit(const CampaignSpec &spec);

    struct Status
    {
        bool known = false;
        bool complete = false;
        std::size_t done = 0;
        std::size_t total = 0;
        std::size_t errors = 0;
        std::string resultPath; ///< non-empty once complete
    };

    /** Progress of campaign @p id. Thread-safe. */
    Status status(std::uint64_t id) const;

    /**
     * Stop the workers. With @p drain the current in-flight cells
     * finish (and are journaled) first; queued cells stay durable for
     * the next process. Idempotent.
     */
    void shutdown(bool drain);

    /** Queued (not yet started) cells across all campaigns. */
    std::size_t depth() const;

    /** Resident campaigns (queued, running, or completed). */
    std::size_t campaignCount() const;

    /**
     * Cells not yet journaled across all incomplete campaigns. After a
     * drain this is the "interrupted with checkpoint" count that maps
     * to verify::ExitAbort (4) instead of 0.
     */
    std::size_t unfinishedCells() const;

    /** Count a malformed submission (for /stats). */
    void noteRejected();

    /** Copy of the monotonic counters. */
    QueueCounters counters() const;

    /** True once shutdown() has been requested. */
    bool draining() const;

    const std::string &stateDir() const { return _stateDir; }

    /** Provenance jobs field / aggregate "jobs" value. */
    unsigned workers() const { return _workers; }

  private:
    struct Campaign
    {
        Campaign(CampaignSpec s, std::uint64_t i, std::string journalPath);

        CampaignSpec spec;
        std::uint64_t id = 0;
        /** Per-cell outcomes; a cell is done once its record is durable. */
        CellJournal journal;
        std::vector<char> started; ///< cell claimed by a worker
        std::size_t done = 0;
        bool complete = false;
        std::chrono::steady_clock::time_point admitted;
    };

    struct Work
    {
        std::shared_ptr<Campaign> campaign;
        std::size_t cell = 0;
    };

    std::string reqPath(std::uint64_t id) const;
    std::string journalPath(std::uint64_t id) const;
    std::string resultPath(std::uint64_t id) const;

    /**
     * Restore @p c's journaled cells (an invalid or foreign journal is
     * set aside and the campaign starts fresh) and open the journal
     * for append; false when it cannot be written.
     */
    bool restoreJournal(Campaign &c);
    /** Queue @p c's unstarted cells; finish it if none remain. */
    void schedule(const std::shared_ptr<Campaign> &c);
    void finishIfComplete(Campaign &c);
    void writeAggregate(Campaign &c);
    void workerLoop();

    std::string _stateDir;
    QueueLimits _limits;
    CellFn _runCell;
    unsigned _workers;

    mutable std::mutex _mu;
    std::condition_variable _cv;
    std::map<std::uint64_t, std::shared_ptr<Campaign>> _campaigns;
    std::deque<Work> _queue;
    std::size_t _inFlight = 0;
    bool _stopping = false;
    QueueCounters _counters;
    std::vector<std::thread> _threads;
};

} // namespace serve
} // namespace hscd

#endif // HSCD_SERVE_QUEUE_HH
