#include "serve/queue.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/log.hh"
#include "common/strutil.hh"
#include "obs/provenance.hh"
#include "serve/journal.hh"

namespace fs = std::filesystem;

namespace hscd {
namespace serve {

namespace {

/**
 * Campaign journal magic. Distinct from the sweep checkpoint magic so a
 * sweep checkpoint dropped into the server state dir is refused as
 * foreign instead of silently merged.
 */
const char *const kServeJournalMagic = "hscd-serve-journal v1";

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return "";
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

} // namespace

CampaignQueue::CampaignQueue(std::string stateDir, QueueLimits limits,
                             CellFn runCell, unsigned workers)
    : _stateDir(std::move(stateDir)), _limits(limits),
      _runCell(std::move(runCell)),
      _workers(workers ? workers : 1)
{
    std::error_code ec;
    fs::create_directories(_stateDir, ec);
    if (ec)
        fatal("cannot create state directory '%s': %s", _stateDir,
              ec.message());
    _threads.reserve(_workers);
    for (unsigned i = 0; i < _workers; ++i)
        _threads.emplace_back([this] { workerLoop(); });
}

CampaignQueue::~CampaignQueue()
{
    shutdown(false);
}

std::string
CampaignQueue::reqPath(std::uint64_t id) const
{
    return _stateDir + "/" + csprintf("%016x", id) + ".req";
}

std::string
CampaignQueue::journalPath(std::uint64_t id) const
{
    return _stateDir + "/" + csprintf("%016x", id) + ".journal";
}

std::string
CampaignQueue::resultPath(std::uint64_t id) const
{
    return _stateDir + "/" + csprintf("%016x", id) + ".result.json";
}

CampaignQueue::Campaign::Campaign(CampaignSpec s, std::uint64_t i,
                                 std::string journalPath)
    : spec(std::move(s)), id(i),
      journal(std::move(journalPath), kServeJournalMagic, i,
              spec.cells.size()),
      started(spec.cells.size(), 0),
      admitted(std::chrono::steady_clock::now())
{
}

bool
CampaignQueue::restoreJournal(Campaign &c)
{
    // A journal whose header is not ours - torn, malformed, or another
    // campaign's - is set aside rather than guessed at, and the
    // campaign starts fresh.
    const CellJournal::State st = c.journal.restore();
    if (st == CellJournal::State::NotAJournal ||
        st == CellJournal::State::Foreign) {
        const bool foreign = st == CellJournal::State::Foreign;
        const std::string path = journalPath(c.id);
        Log::emit("serve",
                  foreign ? csprintf("journal %s is foreign (id %016x != "
                                     "%016x); set aside",
                                     path, c.journal.foundIdentity(), c.id)
                          : csprintf("discarding journal with invalid "
                                     "header: %s", path));
        std::error_code ec;
        fs::rename(path, path + (foreign ? ".foreign" : ".invalid"), ec);
    }
    c.done = c.journal.restored();
    return c.journal.open();
}

std::size_t
CampaignQueue::recover()
{
    std::vector<std::string> reqs;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(_stateDir, ec)) {
        const std::string name = entry.path().filename().string();
        if (name.size() == 16 + 4 && name.substr(16) == ".req")
            reqs.push_back(entry.path().string());
    }
    std::sort(reqs.begin(), reqs.end()); // deterministic recovery order

    std::size_t recovered = 0;
    for (const std::string &path : reqs) {
        const std::string text = readFile(path);
        JsonValue req;
        std::string error;
        CampaignSpec spec;
        if (!parseJson(text, req, error) ||
            !parseSubmit(req, spec, error)) {
            Log::emit("serve",
                      csprintf("skipping unreadable request %s: %s", path,
                               error));
            continue;
        }
        const std::uint64_t id = spec.identity();
        if (path != reqPath(id)) {
            Log::emit("serve",
                      csprintf("skipping request %s: identity %016x "
                               "mismatch",
                               path, id));
            continue;
        }

        auto c = std::make_shared<Campaign>(std::move(spec), id,
                                            journalPath(id));
        if (fs::exists(resultPath(id))) {
            // Finished in a previous life; resident only for
            // poll/dedup, nothing to re-run.
            c->complete = true;
            c->done = c->spec.cells.size();
        } else if (!restoreJournal(*c)) {
            fatal("cannot open journal '%s'", journalPath(id));
        }

        std::lock_guard<std::mutex> lock(_mu);
        if (_campaigns.count(id))
            continue;
        _counters.cellsRestored += c->done;
        _campaigns[id] = c;
        ++recovered;
        if (!c->complete)
            schedule(c);
    }
    _cv.notify_all();
    return recovered;
}

CampaignQueue::Admission
CampaignQueue::submit(const CampaignSpec &spec)
{
    Admission adm;
    adm.id = spec.identity();

    std::unique_lock<std::mutex> lock(_mu);
    if (_stopping) {
        adm.status = Admission::Status::Shed;
        adm.error = "server is draining";
        ++_counters.shed;
        return adm;
    }
    auto it = _campaigns.find(adm.id);
    if (it != _campaigns.end()) {
        adm.status = Admission::Status::Dedup;
        adm.queuedCells = _queue.size();
        ++_counters.dedup;
        return adm;
    }
    if (spec.cells.size() > _limits.maxCampaignCells) {
        adm.status = Admission::Status::Shed;
        adm.error = csprintf("campaign too large: %d cells (limit %d)",
                             spec.cells.size(), _limits.maxCampaignCells);
        ++_counters.shed;
        return adm;
    }
    if (_campaigns.size() >= _limits.maxCampaigns) {
        adm.status = Admission::Status::Shed;
        adm.error = csprintf("too many resident campaigns (limit %d)",
                             _limits.maxCampaigns);
        ++_counters.shed;
        return adm;
    }
    if (_queue.size() + spec.cells.size() > _limits.maxQueuedCells) {
        adm.status = Admission::Status::Shed;
        adm.error = csprintf(
            "queue full: %d queued + %d submitted > %d (retry later)",
            _queue.size(), spec.cells.size(), _limits.maxQueuedCells);
        ++_counters.shed;
        return adm;
    }

    // Admitted. Make the request durable *before* acknowledging: once
    // the caller sees Accepted, a kill -9 must not lose the campaign.
    lock.unlock();
    auto c = std::make_shared<Campaign>(spec, adm.id, journalPath(adm.id));
    if (!atomicWrite(reqPath(adm.id), spec.toRequestJson() + "\n")) {
        std::lock_guard<std::mutex> relock(_mu);
        adm.status = Admission::Status::Shed;
        adm.error = "cannot persist request (state dir unwritable)";
        ++_counters.shed;
        return adm;
    }
    // A journal may survive from an earlier acknowledged run of this
    // same campaign whose .req was lost; adopt its completed cells.
    if (!restoreJournal(*c)) {
        std::lock_guard<std::mutex> relock(_mu);
        adm.status = Admission::Status::Shed;
        adm.error = "cannot open journal (state dir unwritable)";
        ++_counters.shed;
        return adm;
    }

    lock.lock();
    if (_campaigns.count(adm.id)) {
        // Raced with a concurrent identical submission: defer to it.
        adm.status = Admission::Status::Dedup;
        ++_counters.dedup;
        return adm;
    }
    _campaigns[adm.id] = c;
    ++_counters.submitted;
    _counters.cellsRestored += c->done;
    adm.status = Admission::Status::Accepted;
    schedule(c);
    adm.queuedCells = _queue.size();
    _cv.notify_all();
    return adm;
}

void
CampaignQueue::schedule(const std::shared_ptr<Campaign> &c)
{
    // Caller holds _mu. Submission order: the queue preserves cell
    // order within a campaign so output ordering never depends on
    // which worker finishes first (aggregation is index-keyed anyway).
    for (std::size_t i = 0; i < c->spec.cells.size(); ++i) {
        if (!c->journal.has(i) && !c->started[i]) {
            c->started[i] = 1;
            _queue.push_back(Work{c, i});
        }
    }
    // Every cell journaled but the aggregate never renamed into place
    // (a crash after the last record): finish it now.
    finishIfComplete(*c);
}

CampaignQueue::Status
CampaignQueue::status(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(_mu);
    Status st;
    auto it = _campaigns.find(id);
    if (it == _campaigns.end())
        return st;
    const Campaign &c = *it->second;
    st.known = true;
    st.complete = c.complete;
    st.done = c.done;
    st.total = c.spec.cells.size();
    st.errors = c.journal.errors();
    if (c.complete)
        st.resultPath = resultPath(id);
    return st;
}

void
CampaignQueue::workerLoop()
{
    for (;;) {
        Work w;
        {
            std::unique_lock<std::mutex> lock(_mu);
            _cv.wait(lock, [this] { return _stopping || !_queue.empty(); });
            if (_stopping)
                return; // queued cells stay journal-durable
            w = _queue.front();
            _queue.pop_front();
            ++_inFlight;
        }

        const CampaignSpec &spec = w.campaign->spec;
        bool expired = false;
        if (spec.deadlineMs > 0) {
            const auto elapsed =
                std::chrono::steady_clock::now() - w.campaign->admitted;
            const double ms =
                std::chrono::duration<double, std::milli>(elapsed).count();
            expired = ms > spec.deadlineMs;
        }

        CellOutcome o;
        if (expired)
            o.error = csprintf("campaign deadline (%.0f ms) exceeded",
                               spec.deadlineMs);
        else
            o = guardedCall([&] { return _runCell(spec, w.cell); });
        // Durable before it counts: a kill -9 loses at most this cell.
        w.campaign->journal.append(w.cell, o);

        std::lock_guard<std::mutex> lock(_mu);
        --_inFlight;
        ++w.campaign->done;
        if (expired)
            ++_counters.deadlineExpired;
        else
            ++_counters.cellsRun;
        if (!o.error.empty())
            ++_counters.cellErrors;
        finishIfComplete(*w.campaign);
    }
}

void
CampaignQueue::finishIfComplete(Campaign &c)
{
    // Caller holds _mu.
    if (c.complete || c.done != c.spec.cells.size())
        return;
    writeAggregate(c);
    c.complete = true;
    ++_counters.completed;
}

void
CampaignQueue::writeAggregate(Campaign &c)
{
    // Deliberately timing-free: apart from provenance `jobs` (the one
    // field allowed to vary), the aggregate depends only on the
    // submission - which is what lets the chaos harness demand
    // byte-identical output across kill -9 interruptions.
    using obs::jsonEscape;
    obs::Provenance prov;
    prov.schema = "hscd-serve-campaign";
    prov.tool = "hscd_serve";
    prov.configHash = c.id;
    prov.faultSpec = c.spec.faultSpec.empty() ? "off" : c.spec.faultSpec;
    prov.jobs = _workers;

    std::ostringstream f;
    f << "{\n  \"provenance\": " << prov.json(2) << ",\n";
    f << "  \"campaign\": \"" << jsonEscape(c.spec.name) << "\",\n";
    f << "  \"id\": \"" << csprintf("%016x", c.id) << "\",\n";
    f << "  \"cells\": [\n";
    for (std::size_t i = 0; i < c.spec.cells.size(); ++i) {
        const CellSpec &cell = c.spec.cells[i];
        f << "    {\n";
        f << "      \"label\": \"" << jsonEscape(cell.label) << "\",\n";
        f << "      \"workload\": \"" << jsonEscape(cell.workload)
          << "\",\n";
        f << "      \"scheme\": \"" << jsonEscape(cell.scheme) << "\",\n";
        f << "      \"scale\": " << cell.scale << ",\n";
        f << "      \"affinity\": " << (cell.affinity ? "true" : "false")
          << ",\n";
        const CellOutcome &o = c.journal.outcome(i);
        writeResultCellJson(f, o.result, o.error);
        f << "\n    }" << (i + 1 < c.spec.cells.size() ? "," : "")
          << "\n";
    }
    f << "  ]\n}\n";
    if (!atomicWrite(resultPath(c.id), f.str()))
        fatal("cannot write campaign result '%s'", resultPath(c.id));
}

void
CampaignQueue::shutdown(bool drain)
{
    {
        std::lock_guard<std::mutex> lock(_mu);
        if (_stopping && _threads.empty())
            return;
        _stopping = true;
        if (!drain) {
            // Fast stop: even queued work already claimed by no worker
            // is abandoned (it stays durable in the journals).
            _queue.clear();
        }
    }
    _cv.notify_all();
    // join() waits for in-flight cells to finish and journal - that is
    // the "drain" guarantee; cells cannot be interrupted mid-run.
    for (std::thread &t : _threads)
        if (t.joinable())
            t.join();
    _threads.clear();
}

std::size_t
CampaignQueue::depth() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _queue.size();
}

std::size_t
CampaignQueue::campaignCount() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _campaigns.size();
}

std::size_t
CampaignQueue::unfinishedCells() const
{
    std::lock_guard<std::mutex> lock(_mu);
    std::size_t n = 0;
    for (const auto &kv : _campaigns)
        if (!kv.second->complete)
            n += kv.second->spec.cells.size() - kv.second->done;
    return n;
}

void
CampaignQueue::noteRejected()
{
    std::lock_guard<std::mutex> lock(_mu);
    ++_counters.rejected;
}

QueueCounters
CampaignQueue::counters() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _counters;
}

bool
CampaignQueue::draining() const
{
    std::lock_guard<std::mutex> lock(_mu);
    return _stopping;
}

} // namespace serve
} // namespace hscd
