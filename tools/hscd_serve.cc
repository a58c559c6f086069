/**
 * @file
 * hscd_serve: the resident campaign server.
 *
 * Keeps the compile and stream caches warm across sweep submissions so
 * a fleet of short-lived clients (CI jobs, notebooks, the chaos
 * harness) shares one simulator process instead of each paying the
 * compile cost. Clients speak line-delimited JSON over an AF_UNIX
 * socket (default `<state-dir>/sock`) or loopback TCP; the grammar
 * lives in src/serve/protocol.hh and DESIGN.md section 15.
 *
 *   hscd_serve --state-dir /tmp/hscd                # unix socket
 *   hscd_serve --state-dir /tmp/hscd --tcp --port 0 # loopback TCP
 *   curl --unix-socket /tmp/hscd/sock http://x/stats
 *
 * Crash safety: every accepted campaign is durable in the state
 * directory before the "accepted" response is sent, and every finished
 * cell is journaled before it counts. `kill -9` at any point loses at
 * most in-flight cells; the next start recovers the rest and the final
 * aggregate is byte-identical to an uninterrupted run's (the chaos
 * harness `hscd_faultcheck --server` asserts exactly this).
 *
 * Exit codes follow the verify::ExitCode contract:
 *   0  graceful drain, no journaled work left behind
 *   2  usage error (bad flags, cannot bind)
 *   4  interrupted with checkpoint: SIGTERM/SIGINT drained in-flight
 *      cells but durable queued work remains for the next start
 *   5  internal harness error
 */

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/log.hh"
#include "common/strutil.hh"
#include "harness.hh"
#include "serve/server.hh"
#include "sim/stream.hh"
#include "verify/diagnostic.hh"
#include "workloads/trace.hh"
#include "workloads/workloads.hh"

namespace {

using namespace hscd;

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "\n"
        "Resident campaign server: accepts batched sweep submissions\n"
        "over line-delimited JSON, executes them on a durable work\n"
        "queue, and writes one aggregate JSON per campaign into the\n"
        "state directory. Crash-safe: kill -9 loses at most in-flight\n"
        "cells; restart with the same --state-dir resumes the rest.\n"
        "\n"
        "Options:\n"
        "  --state-dir DIR   durable queue + socket + results\n"
        "                    (default serve-state)\n"
        "  --socket PATH     AF_UNIX socket path\n"
        "                    (default <state-dir>/sock)\n"
        "  --tcp             listen on loopback TCP instead\n"
        "  --port N          TCP port (default 0 = ephemeral, printed)\n"
        "  --jobs N          simulation worker threads (default 1)\n"
        "  --max-queued-cells N    backpressure threshold: submissions\n"
        "                          past this are shed (default 100000)\n"
        "  --max-campaign-cells N  per-submission cell cap\n"
        "                          (default 50000)\n"
        "  --max-campaigns N       resident campaign cap (default 256)\n"
        "  --max-connections N     concurrent client cap (default 32)\n"
        "  --compile-cache N       compiled-program LRU budget\n"
        "                          (default 64 entries)\n"
        "  --help            this text\n",
        argv0);
}

serve::ServerOptions
parseArgs(int argc, char **argv, std::size_t &compileBudget)
{
    serve::ServerOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s requires an argument\n",
                             argv[0], flag);
                std::exit(verify::ExitUsage);
            }
            return argv[++i];
        };
        auto number = [&](const char *flag) {
            const std::string v = value(flag);
            char *end = nullptr;
            double d = std::strtod(v.c_str(), &end);
            if (end == v.c_str() || *end != '\0' || d < 0) {
                std::fprintf(stderr, "%s: bad %s value '%s'\n", argv[0],
                             flag, v.c_str());
                std::exit(verify::ExitUsage);
            }
            return d;
        };
        if (a == "--help" || a == "-h") {
            usage(argv[0]);
            std::exit(verify::ExitSuccess);
        } else if (a == "--state-dir") {
            opt.stateDir = value("--state-dir");
        } else if (a == "--socket") {
            opt.socketPath = value("--socket");
        } else if (a == "--tcp") {
            opt.useTcp = true;
        } else if (a == "--port") {
            opt.tcpPort = static_cast<std::uint16_t>(number("--port"));
        } else if (a == "--jobs") {
            opt.workers = static_cast<unsigned>(number("--jobs"));
        } else if (a == "--max-queued-cells") {
            opt.limits.maxQueuedCells =
                static_cast<std::size_t>(number("--max-queued-cells"));
        } else if (a == "--max-campaign-cells") {
            opt.limits.maxCampaignCells =
                static_cast<std::size_t>(number("--max-campaign-cells"));
        } else if (a == "--max-campaigns") {
            opt.limits.maxCampaigns =
                static_cast<std::size_t>(number("--max-campaigns"));
        } else if (a == "--max-connections") {
            opt.maxConnections =
                static_cast<std::size_t>(number("--max-connections"));
        } else if (a == "--compile-cache") {
            compileBudget =
                static_cast<std::size_t>(number("--compile-cache"));
        } else {
            std::fprintf(stderr, "%s: unknown option '%s'\n", argv[0],
                         a.c_str());
            usage(argv[0]);
            std::exit(verify::ExitUsage);
        }
    }
    if (opt.stateDir.empty()) {
        std::fprintf(stderr, "%s: --state-dir must not be empty\n",
                     argv[0]);
        std::exit(verify::ExitUsage);
    }
    return opt;
}

/**
 * Trace workloads are file-backed; load each spec once and share it
 * across cells and campaigns (compiled benchmarks and synth programs
 * already go through the LRU'd compiledBenchmark cache).
 */
class TraceCache
{
  public:
    const workloads::TraceWorkload &get(const std::string &spec)
    {
        std::lock_guard<std::mutex> lk(_mu);
        auto it = _traces.find(spec);
        if (it == _traces.end())
            it = _traces.emplace(spec, workloads::loadTraceSpec(spec))
                     .first;
        return it->second;
    }

  private:
    std::mutex _mu;
    std::map<std::string, workloads::TraceWorkload> _traces;
};

/** Run one cell with no budget: dispatch on the workload spec. */
sim::RunResult
runCellDirect(TraceCache &traces, const serve::CampaignSpec &spec,
              std::size_t i)
{
    const serve::CellSpec &c = spec.cells[i];
    const MachineConfig cfg = spec.cellConfig(i);
    if (workloads::isTraceSpec(c.workload))
        return workloads::runTrace(traces.get(c.workload), cfg);
    // Benchmark names and synth:<family>:<seed> specs both go through
    // the compiled-program cache (buildBenchmark accepts either).
    return bench::runBenchmark(c.workload, cfg, c.scale, c.affinity);
}

/**
 * The CellFn handed to the queue: runCellDirect under the campaign's
 * per-cell timeout. Same watchdog shape as the sweep engine: the cell
 * runs on its own thread and is abandoned (detached) past the budget;
 * a timeout becomes a structured cell error via FatalError.
 */
sim::RunResult
runCellGuarded(TraceCache &traces, const serve::CampaignSpec &spec,
               std::size_t i)
{
    if (spec.timeoutMs <= 0)
        return runCellDirect(traces, spec, i);

    struct Shared
    {
        std::mutex m;
        std::condition_variable cv;
        bool done = false;
        sim::RunResult result;
        std::string error;
    };
    auto sh = std::make_shared<Shared>();
    std::thread worker([sh, &traces, spec, i] {
        sim::RunResult r;
        std::string err;
        try {
            r = runCellDirect(traces, spec, i);
        } catch (const std::exception &e) {
            err = e.what();
            if (err.empty())
                err = "unhandled exception";
        } catch (...) {
            err = "unhandled non-standard exception";
        }
        {
            std::lock_guard<std::mutex> lk(sh->m);
            sh->result = std::move(r);
            sh->error = std::move(err);
            sh->done = true;
        }
        sh->cv.notify_all();
    });

    std::unique_lock<std::mutex> lk(sh->m);
    const bool finished = sh->cv.wait_for(
        lk, std::chrono::duration<double, std::milli>(spec.timeoutMs),
        [&] { return sh->done; });
    if (finished) {
        lk.unlock();
        worker.join();
        if (!sh->error.empty())
            throw FatalError(sh->error);
        return sh->result;
    }
    lk.unlock();
    worker.detach();
    fatal("timeout: cell still running after %.0f ms", spec.timeoutMs);
}

/** The `"caches": {...}` fragment appended to /stats. */
std::string
cacheStatsFragment()
{
    const bench::CompiledCacheStats cc = bench::compiledCacheStats();
    const sim::StreamCacheStats sc = sim::streamCacheStats();
    return csprintf(
        "\"caches\": {\"compile\": {\"hits\": %d, \"builds\": %d, "
        "\"evictions\": %d, \"resident\": %d, \"budget\": %d}, "
        "\"stream\": {\"hits\": %d, \"builds\": %d}}",
        int(cc.hits), int(cc.builds), int(cc.evictions), int(cc.resident),
        int(cc.budget), int(sc.hits), int(sc.builds));
}

serve::Server *g_server = nullptr;
volatile std::sig_atomic_t g_signalled = 0;

extern "C" void
serveSignalHandler(int)
{
    // First signal: graceful drain (requestStop is async-signal-safe).
    // Second: the drain itself is stuck - abandon ship. The durable
    // queue makes this safe; it is exactly the kill -9 path.
    if (g_signalled)
        std::_Exit(verify::ExitAbort);
    g_signalled = 1;
    if (g_server)
        g_server->requestStop(/*drain=*/true);
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t compileBudget = 0;
    serve::ServerOptions opt = parseArgs(argc, argv, compileBudget);
    if (compileBudget)
        bench::setCompiledCacheBudget(compileBudget);
    opt.extraStats = cacheStatsFragment;

    TraceCache traces;
    serve::Server server(
        opt, [&traces](const serve::CampaignSpec &spec, std::size_t i) {
            return runCellGuarded(traces, spec, i);
        });
    g_server = &server;

    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = serveSignalHandler;
    sigaction(SIGINT, &sa, nullptr);
    sigaction(SIGTERM, &sa, nullptr);
    // A client vanishing mid-response must not kill the server.
    signal(SIGPIPE, SIG_IGN);

    try {
        const std::size_t recovered = server.recover();
        if (recovered)
            std::printf("[serve] recovered %d durable campaign%s from %s\n",
                        int(recovered), recovered == 1 ? "" : "s",
                        opt.stateDir.c_str());

        std::string error;
        if (!server.start(error)) {
            std::fprintf(stderr, "%s: %s\n", argv[0], error.c_str());
            return verify::ExitUsage;
        }
        if (opt.useTcp)
            std::printf("[serve] listening on 127.0.0.1:%u, state in %s, "
                        "%u worker%s\n",
                        unsigned(server.port()), opt.stateDir.c_str(),
                        server.queue().workers(),
                        server.queue().workers() == 1 ? "" : "s");
        else
            std::printf("[serve] listening on %s, state in %s, "
                        "%u worker%s\n",
                        server.socketPath().c_str(), opt.stateDir.c_str(),
                        server.queue().workers(),
                        server.queue().workers() == 1 ? "" : "s");
        std::fflush(stdout);

        const std::size_t unfinished = server.serve();
        if (unfinished) {
            std::printf("[serve] interrupted: %d journaled cell%s remain "
                        "durable in %s (restart to resume)\n",
                        int(unfinished), unfinished == 1 ? "" : "s",
                        opt.stateDir.c_str());
            return verify::ExitAbort;
        }
        std::printf("[serve] drained clean\n");
        return verify::ExitSuccess;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return verify::ExitInternal;
    }
}
