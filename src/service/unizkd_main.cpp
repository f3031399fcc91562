/**
 * @file
 * unizkd: the long-running proving service daemon.
 *
 *   unizkd --socket /tmp/unizkd.sock --queue-capacity 16 --lanes 2 \
 *          [--threads N] [--stats-json stats.json] [--max-runs K] \
 *          [--stats-interval SECS] [--stats-windows windows.jsonl]
 *
 * Runs until SIGINT/SIGTERM or a protocol Shutdown frame, then drains:
 * admitted jobs finish, in-flight responses are written, the socket is
 * unlinked, and (when --stats-json is given and at least one proof
 * completed) a unizk-stats-v2 document with per-request latency and
 * queue-depth histograms is written before exiting 0.
 *
 * With --stats-interval S the main thread rotates the stats window
 * every S seconds and appends one unizk-stats-v3 record per rotation
 * to the --stats-windows file (default <socket>.windows.jsonl). Every
 * rotation goes through ProofService::statsWindow(), so GetStats polls
 * from unizk_top land in the same log and the sequence numbers stay
 * contiguous -- summing the logged deltas reproduces the cumulative
 * totals exactly (checked by tools/obs/validate_obs_json.py in CI).
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <thread>

#include "common/cli.h"
#include "common/logging.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "obs/stats_export.h"
#include "service/server.h"

namespace {

using namespace unizk;

/**
 * Serialized sink for stats-window JSONL records: rotations can come
 * from the periodic exporter (main thread) and GetStats handlers
 * (connection threads) concurrently, but appends must not interleave
 * mid-line.
 */
struct WindowLog
{
    std::string path;
    Mutex mutex;
    uint64_t written UNIZK_GUARDED_BY(mutex) = 0;
    bool failed UNIZK_GUARDED_BY(mutex) = false;

    void
    append(const obs::StatsSnapshot &snap)
    {
        const std::string line = obs::snapshotToJson(snap) + "\n";
        MutexLock lock(mutex);
        if (obs::appendFile(path, line)) {
            written++;
        } else if (!failed) {
            failed = true; // warn once, keep serving
            warn("unizkd: cannot append stats window to ", path);
        }
    }
};

void
printLatencySummary(const service::ServiceCounters &c)
{
    const auto histos = obs::histogramSnapshot();
    std::printf("unizkd: %llu requests, %llu rejected (queue full), "
                "%llu bad, %llu disconnects\n",
                static_cast<unsigned long long>(c.requestsCompleted),
                static_cast<unsigned long long>(c.rejectedQueueFull),
                static_cast<unsigned long long>(c.rejectedBadRequest),
                static_cast<unsigned long long>(c.disconnects));
    const auto it = histos.find("service.request_latency_ns");
    if (it != histos.end() && it->second.count > 0) {
        std::printf(
            "unizkd: request latency p50 %.1f ms, p99 %.1f ms "
            "(%llu samples)\n",
            obs::histogramQuantile(it->second, 0.5) / 1e6,
            obs::histogramQuantile(it->second, 0.99) / 1e6,
            static_cast<unsigned long long>(it->second.count));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Block the shutdown signals before any thread exists (the pool
    // workers applyGlobalCliOptions spawns inherit the mask), then
    // consume them with sigwait on a dedicated thread: no
    // async-signal-handler code at all, and no thread left with the
    // default terminate disposition.
    sigset_t stop_signals;
    sigemptyset(&stop_signals);
    sigaddset(&stop_signals, SIGINT);
    sigaddset(&stop_signals, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &stop_signals, nullptr);

    CliOptions cli(argc, argv);
    applyGlobalCliOptions(cli);

    service::ServiceConfig cfg;
    cfg.socketPath = cli.getString("socket", "unizkd.sock");
    cfg.queueCapacity = cli.getUint("queue-capacity", 16);
    cfg.proverLanes =
        static_cast<unsigned>(cli.getUint("lanes", 2));
    cfg.maxStoredRuns = cli.getUint("max-runs", 1024);
    const std::string stats_path = cli.getString("stats-json", "");
    const double stats_interval =
        cli.getDouble("stats-interval", 0.0);

    WindowLog window_log;
    window_log.path = cli.getString(
        "stats-windows",
        stats_interval > 0 ? cfg.socketPath + ".windows.jsonl" : "");
    if (!window_log.path.empty()) {
        cfg.windowSink = [&window_log](
                             const obs::StatsSnapshot &snap) {
            window_log.append(snap);
        };
    }

    // Histograms feed both the shutdown summary and --stats-json, so
    // observability is always on in the daemon.
    obs::setEnabled(true);

    service::ProofService svc(cfg);
    if (!svc.start())
        return 1;

    // Set before the wake-up signal below, so the sigwait thread can
    // tell that signal from one an operator sent.
    std::atomic<bool> waking{false};
    std::thread signal_thread([&] {
        int sig = 0;
        sigwait(&stop_signals, &sig);
        if (!waking.load())
            inform("unizkd: caught signal ", sig, ", draining");
        svc.requestStop();
    });

    if (stats_interval > 0) {
        inform("unizkd: exporting stats windows every ",
               stats_interval, "s to ", window_log.path);
        // Each tick rotates through statsWindow(), the same path
        // GetStats takes, so the JSONL log sees one contiguous
        // rotation stream. A final rotation at shutdown captures the
        // tail window.
        while (!svc.waitForStopRequestFor(stats_interval))
            svc.statsWindow();
        svc.statsWindow();
    } else {
        svc.waitForStopRequest();
    }
    svc.stop();

    // A protocol Shutdown frame stops the service without a signal;
    // deliver one so the sigwait thread can be joined either way.
    waking.store(true);
    pthread_kill(signal_thread.native_handle(), SIGTERM);
    signal_thread.join();

    const service::ServiceCounters counters = svc.counters();
    printLatencySummary(counters);

    if (!window_log.path.empty()) {
        MutexLock lock(window_log.mutex);
        std::printf(
            "unizkd: wrote %llu stats windows: %s\n",
            static_cast<unsigned long long>(window_log.written),
            window_log.path.c_str());
    }

    if (!stats_path.empty()) {
        const std::vector<obs::RunStats> runs = svc.runStats();
        if (runs.empty()) {
            warn("unizkd: no completed runs; skipping stats JSON ",
                 "(the unizk-stats-v2 schema requires at least one)");
        } else {
            const std::string doc =
                obs::statsToJson(runs, obs::counterSnapshot(),
                                 obs::histogramSnapshot());
            if (!obs::writeFile(stats_path, doc)) {
                warn("unizkd: cannot write ", stats_path);
                return 1;
            }
            std::printf("unizkd: wrote stats JSON: %s\n",
                        stats_path.c_str());
        }
    }
    return 0;
}
