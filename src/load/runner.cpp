#include "load/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/stats.h"
#include "common/sync.h"
#include "obs/json_writer.h"
#include "service/client.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace load {

namespace {

using service::ErrorCode;
using service::ResponseFrame;
using service::ServiceClient;
using service::Tag;

/** Shared mutable run state, one instance per runScenario call. */
struct RunState
{
    Mutex mutex;
    uint64_t ok UNIZK_GUARDED_BY(mutex) = 0;
    uint64_t queueFull UNIZK_GUARDED_BY(mutex) = 0;
    uint64_t shuttingDown UNIZK_GUARDED_BY(mutex) = 0;
    uint64_t errors UNIZK_GUARDED_BY(mutex) = 0;
    std::vector<QueueSample> queueDepth UNIZK_GUARDED_BY(mutex);
    /** ok counts, indexed like scenario.mix. */
    std::vector<uint64_t> perApp UNIZK_GUARDED_BY(mutex);
    std::vector<RequestSample> samples UNIZK_GUARDED_BY(mutex);
    uint64_t breakdownViolations UNIZK_GUARDED_BY(mutex) = 0;
};

/** A request's ReferenceProofs key: its wire encoding with traceId 0. */
std::vector<uint8_t>
referenceKey(service::ProveRequest req)
{
    req.traceId = 0;
    return service::encodeProveRequest(req);
}

uint64_t
elapsedNs(const Stopwatch &clock)
{
    return static_cast<uint64_t>(clock.elapsedSeconds() * 1e9);
}

size_t
mixIndexOf(const Scenario &scenario,
           const service::ProveRequest &req)
{
    for (size_t i = 0; i < scenario.mix.size(); ++i) {
        if (scenario.mix[i].protocol == req.protocol &&
            scenario.mix[i].app == req.app)
            return i;
    }
    unizk_panic("schedule request outside the scenario mix");
}

/**
 * Issue one scheduled request on @p client and fold the outcome into
 * @p state. @p lag_ns is how long after its due time the request is
 * sent. Returns false when the transport died (the caller's connection
 * is unusable afterwards).
 */
bool
issueOne(ServiceClient &client, const Scenario &scenario,
         const RunOptions &opts, const LoadRequest &item,
         uint64_t lag_ns, const Stopwatch &run_clock, RunState &state)
{
    const Stopwatch request_clock;
    const auto resp = client.prove(item.request);
    const uint64_t client_ns = elapsedNs(request_clock);
    const uint64_t t_ns = elapsedNs(run_clock);

    if (!resp) {
        MutexLock lock(state.mutex);
        state.errors += 1;
        return false;
    }
    if (resp->tag == Tag::Error) {
        MutexLock lock(state.mutex);
        switch (resp->error.code) {
          case ErrorCode::QueueFull:
            state.queueFull += 1;
            break;
          case ErrorCode::ShuttingDown:
            state.shuttingDown += 1;
            break;
          default:
            warn("unizk_load: server error: ",
                 errorCodeName(resp->error.code), ": ",
                 resp->error.message);
            state.errors += 1;
            break;
        }
        return true;
    }
    const service::ProveResponse &p = resp->prove;
    bool failed = resp->tag != Tag::ProveOk ||
                  (item.request.verify && !p.verified);
    if (!failed && !opts.references.empty()) {
        const auto ref =
            opts.references.find(referenceKey(item.request));
        if (ref == opts.references.end() || ref->second != p.proof) {
            warn("unizk_load: --check: trace ", item.request.traceId,
                 " proof differs from the in-process reference");
            failed = true;
        }
    }
    if (failed) {
        MutexLock lock(state.mutex);
        state.errors += 1;
        return true;
    }

    RequestSample sample;
    sample.traceId = item.request.traceId;
    sample.laneId = p.laneId;
    sample.lagNs = lag_ns;
    sample.clientNs = client_ns;
    sample.serverNs = p.latencyNs;
    sample.queuedNs = p.queuedNs;
    sample.proveNs = p.proveNs;
    sample.serializeNs = p.serializeNs;
    MutexLock lock(state.mutex);
    state.ok += 1;
    state.queueDepth.push_back({t_ns, p.queueDepth});
    state.perApp[mixIndexOf(scenario, item.request)] += 1;
    state.samples.push_back(sample);
    if (p.traceId != item.request.traceId ||
        p.queuedNs + p.proveNs + p.serializeNs > p.latencyNs ||
        p.latencyNs > client_ns) {
        state.breakdownViolations += 1;
    }
    return true;
}

/** Closed-loop worker: the round-robin slice of one connection. */
void
runClosedConnection(const Scenario &scenario,
                    const Schedule &schedule, const RunOptions &opts,
                    uint32_t conn_index, const Stopwatch &run_clock,
                    RunState &state)
{
    std::vector<const LoadRequest *> mine;
    for (const LoadRequest &item : schedule.requests) {
        if (item.connection == conn_index)
            mine.push_back(&item);
    }
    if (mine.empty())
        return;

    // A failed connection strands the rest of its slice; runScenario
    // charges every unaccounted entry as an error.
    ServiceClient client(opts.socketPath);
    if (!client.connected()) {
        warn("unizk_load: connection ", conn_index, " failed");
        return;
    }
    for (const LoadRequest *item : mine) {
        // Due when the previous response landed, i.e. now: no lag.
        if (!issueOne(client, scenario, opts, *item, 0, run_clock,
                      state))
            return;
    }
}

/**
 * Open-loop worker: pull the next undispatched entry, sleep until its
 * scheduled arrival, issue it. A worker whose transport dies stops
 * pulling; surviving workers keep draining the schedule, so a single
 * bad connection does not strand the rest of the run.
 */
void
runOpenWorker(const Scenario &scenario, const Schedule &schedule,
              const RunOptions &opts, std::atomic<size_t> &cursor,
              const Stopwatch &run_clock, RunState &state)
{
    ServiceClient client(opts.socketPath);
    if (!client.connected()) {
        warn("unizk_load: open-loop worker connection failed");
        return; // entries stay for other workers; leftovers charged later
    }
    for (;;) {
        const size_t i =
            cursor.fetch_add(1, std::memory_order_relaxed);
        if (i >= schedule.requests.size())
            return;
        const LoadRequest &item = schedule.requests[i];
        uint64_t now_ns = elapsedNs(run_clock);
        if (item.arrivalNs > now_ns) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(item.arrivalNs - now_ns));
            now_ns = elapsedNs(run_clock);
        }
        // Late by however long every worker was busy (plus any sleep
        // overshoot): that wait is part of this request's latency.
        const uint64_t lag_ns =
            now_ns > item.arrivalNs ? now_ns - item.arrivalNs : 0;
        if (!issueOne(client, scenario, opts, item, lag_ns, run_clock,
                      state)) {
            // This entry is already charged; put no others at risk.
            return;
        }
    }
}

/** Nearest-rank @p percent quantile of sorted, non-empty @p v. */
uint64_t
nearestRank(const std::vector<uint64_t> &v, uint64_t percent)
{
    const uint64_t n = v.size();
    const uint64_t rank = std::max<uint64_t>(1, (percent * n + 99) / 100);
    return v[rank - 1];
}

} // namespace

ReferenceProofs
referenceProofs(const Schedule &schedule)
{
    ReferenceProofs refs;
    for (const LoadRequest &item : schedule.requests) {
        std::vector<uint8_t> key = referenceKey(item.request);
        if (refs.count(key) == 0) {
            refs.emplace(std::move(key),
                         service::proveRequest(item.request).proofBlob);
        }
    }
    return refs;
}

LatencySummary
summarizeLatency(const std::vector<RequestSample> &samples)
{
    LatencySummary out;
    if (samples.empty())
        return out;
    std::vector<uint64_t> ns;
    ns.reserve(samples.size());
    double sum = 0.0;
    for (const RequestSample &s : samples) {
        ns.push_back(s.latencyNs());
        sum += static_cast<double>(s.latencyNs());
    }
    std::sort(ns.begin(), ns.end());
    out.count = ns.size();
    out.minNs = ns.front();
    out.maxNs = ns.back();
    out.meanNs = sum / static_cast<double>(ns.size());
    out.p50Ns = static_cast<double>(nearestRank(ns, 50));
    out.p90Ns = static_cast<double>(nearestRank(ns, 90));
    out.p99Ns = static_cast<double>(nearestRank(ns, 99));
    return out;
}

RunReport
runScenario(const Scenario &scenario, const Schedule &schedule,
            const RunOptions &opts)
{
    RunState state;
    {
        MutexLock lock(state.mutex);
        state.perApp.assign(scenario.mix.size(), 0);
    }
    const Stopwatch run_clock;

    std::atomic<size_t> cursor{0}; // open loop only
    std::vector<std::thread> workers;
    for (uint32_t c = 0; c < scenario.connections; ++c) {
        workers.emplace_back([&, c] {
            if (scenario.arrival == Arrival::ClosedLoop) {
                runClosedConnection(scenario, schedule, opts, c,
                                    run_clock, state);
            } else {
                runOpenWorker(scenario, schedule, opts, cursor,
                              run_clock, state);
            }
        });
    }
    for (auto &w : workers)
        w.join();

    RunReport report;
    report.issued = schedule.requests.size();
    report.elapsedSeconds = run_clock.elapsedSeconds();
    {
        MutexLock lock(state.mutex);
        report.ok = state.ok;
        report.queueFull = state.queueFull;
        report.shuttingDown = state.shuttingDown;
        report.errors = state.errors;
        report.queueDepth = std::move(state.queueDepth);
        report.samples = std::move(state.samples);
        report.breakdownViolations = state.breakdownViolations;
        for (size_t i = 0; i < scenario.mix.size(); ++i) {
            PerAppCount entry;
            entry.protocol = scenario.mix[i].protocol;
            entry.app = scenario.mix[i].app;
            entry.count = state.perApp[i];
            report.perApp.push_back(entry);
        }
    }
    // Dead connections leave entries behind (the rest of a closed-loop
    // slice, or unpulled open-loop entries); keep the every-entry-
    // accounted invariant by charging them as errors.
    const uint64_t accounted = report.ok + report.queueFull +
                               report.shuttingDown + report.errors;
    unizk_assert(accounted <= report.issued,
                 "load accounting overcounted the schedule");
    report.errors += report.issued - accounted;

    std::sort(report.queueDepth.begin(), report.queueDepth.end(),
              [](const QueueSample &a, const QueueSample &b) {
                  return a.tNs < b.tNs;
              });
    std::sort(report.samples.begin(), report.samples.end(),
              [](const RequestSample &a, const RequestSample &b) {
                  return a.traceId < b.traceId;
              });
    if (report.elapsedSeconds > 0.0) {
        report.throughputRps =
            static_cast<double>(report.ok) / report.elapsedSeconds;
    }

    report.latency = summarizeLatency(report.samples);
    return report;
}

std::string
reportToJson(const Scenario &scenario, uint64_t seed,
             const RunReport &report)
{
    obs::JsonWriter w;
    w.beginObject();
    w.kv("schema", "unizk-load-v1");

    w.key("scenario").beginObject();
    w.kv("name", scenario.name);
    w.kv("arrival", arrivalName(scenario.arrival));
    w.kv("skew", skewName(scenario.skew));
    if (scenario.skew == Skew::Zipfian)
        w.kv("zipfianTheta", scenario.zipfianTheta);
    if (scenario.arrival == Arrival::OpenPoisson)
        w.kv("openRateRps", scenario.openRateRps);
    w.kv("seed", seed);
    w.kv("requests", scenario.requests);
    w.kv("connections", scenario.connections);
    w.kv("keySpace", scenario.keySpace);
    w.key("mix").beginArray();
    for (const MixEntry &e : scenario.mix) {
        w.beginObject();
        w.kv("protocol",
             e.protocol == service::WireProtocol::Plonky2 ? "plonky2"
                                                          : "starky");
        w.kv("app", appToken(e.app));
        w.kv("weight", e.weight);
        w.kv("minRows", e.minRows);
        w.kv("maxRows", e.maxRows);
        w.kv("reps", e.reps);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("results").beginObject();
    w.kv("issued", report.issued);
    w.kv("ok", report.ok);
    w.kv("queueFull", report.queueFull);
    w.kv("shuttingDown", report.shuttingDown);
    w.kv("errors", report.errors);
    w.kv("elapsedSeconds", report.elapsedSeconds);
    w.kv("throughputRps", report.throughputRps);

    w.key("latencyNs").beginObject();
    w.kv("count", report.latency.count);
    w.kv("min", report.latency.minNs);
    w.kv("max", report.latency.maxNs);
    w.kv("mean", report.latency.meanNs);
    w.kv("p50", report.latency.p50Ns);
    w.kv("p90", report.latency.p90Ns);
    w.kv("p99", report.latency.p99Ns);
    w.endObject();

    // Client-observed vs server-observed latency. Means first, then
    // one entry per ok response so the schema validator can re-check
    // the per-request inequality chain and recompute latencyNs.
    w.key("breakdown").beginObject();
    w.kv("traced", static_cast<uint64_t>(report.samples.size()));
    w.kv("violations", report.breakdownViolations);
    if (!report.samples.empty()) {
        const auto sum = [&](uint64_t RequestSample::*field) {
            uint64_t total = 0;
            for (const RequestSample &s : report.samples)
                total += s.*field;
            return static_cast<double>(total);
        };
        const double n = static_cast<double>(report.samples.size());
        w.kv("meanClientNs", sum(&RequestSample::clientNs) / n);
        w.kv("meanServerNs", sum(&RequestSample::serverNs) / n);
        w.kv("meanQueuedNs", sum(&RequestSample::queuedNs) / n);
        w.kv("meanProveNs", sum(&RequestSample::proveNs) / n);
        w.kv("meanSerializeNs", sum(&RequestSample::serializeNs) / n);
        w.kv("meanResidualNs", (sum(&RequestSample::clientNs) -
                                sum(&RequestSample::serverNs)) /
                                   n);
    }
    w.key("samples").beginArray();
    for (const RequestSample &s : report.samples) {
        w.beginObject();
        w.kv("traceId", s.traceId);
        w.kv("laneId", s.laneId);
        w.kv("lagNs", s.lagNs);
        w.kv("clientNs", s.clientNs);
        w.kv("serverNs", s.serverNs);
        w.kv("queuedNs", s.queuedNs);
        w.kv("proveNs", s.proveNs);
        w.kv("serializeNs", s.serializeNs);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("queueDepth").beginArray();
    for (const QueueSample &s : report.queueDepth) {
        w.beginObject();
        w.kv("tNs", s.tNs);
        w.kv("depth", s.depth);
        w.endObject();
    }
    w.endArray();

    w.key("perApp").beginArray();
    for (const PerAppCount &p : report.perApp) {
        w.beginObject();
        w.kv("protocol",
             p.protocol == service::WireProtocol::Plonky2 ? "plonky2"
                                                          : "starky");
        w.kv("app", appToken(p.app));
        w.kv("count", p.count);
        w.endObject();
    }
    w.endArray();

    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace load
} // namespace unizk
