/**
 * @file
 * Scenario runner: drives a generated schedule against a live unizkd
 * through the src/service client path and aggregates the results into
 * a `unizk-load-v1` report (throughput, exact latency order statistics
 * over the per-request samples, queue-depth-over-time samples, per-app
 * counts).
 *
 * Closed-loop scenarios run one thread per connection; each thread
 * walks its round-robin slice of the schedule, issuing the next
 * request when the previous response lands. Open-loop scenarios run
 * `connections` dispatch workers pulling from a shared cursor; each
 * worker sleeps until its request's scheduled arrival offset, so the
 * offered load follows the Poisson schedule regardless of how fast
 * the daemon answers (up to the concurrency the worker count allows).
 * A request sent after its arrival because every worker was busy
 * keeps that lateness: its latency runs from the arrival, not from
 * the send, so a backed-up run cannot hide its queueing in the client
 * (coordinated omission).
 *
 * Outcome accounting: queue-full and shutting-down rejections are
 * backpressure, not failures; transport losses, protocol errors and
 * (under --check) proofs that differ from the in-process reference
 * count as errors. Every schedule entry is accounted exactly once:
 * ok + queueFull + shuttingDown + errors == issued (entries stranded
 * by a dead connection are charged as errors), which the tools/load
 * schema validator re-checks.
 */

#ifndef UNIZK_LOAD_RUNNER_H
#define UNIZK_LOAD_RUNNER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "load/generator.h"
#include "load/scenario.h"

namespace unizk {
namespace load {

/**
 * Reference proof bytes per distinct request shape, keyed by the
 * request's wire encoding with traceId 0 (equal keys, equal proofs).
 * Built by referenceProofs() for --check.
 */
using ReferenceProofs =
    std::map<std::vector<uint8_t>, std::vector<uint8_t>>;

/** One service::proveRequest per distinct shape in @p schedule. */
ReferenceProofs referenceProofs(const Schedule &schedule);

struct RunOptions
{
    std::string socketPath;

    /** --check: when non-empty, a served proof that is not byte-equal
     *  to the reference for its shape is charged as an error. */
    ReferenceProofs references;
};

/** Exact order statistics of the per-request latencies
 *  (RequestSample::latencyNs); quantiles are nearest-rank. */
struct LatencySummary
{
    uint64_t count = 0;
    uint64_t minNs = 0;
    uint64_t maxNs = 0;
    double meanNs = 0.0;
    double p50Ns = 0.0;
    double p90Ns = 0.0;
    double p99Ns = 0.0;
};

/** Daemon queue depth observed at one response, offset from run start. */
struct QueueSample
{
    uint64_t tNs = 0;
    uint64_t depth = 0;
};

struct PerAppCount
{
    service::WireProtocol protocol = service::WireProtocol::Plonky2;
    AppId app = AppId::Factorial;
    uint64_t count = 0;
};

/**
 * Client-observed vs server-observed timing of one ok response.
 * Schedules trace every request (generator assigns traceId =
 * schedule position + 1), so the server decomposition comes back on
 * each response and
 *   queuedNs + proveNs + serializeNs <= serverNs <= clientNs
 * must hold per sample; clientNs - serverNs is the network + framing
 * residual. Violations (and responses that drop or change the trace
 * id) are counted in RunReport::breakdownViolations and re-checked by
 * tools/load/validate_load_json.py.
 */
struct RequestSample
{
    uint64_t traceId = 0;
    uint64_t laneId = 0;
    /** due -> send, our clock. The due time is the scheduled arrival
     *  on open loop; on closed loop it is the moment the previous
     *  response landed, so the lag is 0 there. */
    uint64_t lagNs = 0;
    uint64_t clientNs = 0; ///< send -> response decoded, our clock
    uint64_t serverNs = 0; ///< admission -> serialized, daemon clock
    uint64_t queuedNs = 0;
    uint64_t proveNs = 0;
    uint64_t serializeNs = 0;

    /** The latency the report summarizes: due -> response. */
    uint64_t latencyNs() const { return lagNs + clientNs; }
};

struct RunReport
{
    uint64_t issued = 0;
    uint64_t ok = 0;
    uint64_t queueFull = 0;
    uint64_t shuttingDown = 0;
    uint64_t errors = 0;

    double elapsedSeconds = 0.0;
    double throughputRps = 0.0; ///< ok / elapsedSeconds

    LatencySummary latency;
    std::vector<QueueSample> queueDepth; ///< one per ok, by tNs
    std::vector<PerAppCount> perApp;     ///< ok counts, mix order

    /** One entry per ok response, sorted by traceId. */
    std::vector<RequestSample> samples;
    uint64_t breakdownViolations = 0;
};

/** Run @p schedule against the daemon at opts.socketPath. */
RunReport runScenario(const Scenario &scenario,
                      const Schedule &schedule, const RunOptions &opts);

/** Exact summary of @p samples' latencyNs (count 0 when empty). */
LatencySummary summarizeLatency(const std::vector<RequestSample> &samples);

/** Render the `unizk-load-v1` JSON document. */
std::string reportToJson(const Scenario &scenario, uint64_t seed,
                         const RunReport &report);

} // namespace load
} // namespace unizk

#endif // UNIZK_LOAD_RUNNER_H
