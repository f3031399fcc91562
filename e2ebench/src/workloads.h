/**
 * @file
 * The benchmark's three workloads. Each returns every end-to-end
 * metric (untraced run) or every per-layer metric (traced run), plus
 * the tally of its output checks.
 *
 *   prove-factorial  one caller, closed loop: Plonky2 Factorial at
 *                    2^12 rows x 45 repetitions, back-to-back proofs
 *                    alternating 1 and min(4, nproc) pool threads.
 *   service-closed   in-process ProofService (2 lanes, queue 16, pool
 *                    min(2, nproc)) driven by four closed-loop
 *                    connections with the zipfian-closed mix.
 *   service-open     the same daemon and mix under Poisson arrivals at
 *                    a fixed rate from four dispatch connections, each
 *                    request timed from its due time. Not in
 *                    BENCHMARK.json: on a shared host its ~25 ms
 *                    latencies move with hypervisor steal by more than
 *                    the benchmark's bounds (see METRICS.md).
 */

#ifndef E2EBENCH_WORKLOADS_H
#define E2EBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "measure.h"
#include "obs/obs.h"
#include "span_log.h"

namespace e2ebench {

/**
 * Busy seconds a run spends before it measures anything. On a virtual
 * machine that sat idle, multi-thread work runs up to 2x slower for
 * its first second or two (measured on a 4-vCPU guest: 1 s of load
 * was not enough, 2 s was), which would otherwise land in set-up or
 * the first measurements.
 */
constexpr double kMachineWarmupSeconds = 2.0;

struct RunConfig
{
    uint64_t seed = 1;
    double seconds = 10.0;
    bool traced = false;

    /** Existing directory for the run's sockets (inside the checkout). */
    std::string workDir;

    /** Benchmark spans (traced runs; null otherwise). */
    SpanLog *log = nullptr;

    /** Program spans drained from obs (traced runs; null otherwise). */
    std::vector<unizk::obs::SpanEvent> *programSpans = nullptr;

    /** Lines describing the run's configuration (printed and traced). */
    std::vector<std::string> *notes = nullptr;
};

Outcome runProveFactorial(const RunConfig &cfg);

Outcome runService(const RunConfig &cfg, bool open_loop);

} // namespace e2ebench

#endif // E2EBENCH_WORKLOADS_H
