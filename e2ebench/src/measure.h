/**
 * @file
 * Measurement helpers of the end-to-end benchmark: exact sample
 * percentiles, process resource readings, and the named-metric result
 * every workload returns.
 */

#ifndef E2EBENCH_MEASURE_H
#define E2EBENCH_MEASURE_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/** Monotonic clock in nanoseconds (std::chrono::steady_clock). */
uint64_t nowNs();

inline double
nsToSeconds(uint64_t ns)
{
    return static_cast<double>(ns) * 1e-9;
}

/**
 * Exact percentile of @p samples (q in [0, 1]) by linear interpolation
 * between order statistics -- the numpy "linear" / Hyndman-Fan type 7
 * definition. Every value comes from the samples themselves; no
 * bucketing. 0 for an empty sample set.
 */
double percentile(std::vector<double> samples, double q);

/**
 * Percentile of weighted samples (q in [0, 1]): each sample stands at
 * the middle of its share of the total weight, and q is interpolated
 * linearly between neighbouring samples (below the first or above the
 * last, the end sample). With equal weights this is the Hazen (type 5)
 * definition. Samples of zero weight are ignored; 0 when none remain.
 */
double weightedPercentile(const std::vector<double> &samples,
                          const std::vector<double> &weights, double q);

inline double
median(std::vector<double> samples)
{
    return percentile(std::move(samples), 0.5);
}

/** Process high-water resident set size in MB (getrusage). */
double peakRssMb();

/** User + system CPU seconds consumed by the process so far. */
double processCpuSeconds();

/**
 * CPU time the hypervisor gave to other guests while this machine's
 * processors wanted to run, summed over processors (the "steal" field
 * of /proc/stat); 0 where unavailable. Printed with every run, because
 * on a shared host it explains runs that are slow for outside reasons.
 */
double hostStealSeconds();

/** Share (0-1) of the processors' time stolen by the hypervisor since
 *  construction. */
class StealMeter
{
  public:
    StealMeter();
    double share() const;

  private:
    uint64_t startNs_;
    double startSteal_;
};

/**
 * Indices of the least-stolen half (rounded up) of a set of samples,
 * given the host steal share each one saw. On a shared host, outside
 * load only adds time, and at 10-20% steal pool-parallel work stalls
 * on descheduled vCPUs; ranking by steal, never by the measured values,
 * keeps the choice independent of the program being measured.
 */
std::vector<size_t> leastStolenHalf(const std::vector<double> &steal);

/** Online processor count (sysconf). */
unsigned onlineCpus();

/** Pool threads of the multi-thread legs: min(4, nproc). */
unsigned multiThreadCount();

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * What one workload run reports: the metrics of the selected kind
 * (end-to-end or per-layer), the attempt/failure tally, and a message
 * per failed output check.
 */
struct Outcome
{
    std::vector<Metric> metrics;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Record the message of a failed output check; returns @p ok. */
    bool check(bool ok, const std::string &what);

    /** Count one attempted operation (a proof or a request). */
    void
    attempt(bool ok)
    {
        attempted++;
        if (!ok)
            failed++;
    }

    /** True iff every output check passed. */
    bool correct() const { return errors.empty(); }
};

} // namespace e2ebench

#endif // E2EBENCH_MEASURE_H
