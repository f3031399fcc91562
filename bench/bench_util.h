/**
 * @file
 * Shared helpers for the table/figure harnesses: fixed-width table
 * printing and common CLI handling. Each harness regenerates one table
 * or figure of the paper and prints the paper's reported values next
 * to the reproduced ones where applicable.
 */

#ifndef UNIZK_BENCH_BENCH_UTIL_H
#define UNIZK_BENCH_BENCH_UTIL_H

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/cli.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "fri/fri_config.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "obs/stats_export.h"
#include "obs/trace_export.h"
#include "sim/hw_config.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace bench {

/** Print one row of fixed-width cells. */
inline void
printRow(const std::vector<std::string> &cells, int width = 14)
{
    for (const auto &c : cells)
        std::printf("%-*s", width, c.c_str());
    std::printf("\n");
}

inline std::string
fmt(double v, int precision = 3)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
    return buf;
}

inline std::string
fmtX(double v, int precision = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*fx", precision, v);
    return buf;
}

inline std::string
fmtPct(double v, int precision = 1)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f%%", precision, 100.0 * v);
    return buf;
}

/** Standard harness options: workload scale and FRI configuration. */
struct HarnessOptions
{
    uint32_t scale = 0;       ///< shifts every app's rows up by 2^scale
    uint32_t repsOverride = 0; ///< 0 = per-app default
    bool fast = false;         ///< reduced security params for quick runs
    unsigned threads = 1;      ///< resolved prover thread count (>= 1)
    std::string statsJsonPath; ///< --stats-json: unizk-stats-v2 output
    std::string traceJsonPath; ///< --trace-json: Chrome trace output
    uint64_t timelinePeriod = 0; ///< --timeline-period: sample cycles
                                 ///< (0 = auto, ~256 samples)

    /** True when any machine-readable artifact was requested. */
    bool
    wantsObs() const
    {
        return !statsJsonPath.empty() || !traceJsonPath.empty();
    }

    /** Paper-default hardware with the timeline knob applied. */
    HardwareConfig
    paperHw() const
    {
        HardwareConfig hw = HardwareConfig::paperDefault();
        hw.timelineSamplePeriod = timelinePeriod;
        return hw;
    }
};

inline HarnessOptions
parseHarnessOptions(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    HarnessOptions opt;
    opt.scale = static_cast<uint32_t>(cli.getUint("scale", 0));
    opt.repsOverride = static_cast<uint32_t>(cli.getUint("reps", 0));
    opt.fast = cli.has("fast");
    opt.statsJsonPath = cli.getString("stats-json", "");
    opt.traceJsonPath = cli.getString("trace-json", "");
    opt.timelinePeriod = cli.getUint("timeline-period", 0);
    // Routes --threads to the global pool (0/absent = auto:
    // UNIZK_THREADS, else hardware concurrency).
    applyGlobalCliOptions(cli);
    opt.threads = globalThreadCount();
    if (opt.wantsObs()) {
        obs::setEnabled(true);
        // Everything before here (pool spin-up, option handling) is
        // setup, not measurement; start the capture window clean.
        obs::resetForMeasurement();
    }
    return opt;
}

/**
 * Collects per-run stats during a harness and writes the requested
 * JSON artifacts at the end (the harness calls write() once after its
 * table is printed). No-op when neither --stats-json nor --trace-json
 * was given.
 */
class ObsArtifacts
{
  public:
    explicit ObsArtifacts(const HarnessOptions &opt) : opt_(opt) {}

    void
    addRun(const AppRunResult &r, const char *protocol, unsigned threads)
    {
        if (!opt_.statsJsonPath.empty())
            runs_.push_back(toRunStats(r, protocol, threads));
        if (!opt_.traceJsonPath.empty())
            traces_.push_back({r.app, r.trace});
    }

    /** Write the artifacts; @p hw drives the simulated-timeline lanes. */
    void
    write(const HardwareConfig &hw) const
    {
        if (!opt_.statsJsonPath.empty()) {
            const std::string doc =
                obs::statsToJson(runs_, obs::counterSnapshot(),
                                 obs::histogramSnapshot());
            if (!obs::writeFile(opt_.statsJsonPath, doc))
                unizk_fatal("cannot write ", opt_.statsJsonPath);
            std::printf("wrote stats JSON: %s\n",
                        opt_.statsJsonPath.c_str());
        }
        if (!opt_.traceJsonPath.empty()) {
            obs::ChromeTraceBuilder builder;
            builder.addSpans(obs::drainSpans());
            for (const auto &[name, trace] : traces_)
                builder.addSimLane(name, trace, hw);
            if (!obs::writeFile(opt_.traceJsonPath, builder.build()))
                unizk_fatal("cannot write ", opt_.traceJsonPath);
            std::printf("wrote Chrome trace: %s\n",
                        opt_.traceJsonPath.c_str());
        }
    }

  private:
    const HarnessOptions &opt_;
    std::vector<obs::RunStats> runs_;
    std::vector<std::pair<std::string, KernelTrace>> traces_;
};

} // namespace bench
} // namespace unizk

#endif // UNIZK_BENCH_BENCH_UTIL_H
