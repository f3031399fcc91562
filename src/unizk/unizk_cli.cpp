/**
 * @file
 * `unizk_cli`: run one application end to end (CPU prove + UniZK
 * simulation + verify) and optionally emit machine-readable artifacts:
 *
 *   unizk_cli --protocol plonky2 --app factorial --rows 8192 --fast \
 *             --stats-json stats.json --trace-json trace.json \
 *             --folded spans.folded --proof-out proof.bin
 *
 * Options:
 *   --protocol plonky2|starky   proof system (default plonky2)
 *   --app NAME                  factorial, fibonacci, ecdsa, sha256,
 *                               imagecrop, mvm, recursion (default
 *                               factorial; Starky supports the first
 *                               two plus sha256)
 *   --rows N --reps R           workload shape (defaults per app)
 *   --fast                      reduced FRI security for quick runs
 *   --threads N                 prover thread count (0 = auto)
 *   --no-verify                 skip proof verification
 *   --stats-json PATH           write unizk-stats-v2 JSON (hardware
 *                               counters, timeline, histograms)
 *   --trace-json PATH           write Chrome trace_event JSON
 *                               (Perfetto / chrome://tracing)
 *   --folded PATH               write collapsed-stack span profile
 *                               (flamegraph.pl / speedscope input)
 *   --timeline-period N         sim timeline sample period in cycles
 *                               (0 = auto, ~256 samples)
 *   --proof-out PATH            write the serialized proof bytes
 */

#include <fstream>
#include <string>

#include "common/cli.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "obs/folded_export.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "obs/stats_export.h"
#include "obs/trace_export.h"
#include "unizk/pipeline.h"

namespace {

using namespace unizk;

/** Lowercase with separators removed, for forgiving app-name matching. */
std::string
normalized(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c >= 'A' && c <= 'Z')
            out += static_cast<char>(c - 'A' + 'a');
        else if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9'))
            out += c;
    }
    return out;
}

AppId
appFromString(const std::string &name)
{
    static const AppId all[] = {
        AppId::Factorial, AppId::Fibonacci, AppId::Ecdsa,
        AppId::Sha256,    AppId::ImageCrop, AppId::Mvm,
        AppId::Recursion};
    const std::string want = normalized(name);
    for (const AppId app : all) {
        if (normalized(appName(app)) == want)
            return app;
    }
    unizk_fatal("unknown --app \"", name,
                "\" (try factorial, fibonacci, ecdsa, sha256, "
                "imagecrop, mvm, recursion)");
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions cli(argc, argv);
    applyGlobalCliOptions(cli);
    const unsigned threads = globalThreadCount();

    const std::string protocol =
        cli.getString("protocol", "plonky2");
    if (protocol != "plonky2" && protocol != "starky")
        unizk_fatal("--protocol must be plonky2 or starky");

    const AppId app = appFromString(cli.getString("app", "factorial"));
    const WorkloadParams params =
        defaultParams(app, static_cast<uint32_t>(cli.getUint("scale", 0)));
    const size_t rows = cli.getUint("rows", params.rows);
    const size_t reps = cli.getUint("reps", params.repetitions);
    const bool verify = !cli.has("no-verify");

    const std::string stats_path = cli.getString("stats-json", "");
    const std::string trace_path = cli.getString("trace-json", "");
    const std::string folded_path = cli.getString("folded", "");
    const std::string proof_path = cli.getString("proof-out", "");
    if (!stats_path.empty() || !trace_path.empty() ||
        !folded_path.empty()) {
        obs::setEnabled(true);
    }

    const bool fast = cli.has("fast");
    const FriConfig cfg = protocol == "plonky2" ? FriConfig::plonky2(fast)
                                                : FriConfig::starky(fast);
    HardwareConfig hw = HardwareConfig::paperDefault();
    hw.timelineSamplePeriod = cli.getUint("timeline-period", 0);

    if (protocol == "starky" && !hasStarkImplementation(app))
        unizk_fatal("no Starky implementation for ", appName(app));

    // Everything above is setup; only the proof run itself belongs in
    // the exported artifacts.
    obs::resetForMeasurement();

    const AppRunResult result =
        protocol == "plonky2"
            ? runPlonky2App(app, rows, reps, cfg, hw, verify)
            : runStarkyApp(app, rows, cfg, hw, verify);

    std::printf("%s (%s): rows=%zu, cpu %.3f s, sim %.3f ms, "
                "proof %zu bytes, %s\n",
                result.app.c_str(), protocol.c_str(), result.rows,
                result.cpuSeconds, result.sim.seconds() * 1e3,
                result.proofBytes,
                verify ? (result.verified ? "verified" : "VERIFY FAILED")
                       : "not verified");
    std::printf("%s", formatReport(result.sim).c_str());

    if (!stats_path.empty()) {
        const std::string doc = obs::statsToJson(
            {toRunStats(result, protocol, threads)},
            obs::counterSnapshot(), obs::histogramSnapshot());
        if (!obs::writeFile(stats_path, doc))
            unizk_fatal("cannot write ", stats_path);
        std::printf("wrote stats JSON: %s\n", stats_path.c_str());
    }
    if (!trace_path.empty() || !folded_path.empty()) {
        // Drain once; the span buffer feeds both exporters.
        const std::vector<obs::SpanEvent> spans = obs::drainSpans();
        if (!trace_path.empty()) {
            obs::ChromeTraceBuilder builder;
            builder.addSpans(spans);
            builder.addSimLane(result.app, result.trace, hw);
            if (!obs::writeFile(trace_path, builder.build()))
                unizk_fatal("cannot write ", trace_path);
            std::printf("wrote Chrome trace: %s\n", trace_path.c_str());
        }
        if (!folded_path.empty()) {
            if (!obs::writeFile(folded_path, obs::spansToFolded(spans)))
                unizk_fatal("cannot write ", folded_path);
            std::printf("wrote folded spans: %s\n", folded_path.c_str());
        }
    }
    if (!proof_path.empty()) {
        std::ofstream f(proof_path, std::ios::binary);
        f.write(reinterpret_cast<const char *>(
                    result.proofBlob.data()),
                static_cast<std::streamsize>(result.proofBlob.size()));
        if (!f)
            unizk_fatal("cannot write ", proof_path);
        std::printf("wrote proof bytes: %s\n", proof_path.c_str());
    }

    return (verify && !result.verified) ? 1 : 0;
}
