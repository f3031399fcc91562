/**
 * @file
 * End-to-end benchmark binary.
 *
 *   e2ebench --workload <prove-factorial|service-closed|service-open>
 *            --seed <n> --seconds <s> --trace <0|1>
 *            --workdir <dir> [--trace-out <file>]
 *
 * Untraced runs (--trace 0) report every end-to-end metric; traced
 * runs (--trace 1) enable the program's own spans and counters, record
 * the benchmark's spans around each public call, count allocations,
 * and report every per-layer metric. The last stdout line is one JSON
 * object {"correct", "attempted", "failed", "metrics"}; the exit code
 * is non-zero when any output check failed.
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/thread_pool.h"
#include "hash/goldilocks_simd.h"
#include "measure.h"
#include "obs/json_writer.h"
#include "obs/obs.h"
#include "span_log.h"
#include "workloads.h"

using namespace e2ebench;

namespace {

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool traced = false;
    std::string workDir;
    std::string traceOut;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "e2ebench: %s\nusage: e2ebench --workload "
                 "<prove-factorial|service-closed|service-open> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--trace-out <file>]\n",
                 why.c_str());
    std::exit(2);
}

uint64_t
parseUint(const std::string &flag, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(flag + ": not an unsigned integer: \"" + text + "\"");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(flag + " needs a value");
        const std::string val = argv[i + 1];
        if (flag == "--workload") {
            a.workload = val;
        } else if (flag == "--seed") {
            a.seed = parseUint(flag, val);
            have_seed = true;
        } else if (flag == "--seconds") {
            const uint64_t s = parseUint(flag, val);
            if (s < 1 || s > 3600)
                usage("--seconds must be in [1, 3600]");
            a.seconds = static_cast<double>(s);
            have_seconds = true;
        } else if (flag == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace must be 0 or 1");
            a.traced = val == "1";
            have_trace = true;
        } else if (flag == "--workdir") {
            a.workDir = val;
        } else if (flag == "--trace-out") {
            a.traceOut = val;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.workload != "prove-factorial" && a.workload != "service-closed" &&
        a.workload != "service-open")
        usage("unknown or missing --workload \"" + a.workload + "\"");
    if (!have_seed || !have_seconds || !have_trace || a.workDir.empty())
        usage("--seed, --seconds, --trace and --workdir are required");
    return a;
}

/** Write the run's spans: the benchmark's own (with self times) and
 *  the program's, as captured by obs. */
bool
writeTrace(const std::string &path, const Args &args,
           const std::vector<std::string> &notes, const SpanLog &log,
           const std::vector<unizk::obs::SpanEvent> &program)
{
    const std::vector<BenchSpan> spans = log.spans();
    const std::vector<uint64_t> self = selfTimesNs(spans);
    unizk::obs::JsonWriter w;
    w.beginObject();
    w.kv("schema", "e2ebench-trace-v1");
    w.kv("workload", args.workload);
    w.kv("seed", args.seed);
    w.key("notes").beginArray();
    for (const std::string &n : notes)
        w.value(n);
    w.endArray();
    w.key("benchSpans").beginArray();
    for (size_t i = 0; i < spans.size(); ++i) {
        const BenchSpan &s = spans[i];
        w.beginObject();
        w.kv("id", s.id);
        w.kv("parent", s.parent);
        w.kv("name", s.name);
        w.kv("startNs", s.startNs);
        w.kv("endNs", s.endNs);
        w.kv("selfNs", self[i]);
        w.kv("traceId", s.traceId);
        w.endObject();
    }
    w.endArray();
    w.key("programSpans").beginArray();
    for (const unizk::obs::SpanEvent &ev : program) {
        w.beginObject();
        w.kv("name", ev.name);
        w.kv("parent", ev.parent ? ev.parent : "");
        w.kv("startNs", ev.startNs);
        w.kv("endNs", ev.endNs);
        w.kv("thread", static_cast<uint64_t>(ev.threadId));
        w.kv("depth", static_cast<uint64_t>(ev.depth));
        w.kv("traceId", ev.traceId);
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return unizk::obs::writeFile(path, w.str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);

    RunConfig rc;
    rc.seed = args.seed;
    rc.seconds = args.seconds;
    rc.traced = args.traced;
    rc.workDir = args.workDir;
    SpanLog log;
    std::vector<unizk::obs::SpanEvent> program_spans;
    std::vector<std::string> notes;
    rc.notes = &notes;
    notes.push_back(
        std::string("env: simd=") +
        unizk::simdLevelName(unizk::activeSimdLevel()) +
        " nproc=" + std::to_string(onlineCpus()) +
        " threads_nt=" + std::to_string(multiThreadCount()) +
        " workload=" + args.workload + " seed=" + std::to_string(args.seed) +
        " seconds=" + std::to_string(static_cast<int>(args.seconds)) +
        " trace=" + (args.traced ? "1" : "0"));
    if (args.traced) {
        rc.log = &log;
        rc.programSpans = &program_spans;
        unizk::obs::setEnabled(true);
        setAllocCounting(true);
    }
    unizk::setGlobalThreadCount(multiThreadCount());

    Outcome out = args.workload == "prove-factorial"
                      ? runProveFactorial(rc)
                      : runService(rc, args.workload == "service-open");
    setAllocCounting(false);

    if (args.traced) {
        out.check(spansNest(log.spans()),
                  "benchmark spans do not nest inside their parents");
        if (!args.traceOut.empty() &&
            !writeTrace(args.traceOut, args, notes, log, program_spans))
            out.check(false, "cannot write " + args.traceOut);
    }
    // A failed check that belongs to no single attempt (determinism,
    // accounting) still fails the run.
    if (!out.correct() && out.failed == 0)
        out.failed = 1;
    out.attempted = std::max<uint64_t>(out.attempted, 1);
    out.failed = std::min(out.failed, out.attempted);

    for (const std::string &n : notes)
        std::printf("%s\n", n.c_str());
    for (const std::string &e : out.errors)
        std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
    for (const Metric &m : out.metrics)
        std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    unizk::obs::JsonWriter w(/*compact=*/true);
    w.beginObject();
    w.kv("correct", out.correct());
    w.kv("attempted", out.attempted);
    w.kv("failed", out.failed);
    w.key("metrics").beginObject();
    for (const Metric &m : out.metrics) {
        w.key(m.name).beginObject();
        w.kv("value", m.value);
        w.kv("unit", m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
    return out.correct() ? 0 : 1;
}
