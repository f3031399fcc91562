#include "obs/stats_export.h"

#include <utility>

#include "obs/json_writer.h"

namespace unizk {
namespace obs {

namespace {

void
writeBreakdown(JsonWriter &w, const KernelTimeBreakdown &b)
{
    w.beginObject();
    w.kv("totalSeconds", b.total());
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        const auto c = static_cast<KernelClass>(i);
        w.kv(kernelClassName(c), b.seconds(c));
    }
    w.endObject();
}

void
writeHwCounters(JsonWriter &w, const HwCounters &hw)
{
    w.beginObject();

    w.key("vsa").beginObject();
    uint64_t total_busy = 0, total_stall = 0, total_idle = 0;
    w.key("busyCycles").beginArray();
    for (const VsaCycles &v : hw.perVsa) {
        w.value(v.busy);
        total_busy += v.busy;
    }
    w.endArray();
    w.key("stallCycles").beginArray();
    for (const VsaCycles &v : hw.perVsa) {
        w.value(v.stall);
        total_stall += v.stall;
    }
    w.endArray();
    w.key("idleCycles").beginArray();
    for (const VsaCycles &v : hw.perVsa) {
        w.value(v.idle);
        total_idle += v.idle;
    }
    w.endArray();
    w.kv("totalBusy", total_busy);
    w.kv("totalStall", total_stall);
    w.kv("totalIdle", total_idle);
    w.endObject();

    w.key("dram").beginObject();
    w.kv("rowHits", hw.dramRowHits);
    w.kv("rowMisses", hw.dramRowMisses);
    w.kv("bankConflicts", hw.dramBankConflicts);
    w.key("bankBytes").beginArray();
    for (const uint64_t b : hw.dramBankBytes)
        w.value(b);
    w.endArray();
    w.endObject();

    w.key("scratchpad").beginObject();
    w.kv("highWaterBytes", hw.scratchpadHighWaterBytes);
    w.kv("evictions", hw.scratchpadEvictions);
    w.endObject();

    w.endObject();
}

void
writeTimeline(JsonWriter &w, const SimReport &sim)
{
    w.beginObject();
    w.kv("samplePeriodCycles", sim.timelineSamplePeriod);
    w.key("samples").beginArray();
    for (size_t i = 0; i < sim.timeline.size(); ++i) {
        const TimelineSample &s = sim.timeline[i];
        w.beginObject();
        w.kv("cycle", sim.timelineCycle(i));
        w.kv("vsasBusy", static_cast<uint64_t>(s.vsasBusy));
        w.kv("queueDepth", s.queueDepth);
        w.kv("class", kernelClassName(s.cls));
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeSimReport(JsonWriter &w, const SimReport &sim)
{
    w.beginObject();
    w.kv("totalCycles", sim.totalCycles);
    w.kv("seconds", sim.seconds());
    w.kv("readRequests", sim.totalReadRequests());
    w.kv("writeRequests", sim.totalWriteRequests());

    w.key("config").beginObject();
    w.kv("numVsas", static_cast<uint64_t>(sim.config.numVsas));
    w.kv("clockGhz", sim.config.clockGhz);
    w.kv("peakMemBytesPerCycle",
         static_cast<uint64_t>(sim.config.peakMemBytesPerCycle));
    w.endObject();

    w.key("perClass").beginObject();
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        const auto c = static_cast<KernelClass>(i);
        const ClassStats &s = sim.classStats(c);
        w.key(kernelClassName(c)).beginObject();
        w.kv("cycles", s.cycles);
        w.kv("computeCycles", s.computeCycles);
        w.kv("memCycles", s.memCycles);
        w.kv("busBytes", s.busBytes);
        w.kv("usefulBytes", s.usefulBytes);
        w.kv("readRequests", s.readRequests);
        w.kv("writeRequests", s.writeRequests);
        w.kv("kernels", s.kernels);
        w.kv("cycleFraction", sim.cycleFraction(c));
        w.kv("memUtilization", sim.memUtilization(c));
        w.kv("usefulFraction", sim.usefulFraction(c));
        w.kv("vsaUtilization", sim.vsaUtilization(c));
        w.endObject();
    }
    w.endObject();

    w.key("hwCounters");
    writeHwCounters(w, sim.hw);

    w.key("timeline");
    writeTimeline(w, sim);

    w.endObject();
}

/** One HistogramData as {count,sum,min,max,buckets:[{lo,hi,count}]}. */
void
writeHistogramData(JsonWriter &w, const HistogramData &data)
{
    w.beginObject();
    w.kv("count", data.count);
    w.kv("sum", data.sum);
    w.kv("min", data.min);
    w.kv("max", data.max);
    w.key("buckets").beginArray();
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
        if (data.buckets[i] == 0)
            continue;
        const auto [lo, hi] = bucketRange(i);
        w.beginObject();
        w.kv("lo", lo);
        w.kv("hi", hi);
        w.kv("count", data.buckets[i]);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

void
writeSpanBufferStats(JsonWriter &w, const SpanBufferStats &spans)
{
    w.beginObject();
    w.kv("dropped", spans.dropped);
    w.kv("capPerThread", spans.capPerThread);
    w.key("perThread").beginArray();
    for (const SpanBufferInfo &t : spans.perThread) {
        w.beginObject();
        w.kv("threadId", static_cast<uint64_t>(t.threadId));
        w.kv("buffered", t.buffered);
        w.kv("highWater", t.highWater);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

} // namespace

std::string
statsToJson(const std::vector<RunStats> &runs,
            const std::map<std::string, uint64_t> &counters,
            const std::map<std::string, HistogramData> &histograms)
{
    JsonWriter w;
    w.beginObject();
    w.kv("schema", "unizk-stats-v2");

    w.key("runs").beginArray();
    for (const RunStats &r : runs) {
        w.beginObject();
        w.kv("app", r.app);
        w.kv("protocol", r.protocol);
        w.kv("rows", static_cast<uint64_t>(r.rows));
        w.kv("repetitions", static_cast<uint64_t>(r.repetitions));
        w.kv("threads", static_cast<uint64_t>(r.threads));

        w.key("cpu").beginObject();
        w.kv("totalSeconds", r.cpuSeconds);
        w.key("breakdown");
        writeBreakdown(w, r.cpuBreakdown);
        w.endObject();

        w.key("proof").beginObject();
        w.kv("bytes", static_cast<uint64_t>(r.proofBytes));
        w.kv("verified", r.verified);
        w.endObject();

        w.key("sim");
        writeSimReport(w, r.sim);

        w.endObject();
    }
    w.endArray();

    w.key("counters").beginObject();
    for (const auto &[name, value] : counters)
        w.kv(name, value);
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, data] : histograms) {
        w.key(name);
        writeHistogramData(w, data);
    }
    w.endObject();

    w.key("spanBuffers");
    writeSpanBufferStats(w, spanBufferStats());

    w.endObject();
    return w.str();
}

std::string
snapshotToJson(const StatsSnapshot &snap)
{
    JsonWriter w(/*compact=*/true);
    w.beginObject();
    w.kv("schema", "unizk-stats-v3");
    w.kv("sequence", snap.sequence);
    w.kv("windowStartNs", snap.windowStartNs);
    w.kv("windowEndNs", snap.windowEndNs);

    w.key("counters").beginObject();
    for (const auto &[name, window] : snap.counters) {
        w.key(name).beginObject();
        w.kv("delta", window.delta);
        w.kv("cumulative", window.cumulative);
        w.endObject();
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (const auto &[name, window] : snap.histograms) {
        w.key(name).beginObject();
        w.key("delta");
        writeHistogramData(w, window.delta);
        w.key("cumulative");
        writeHistogramData(w, window.cumulative);
        w.endObject();
    }
    w.endObject();

    w.key("spanBuffers");
    writeSpanBufferStats(w, snap.spans);

    w.endObject();
    return w.str();
}

} // namespace obs
} // namespace unizk
