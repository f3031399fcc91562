#include "sim/simulator.h"

#include <sstream>

#include "obs/obs.h"

namespace unizk {

double
SimReport::cycleFraction(KernelClass c) const
{
    if (totalCycles == 0)
        return 0.0;
    return static_cast<double>(classStats(c).cycles) /
           static_cast<double>(totalCycles);
}

double
SimReport::memUtilization(KernelClass c) const
{
    const ClassStats &s = classStats(c);
    if (s.cycles == 0)
        return 0.0;
    const double capacity = config.effectivePeakBytesPerCycle() *
                            static_cast<double>(s.cycles);
    return static_cast<double>(s.busBytes) / capacity;
}

double
SimReport::usefulFraction(KernelClass c) const
{
    const ClassStats &s = classStats(c);
    if (s.busBytes == 0)
        return 0.0;
    return static_cast<double>(s.usefulBytes) /
           static_cast<double>(s.busBytes);
}

double
SimReport::vsaUtilization(KernelClass c) const
{
    const ClassStats &s = classStats(c);
    if (s.cycles == 0)
        return 0.0;
    return std::min(1.0, static_cast<double>(s.computeCycles) /
                             static_cast<double>(s.cycles));
}

uint64_t
SimReport::totalReadRequests() const
{
    uint64_t total = 0;
    for (const auto &s : perClass)
        total += s.readRequests;
    return total;
}

uint64_t
SimReport::totalWriteRequests() const
{
    uint64_t total = 0;
    for (const auto &s : perClass)
        total += s.writeRequests;
    return total;
}

namespace {

/** Hard cap on timeline length so tiny explicit periods stay bounded. */
constexpr size_t kMaxTimelineSamples = 65536;

} // namespace

SimReport
simulateTrace(const KernelTrace &trace, const HardwareConfig &cfg)
{
    UNIZK_SPAN("sim/simulate-trace");
    UNIZK_COUNTER_ADD("sim.kernel_ops", trace.ops.size());
    SimReport report;
    report.config = cfg;
    report.hw.perVsa.assign(cfg.numVsas, VsaCycles{});
    report.hw.dramBankBytes.assign(cfg.memBanks, 0);

    /** One retired kernel on the end-to-end timeline. */
    struct Segment
    {
        uint64_t start = 0;
        uint64_t cycles = 0;
        uint32_t vsas = 0;
        size_t opIndex = 0;
        KernelClass cls = KernelClass::Polynomial;
    };
    std::vector<Segment> segments;
    segments.reserve(trace.ops.size());

    for (size_t i = 0; i < trace.ops.size(); ++i) {
        const KernelSim sim = mapKernel(trace.ops[i].payload, cfg);
        ClassStats &s = report.perClass[static_cast<size_t>(sim.cls)];
        s.cycles += sim.cycles;
        s.computeCycles += sim.computeCycles;
        s.memCycles += sim.mem.cycles;
        s.busBytes += sim.mem.readBytes + sim.mem.writeBytes;
        s.usefulBytes += sim.mem.usefulBytes;
        s.readRequests += sim.mem.readRequests;
        s.writeRequests += sim.mem.writeRequests;
        s.kernels += 1;

        // DRAM row-buffer and per-bank counters.
        report.hw.dramRowHits += sim.mem.rowHits;
        report.hw.dramRowMisses += sim.mem.rowMisses;
        report.hw.dramBankConflicts += sim.mem.bankConflicts;
        for (size_t b = 0; b < sim.mem.bankBytes.size() &&
                           b < report.hw.dramBankBytes.size();
             ++b) {
            report.hw.dramBankBytes[b] += sim.mem.bankBytes[b];
        }

        // Scratchpad pressure.
        report.hw.scratchpadHighWaterBytes =
            std::max(report.hw.scratchpadHighWaterBytes,
                     sim.scratchpadBytesUsed);
        report.hw.scratchpadEvictions += sim.scratchpadEvictions;

        // Per-VSA cycle split: occupied VSAs compute for the kernel's
        // compute demand, wait on DRAM for the rest of the latency
        // (memory-bound kernels), and idle through launch overhead;
        // unoccupied VSAs idle for the whole kernel.
        const uint32_t used = std::min(sim.vsasUsed, cfg.numVsas);
        const uint64_t busy = std::min(sim.computeCycles, sim.cycles);
        const uint64_t overhead = std::min<uint64_t>(
            cfg.kernelLaunchOverhead, sim.cycles - busy);
        const uint64_t stall = sim.cycles - busy - overhead;
        for (uint32_t v = 0; v < cfg.numVsas; ++v) {
            VsaCycles &vc = report.hw.perVsa[v];
            if (v < used) {
                vc.busy += busy;
                vc.stall += stall;
                vc.idle += overhead;
            } else {
                vc.idle += sim.cycles;
            }
        }

        if (sim.cycles > 0) {
            segments.push_back(
                {report.totalCycles, sim.cycles, used, i, sim.cls});
        }
        report.totalCycles += sim.cycles;
    }

    // Epoch-sampled occupancy timeline over the end-to-end schedule.
    uint64_t period = cfg.timelineSamplePeriod;
    if (period == 0)
        period = std::max<uint64_t>(1, report.totalCycles / 256);
    period = std::max(period, std::max<uint64_t>(
                                  1, report.totalCycles /
                                         kMaxTimelineSamples));
    report.timelineSamplePeriod = period;
    size_t seg = 0;
    for (uint64_t t = 0; t < report.totalCycles &&
                         report.timeline.size() < kMaxTimelineSamples;
         t += period) {
        while (seg < segments.size() &&
               segments[seg].start + segments[seg].cycles <= t)
            ++seg;
        if (seg >= segments.size())
            break;
        report.timeline.push_back(
            {static_cast<uint64_t>(trace.ops.size() -
                                   segments[seg].opIndex),
             segments[seg].vsas, segments[seg].cls});
    }
    return report;
}

std::string
formatReport(const SimReport &report)
{
    std::ostringstream oss;
    oss << "total cycles: " << report.totalCycles << " ("
        << report.seconds() * 1e3 << " ms)\n";
    oss << "read requests: " << report.totalReadRequests()
        << ", write requests: " << report.totalWriteRequests() << "\n";
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        const auto c = static_cast<KernelClass>(i);
        const ClassStats &s = report.classStats(c);
        if (s.kernels == 0)
            continue;
        oss << "  " << kernelClassName(c) << ": "
            << report.cycleFraction(c) * 100.0 << "% of cycles, mem util "
            << report.memUtilization(c) * 100.0 << "% (useful "
            << report.usefulFraction(c) * 100.0 << "%), VSA util "
            << report.vsaUtilization(c) * 100.0 << "% (" << s.kernels
            << " kernels)\n";
    }
    return oss.str();
}

} // namespace unizk
