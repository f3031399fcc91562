/**
 * @file
 * Tests for the UniZK simulator: DRAM model behaviour, per-kernel
 * mapper properties (compute- vs memory-bound, scaling with hardware
 * resources), and the trace engine's aggregation.
 */

#include <gtest/gtest.h>

#include "sim/dram.h"
#include "sim/mappers.h"
#include "sim/simulator.h"

namespace unizk {
namespace {

HardwareConfig
defaultHw()
{
    return HardwareConfig::paperDefault();
}

TEST(Dram, SequentialStreamApproachesPeakBandwidth)
{
    const HardwareConfig cfg = defaultHw();
    DramModel dram(cfg);
    const uint64_t bytes = 64ull << 20;
    const DramResult r = dram.access({bytes, 0, false});
    const double achieved =
        static_cast<double>(r.readBytes) / static_cast<double>(r.cycles);
    // A pure sequential stream sustains the derated stream rate.
    EXPECT_GT(achieved,
              0.95 * cfg.dramStreamEfficiency * cfg.peakMemBytesPerCycle);
    EXPECT_EQ(r.readRequests, bytes / cfg.memRequestBytes);
}

TEST(Dram, SmallGranularityWastesBandwidth)
{
    const HardwareConfig cfg = defaultHw();
    DramModel dram(cfg);
    const uint64_t bytes = 1ull << 20;
    const DramResult seq = dram.access({bytes, 0, false});
    // 24-byte scattered runs (gate-evaluation style, Sec. 7.1): each
    // run occupies a full 64B request.
    const DramResult scat = dram.access({bytes, 24, false});
    EXPECT_GT(scat.cycles, 2 * seq.cycles);
    EXPECT_GT(scat.readBytes, 2 * bytes);
}

TEST(Dram, WritesCountedSeparately)
{
    DramModel dram(defaultHw());
    const DramResult w = dram.access({4096, 0, true});
    EXPECT_EQ(w.readRequests, 0u);
    EXPECT_EQ(w.writeRequests, 64u);
}

TEST(Dram, ZeroBytesFree)
{
    DramModel dram(defaultHw());
    const DramResult r = dram.access({0, 0, false});
    EXPECT_EQ(r.cycles, 0u);
}

TEST(Dram, PartialRunBilledByActualLength)
{
    // Regression: a stream whose byte count is not a multiple of its
    // run length used to bill the trailing partial run as a full run.
    // 1000 bytes in 384-byte runs = 2 full runs (6 requests each) plus
    // a 232-byte tail (4 requests), not 3 full runs (18 requests).
    const HardwareConfig cfg = defaultHw();
    ASSERT_EQ(cfg.memRequestBytes, 64u);
    DramModel dram(cfg);
    const DramResult r = dram.access({1000, 384, false});
    EXPECT_EQ(r.readRequests, 16u);
    EXPECT_EQ(r.readBytes, 16u * 64u);
    EXPECT_EQ(r.usefulBytes, 1000u);
}

TEST(Dram, TailShorterThanOneRequest)
{
    // 130 bytes in 64-byte runs: two full runs plus a 2-byte tail that
    // still occupies one whole request.
    DramModel dram(defaultHw());
    const DramResult r = dram.access({130, 64, false});
    EXPECT_EQ(r.readRequests, 3u);
    EXPECT_EQ(r.usefulBytes, 130u);
}

TEST(Dram, BandwidthScaleKnob)
{
    HardwareConfig cfg = defaultHw();
    const uint64_t bytes = 16ull << 20;
    const uint64_t base = DramModel(cfg).access({bytes, 0, false}).cycles;
    cfg.memBandwidthScale = 2.0;
    const uint64_t fast = DramModel(cfg).access({bytes, 0, false}).cycles;
    EXPECT_LT(fast, base);
    EXPECT_NEAR(static_cast<double>(base) / static_cast<double>(fast),
                2.0, 0.1);
}

TEST(MapNtt, IsMemoryBound)
{
    // Section 7.2: NTT shows the highest bandwidth utilization but low
    // VSA utilization.
    const HardwareConfig cfg = defaultHw();
    NttKernel k{20, 8, false, true, true, PolyLayout::PolyMajor};
    const KernelSim sim = mapNtt(k, cfg);
    EXPECT_GT(sim.mem.cycles, sim.computeCycles);
    EXPECT_EQ(sim.cls, KernelClass::Ntt);
}

TEST(MapNtt, SmallNttFitsScratchpadAndSavesTraffic)
{
    const HardwareConfig cfg = defaultHw();
    NttKernel small{12, 1, false, false, false, PolyLayout::PolyMajor};
    NttKernel large{22, 1, false, false, false, PolyLayout::PolyMajor};
    const KernelSim s = mapNtt(small, cfg);
    const KernelSim l = mapNtt(large, cfg);
    // The large NTT (multi-trip, out of scratchpad) must move more than
    // proportionally more data.
    const double bytes_ratio =
        static_cast<double>(l.mem.readBytes + l.mem.writeBytes) /
        static_cast<double>(s.mem.readBytes + s.mem.writeBytes);
    EXPECT_GT(bytes_ratio, double{1 << 10});
}

TEST(MapMerkle, IsComputeBound)
{
    // Hash kernels saturate the VSAs with moderate bandwidth (Table 4).
    const HardwareConfig cfg = defaultHw();
    MerkleKernel k{1 << 16, 135, 4};
    const KernelSim sim = mapMerkle(k, cfg);
    EXPECT_GT(sim.computeCycles, sim.mem.cycles);
    EXPECT_EQ(sim.cls, KernelClass::MerkleTree);
}

TEST(MapMerkle, ScalesWithVsaCount)
{
    // Figure 10: Merkle-tree performance depends primarily on #VSAs.
    MerkleKernel k{1 << 16, 135, 4};
    HardwareConfig cfg = defaultHw();
    const uint64_t base = mapMerkle(k, cfg).cycles;
    cfg.numVsas = 64;
    const uint64_t doubled = mapMerkle(k, cfg).cycles;
    EXPECT_LT(doubled, base);
    EXPECT_NEAR(static_cast<double>(base) / static_cast<double>(doubled),
                2.0, 0.3);
}

TEST(MapVecOp, RandomAccessHurts)
{
    const HardwareConfig cfg = defaultHw();
    VecOpKernel seq{1 << 20, 4, 1, 8, 0};
    VecOpKernel rnd{1 << 20, 4, 1, 8, 24};
    EXPECT_GT(mapVecOp(rnd, cfg).cycles, mapVecOp(seq, cfg).cycles);
}

TEST(MapPartialProduct, SerialChainSmallVsElementwise)
{
    const HardwareConfig cfg = defaultHw();
    PartialProductKernel k{1 << 20, 8};
    const KernelSim sim = mapPartialProduct(k, cfg);
    EXPECT_GT(sim.cycles, 0u);
    EXPECT_EQ(sim.cls, KernelClass::Polynomial);
}

TEST(MapTranspose, IsFree)
{
    // The global transpose buffer hides layout transforms (Sec. 4).
    const KernelSim sim = mapTranspose(TransposeKernel{135, 1 << 16},
                                       defaultHw());
    EXPECT_EQ(sim.cycles, 0u);
    EXPECT_EQ(sim.cls, KernelClass::LayoutTransform);
}

TEST(Simulator, AggregatesClassesAndCounts)
{
    KernelTrace trace;
    trace.ops.push_back(
        {NttKernel{16, 4, true, false, false, PolyLayout::PolyMajor},
         "intt"});
    trace.ops.push_back({MerkleKernel{1 << 15, 135, 4}, "tree"});
    trace.ops.push_back({VecOpKernel{1 << 16, 2, 1, 4, 0}, "vec"});
    trace.ops.push_back({HashKernel{1000}, "pow"});
    trace.ops.push_back({TransposeKernel{16, 1 << 15}, "tr"});

    const SimReport report = simulateTrace(trace, defaultHw());
    EXPECT_GT(report.totalCycles, 0u);
    EXPECT_EQ(report.classStats(KernelClass::Ntt).kernels, 1u);
    EXPECT_EQ(report.classStats(KernelClass::MerkleTree).kernels, 1u);
    EXPECT_EQ(report.classStats(KernelClass::Polynomial).kernels, 1u);
    EXPECT_EQ(report.classStats(KernelClass::OtherHash).kernels, 1u);
    EXPECT_EQ(report.classStats(KernelClass::LayoutTransform).cycles, 0u);
    EXPECT_GT(report.totalReadRequests(), 0u);
    EXPECT_GT(report.totalWriteRequests(), 0u);

    double fractions = 0.0;
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        fractions += report.cycleFraction(static_cast<KernelClass>(i));
    }
    EXPECT_NEAR(fractions, 1.0, 1e-9);
}

TEST(Simulator, UtilizationShapesMatchTable4)
{
    // A representative mix: the per-class utilization ordering must
    // reproduce Table 4's qualitative shape -- NTT: high mem / low VSA;
    // hash: very high VSA / moderate mem; poly: low both.
    KernelTrace trace;
    trace.ops.push_back(
        {NttKernel{18, 135, false, true, true, PolyLayout::PolyMajor},
         "lde"});
    trace.ops.push_back({MerkleKernel{1 << 18, 135, 4}, "tree"});
    trace.ops.push_back({VecOpKernel{1 << 18, 8, 1, 16, 24}, "gates"});

    const SimReport r = simulateTrace(trace, defaultHw());
    EXPECT_GT(r.memUtilization(KernelClass::Ntt), 0.3);
    EXPECT_LT(r.vsaUtilization(KernelClass::Ntt), 0.2);
    EXPECT_GT(r.vsaUtilization(KernelClass::MerkleTree), 0.8);
    EXPECT_LT(r.memUtilization(KernelClass::MerkleTree), 0.5);
    EXPECT_LT(r.vsaUtilization(KernelClass::Polynomial), 0.2);
}

TEST(Simulator, MemUtilizationCountsBusBytes)
{
    // Utilization measures bandwidth *occupied* (bus bytes moved), so a
    // scattered-access kernel whose small runs waste request granularity
    // must report mem utilization from bus bytes, with the useful-payload
    // ratio exposed separately via usefulFraction().
    KernelTrace trace;
    trace.ops.push_back({VecOpKernel{1 << 16, 4, 1, 8, 24}, "gates"});
    const HardwareConfig cfg = defaultHw();
    const SimReport r = simulateTrace(trace, cfg);
    const ClassStats &s = r.classStats(KernelClass::Polynomial);
    ASSERT_GT(s.cycles, 0u);
    ASSERT_GT(s.busBytes, s.usefulBytes);

    const double capacity = cfg.effectivePeakBytesPerCycle() *
                            static_cast<double>(s.cycles);
    EXPECT_NEAR(r.memUtilization(KernelClass::Polynomial),
                static_cast<double>(s.busBytes) / capacity, 1e-12);
    EXPECT_NEAR(r.usefulFraction(KernelClass::Polynomial),
                static_cast<double>(s.usefulBytes) /
                    static_cast<double>(s.busBytes),
                1e-12);
    EXPECT_LT(r.usefulFraction(KernelClass::Polynomial), 1.0);
    // Bus-byte utilization strictly exceeds the useful-bytes-only view.
    EXPECT_GT(r.memUtilization(KernelClass::Polynomial),
              static_cast<double>(s.usefulBytes) / capacity);
}

TEST(Simulator, UsefulFractionSequentialStreamIsOne)
{
    // A fully sequential NTT moves no wasted bytes (runs are multiples
    // of the request size), so every bus byte is payload.
    KernelTrace trace;
    trace.ops.push_back(
        {NttKernel{16, 4, false, false, false, PolyLayout::PolyMajor},
         "ntt"});
    const SimReport r = simulateTrace(trace, defaultHw());
    EXPECT_NEAR(r.usefulFraction(KernelClass::Ntt), 1.0, 1e-12);
}

TEST(Simulator, UsefulFractionZeroWithoutTraffic)
{
    KernelTrace trace;
    const SimReport r = simulateTrace(trace, defaultHw());
    EXPECT_EQ(r.usefulFraction(KernelClass::Ntt), 0.0);
    EXPECT_EQ(r.memUtilization(KernelClass::Ntt), 0.0);
}

TEST(Simulator, SecondsUsesClock)
{
    KernelTrace trace;
    trace.ops.push_back({HashKernel{100000}, "pow"});
    HardwareConfig cfg = defaultHw();
    const SimReport a = simulateTrace(trace, cfg);
    cfg.clockGhz = 2.0;
    const SimReport b = simulateTrace(trace, cfg);
    EXPECT_NEAR(a.seconds() / b.seconds(), 2.0, 1e-9);
}

TEST(Dram, RowBufferCountersPartitionRequests)
{
    const HardwareConfig cfg = defaultHw();
    DramModel dram(cfg);
    const uint64_t bytes = 4ull << 20;
    const DramResult r = dram.access({bytes, 0, false});
    // Every request is either a row hit or a row miss.
    EXPECT_EQ(r.rowHits + r.rowMisses, r.readRequests);
    // A sequential stream is row-buffer friendly: one miss per row.
    EXPECT_EQ(r.rowMisses, bytes / cfg.memRowBytes);
    EXPECT_GT(r.rowHits, r.rowMisses);
    // The stream's bytes stripe across every bank.
    ASSERT_EQ(r.bankBytes.size(), cfg.memBanks);
    uint64_t striped = 0;
    for (const uint64_t b : r.bankBytes) {
        EXPECT_GT(b, 0u);
        striped += b;
    }
    EXPECT_EQ(striped, r.readBytes);
}

TEST(Dram, ScatteredAccessMissesMoreRows)
{
    DramModel dram(defaultHw());
    const uint64_t bytes = 1ull << 20;
    const DramResult seq = dram.access({bytes, 0, false});
    const DramResult scat = dram.access({bytes, 24, false});
    // Each short run lands in its own row: far worse locality.
    EXPECT_GT(scat.rowMisses, 10 * seq.rowMisses);
    EXPECT_GT(scat.bankConflicts, seq.bankConflicts);
}

TEST(Dram, AccumulateMergesCounters)
{
    DramModel dram(defaultHw());
    DramResult total = dram.access({1 << 16, 0, false});
    const DramResult more = dram.access({1 << 16, 0, true});
    const uint64_t hits = total.rowHits;
    total.accumulate(more);
    EXPECT_EQ(total.rowHits, hits + more.rowHits);
    EXPECT_EQ(total.writeRequests, more.writeRequests);
    ASSERT_EQ(total.bankBytes.size(), more.bankBytes.size());
}

TEST(Simulator, HwCountersAccountEveryCycle)
{
    KernelTrace trace;
    trace.ops.push_back(
        {NttKernel{16, 4, true, false, false, PolyLayout::PolyMajor},
         "intt"});
    trace.ops.push_back({MerkleKernel{1 << 15, 135, 4}, "tree"});
    trace.ops.push_back({VecOpKernel{1 << 16, 2, 1, 4, 0}, "vec"});

    const HardwareConfig cfg = defaultHw();
    const SimReport r = simulateTrace(trace, cfg);
    ASSERT_EQ(r.hw.perVsa.size(), cfg.numVsas);
    for (const VsaCycles &v : r.hw.perVsa) {
        // busy + stall + idle partitions the full schedule on every VSA.
        EXPECT_EQ(v.busy + v.stall + v.idle, r.totalCycles);
    }
    EXPECT_GT(r.hw.perVsa[0].busy, 0u);
    EXPECT_GT(r.hw.perVsa[0].stall, 0u);
    EXPECT_GT(r.hw.dramRowHits, 0u);
    EXPECT_GT(r.hw.dramRowMisses, 0u);
    EXPECT_GT(r.hw.scratchpadHighWaterBytes, 0u);
    ASSERT_EQ(r.hw.dramBankBytes.size(), cfg.memBanks);
}

TEST(Simulator, HwCountersEmptyTraceAllZero)
{
    const SimReport r = simulateTrace(KernelTrace{}, defaultHw());
    for (const VsaCycles &v : r.hw.perVsa) {
        EXPECT_EQ(v.busy + v.stall + v.idle, 0u);
    }
    EXPECT_EQ(r.hw.dramRowHits, 0u);
    EXPECT_EQ(r.hw.scratchpadHighWaterBytes, 0u);
    EXPECT_TRUE(r.timeline.empty());
}

TEST(Simulator, ScratchpadEvictionsOnlyWhenOversubscribed)
{
    const HardwareConfig cfg = defaultHw();
    KernelTrace fits, spills;
    fits.ops.push_back(
        {NttKernel{12, 1, false, false, false, PolyLayout::PolyMajor},
         "small"});
    spills.ops.push_back(
        {NttKernel{22, 1, false, false, false, PolyLayout::PolyMajor},
         "large"});
    EXPECT_EQ(simulateTrace(fits, cfg).hw.scratchpadEvictions, 0u);
    EXPECT_GT(simulateTrace(spills, cfg).hw.scratchpadEvictions, 0u);
}

TEST(Simulator, TimelineSamplesCoverSchedule)
{
    KernelTrace trace;
    trace.ops.push_back(
        {NttKernel{16, 4, true, false, false, PolyLayout::PolyMajor},
         "intt"});
    trace.ops.push_back({MerkleKernel{1 << 15, 135, 4}, "tree"});

    const SimReport r = simulateTrace(trace, defaultHw());
    ASSERT_FALSE(r.timeline.empty());
    EXPECT_GT(r.timelineSamplePeriod, 0u);
    uint64_t last = 0;
    for (size_t i = 0; i < r.timeline.size(); ++i) {
        const TimelineSample &s = r.timeline[i];
        if (i > 0) {
            EXPECT_GT(r.timelineCycle(i), last);
        }
        last = r.timelineCycle(i);
        EXPECT_LT(r.timelineCycle(i), r.totalCycles);
        EXPECT_GT(s.vsasBusy, 0u);
        EXPECT_GT(s.queueDepth, 0u);
        EXPECT_LE(s.queueDepth, trace.ops.size());
    }
    // Queue depth drains monotonically as kernels retire.
    EXPECT_GE(r.timeline.front().queueDepth,
              r.timeline.back().queueDepth);
}

TEST(Simulator, TimelinePeriodKnobIsHonored)
{
    KernelTrace trace;
    trace.ops.push_back({MerkleKernel{1 << 15, 135, 4}, "tree"});

    HardwareConfig cfg = defaultHw();
    cfg.timelineSamplePeriod = 1000;
    const SimReport r = simulateTrace(trace, cfg);
    EXPECT_EQ(r.timelineSamplePeriod, 1000u);
    ASSERT_GT(r.timeline.size(), 1u);
    EXPECT_EQ(r.timelineCycle(1) - r.timelineCycle(0), 1000u);
}

TEST(Simulator, CountersAreAdditiveNotBehavioral)
{
    // Guard for the Table 3/4 reproduction: the hardware counters must
    // not perturb the modeled cycle counts.
    KernelTrace trace;
    trace.ops.push_back(
        {NttKernel{18, 135, false, true, true, PolyLayout::PolyMajor},
         "lde"});
    trace.ops.push_back({MerkleKernel{1 << 18, 135, 4}, "tree"});

    HardwareConfig cfg = defaultHw();
    const SimReport base = simulateTrace(trace, cfg);
    cfg.timelineSamplePeriod = 17; // extreme sampling
    const SimReport dense = simulateTrace(trace, cfg);
    EXPECT_EQ(base.totalCycles, dense.totalCycles);
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        const auto c = static_cast<KernelClass>(i);
        EXPECT_EQ(base.classStats(c).cycles, dense.classStats(c).cycles);
    }
}

TEST(Simulator, FormatReportMentionsClasses)
{
    KernelTrace trace;
    trace.ops.push_back({MerkleKernel{1 << 12, 8, 2}, "tree"});
    const std::string text = formatReport(simulateTrace(trace,
                                                        defaultHw()));
    EXPECT_NE(text.find("MerkleTree"), std::string::npos);
    EXPECT_NE(text.find("read requests"), std::string::npos);
}

} // namespace
} // namespace unizk
