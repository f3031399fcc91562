/**
 * @file
 * The simulation engine: runs a recorded KernelTrace through the
 * mappers and aggregates cycles, memory requests, and utilization per
 * kernel class -- producing the quantities behind Tables 3 and 4 and
 * Figures 8-10 of the paper.
 */

#ifndef UNIZK_SIM_SIMULATOR_H
#define UNIZK_SIM_SIMULATOR_H

#include <array>
#include <string>
#include <vector>

#include "sim/mappers.h"

namespace unizk {

/** Aggregated statistics for one kernel class. */
struct ClassStats
{
    uint64_t cycles = 0;
    uint64_t computeCycles = 0;
    uint64_t memCycles = 0;
    uint64_t busBytes = 0;
    uint64_t usefulBytes = 0;
    uint64_t readRequests = 0;
    uint64_t writeRequests = 0;
    uint64_t kernels = 0;
};

/** Cycle breakdown of one VSA over a whole simulated run. */
struct VsaCycles
{
    uint64_t busy = 0;  ///< executing compute for the active kernel
    uint64_t stall = 0; ///< waiting on DRAM (memory-bound kernels)
    uint64_t idle = 0;  ///< launch overhead, or unused by the kernel
};

/**
 * Hardware-level performance counters aggregated over a run: the
 * utilization-level evidence behind Tables 4 and 6 and Figure 10
 * (why a kernel class under-utilizes, not just that it does).
 */
struct HwCounters
{
    /** Per-VSA busy/stall/idle cycles (size = config.numVsas). */
    std::vector<VsaCycles> perVsa;

    uint64_t dramRowHits = 0;
    uint64_t dramRowMisses = 0;
    uint64_t dramBankConflicts = 0;

    /** Bus bytes per DRAM bank (size = config.memBanks). */
    std::vector<uint64_t> dramBankBytes;

    /** Largest scratchpad occupancy any kernel reached (bytes). */
    uint64_t scratchpadHighWaterBytes = 0;

    /** Total tile evictions caused by capacity pressure. */
    uint64_t scratchpadEvictions = 0;
};

/**
 * One epoch sample of the simulated machine's occupancy. Sample i is
 * taken at cycle i * timelineSamplePeriod (SimReport::timelineCycle),
 * so the cycle is not stored: the proving service keeps up to 1024 run
 * records, and at ~260 samples each the timeline is most of a record.
 */
struct TimelineSample
{
    uint64_t queueDepth = 0; ///< kernels not yet retired (incl. active)
    uint32_t vsasBusy = 0;   ///< VSAs occupied by the active kernel
    KernelClass cls = KernelClass::Polynomial; ///< active kernel class
};
static_assert(sizeof(TimelineSample) == 16, "TimelineSample is padded");

/** Result of simulating one proof-generation trace. */
struct SimReport
{
    uint64_t totalCycles = 0;
    std::array<ClassStats,
               static_cast<size_t>(KernelClass::NumClasses)>
        perClass{};
    HardwareConfig config;

    /** Hardware counters (v2 stats: per-VSA, DRAM rows, scratchpad). */
    HwCounters hw;

    /** Occupancy timeline sampled every timelineSamplePeriod cycles. */
    std::vector<TimelineSample> timeline;

    /** The sample period actually used (resolved from config). */
    uint64_t timelineSamplePeriod = 0;

    /** The cycle at which timeline sample @p i was taken. */
    uint64_t timelineCycle(size_t i) const
    {
        return i * timelineSamplePeriod;
    }

    const ClassStats &
    classStats(KernelClass c) const
    {
        return perClass[static_cast<size_t>(c)];
    }

    /** Simulated wall-clock time. */
    double seconds() const { return config.cyclesToSeconds(totalCycles); }

    /** Fraction of total cycles spent in class @p c. */
    double cycleFraction(KernelClass c) const;

    /**
     * Memory-bandwidth utilization while kernels of class @p c run
     * (bus bytes moved / peak capacity over those cycles) -- Table 4.
     */
    double memUtilization(KernelClass c) const;

    /**
     * Fraction of bus traffic that carried useful data for class @p c
     * (useful bytes / bus bytes; 1.0 for perfectly sequential streams,
     * lower when request rounding or scatter access wastes bandwidth).
     */
    double usefulFraction(KernelClass c) const;

    /**
     * VSA utilization while kernels of class @p c run (compute demand /
     * available VSA cycles) -- Table 4.
     */
    double vsaUtilization(KernelClass c) const;

    uint64_t totalReadRequests() const;
    uint64_t totalWriteRequests() const;
};

/** Simulate an entire kernel trace on the given hardware. */
SimReport simulateTrace(const KernelTrace &trace,
                        const HardwareConfig &cfg);

/** One-line per-class summary (for log output). */
std::string formatReport(const SimReport &report);

} // namespace unizk

#endif // UNIZK_SIM_SIMULATOR_H
