/**
 * @file
 * Reproduces Figure 10: performance sensitivity of UniZK on the MVM
 * workload while scaling (a) scratchpad size, (b) number of VSAs, and
 * (c) memory bandwidth, each normalized to the default configuration.
 *
 * Paper reference: scratchpad and bandwidth move the memory-bound NTT
 * and polynomial kernels; the Merkle tree scales with the VSA count.
 *
 * The CPU proof is generated once; its recorded kernel trace is then
 * re-simulated under every hardware point (exactly how the paper's
 * simulator explores the design space).
 */

#include "bench_util.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

void
sweepRow(const KernelTrace &trace, const HardwareConfig &hw,
         const std::string &label, double baseline_total,
         const SimReport &base)
{
    const SimReport r = simulateTrace(trace, hw);
    auto norm_class = [&](KernelClass c) {
        const uint64_t cycles = r.classStats(c).cycles;
        const uint64_t base_cycles = base.classStats(c).cycles;
        if (cycles == 0)
            return std::string("-");
        return fmt(static_cast<double>(base_cycles) / static_cast<double>(cycles), 2);
    };
    printRow({label,
              fmt(baseline_total / static_cast<double>(r.totalCycles),
                  2),
              norm_class(KernelClass::Ntt),
              norm_class(KernelClass::Polynomial),
              norm_class(KernelClass::MerkleTree)},
             12);
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    const FriConfig cfg = FriConfig::plonky2(opt.fast);
    const HardwareConfig base_hw = HardwareConfig::paperDefault();

    const WorkloadParams p = defaultParams(AppId::Mvm, opt.scale);
    const size_t reps = opt.repsOverride ? opt.repsOverride
                                         : p.repetitions;
    std::printf("=== Figure 10: design-space exploration (MVM) ===\n");
    std::printf("normalized performance vs default config (total, NTT, "
                "Poly, Merkle)\n\n");
    const AppRunResult run = runPlonky2App(AppId::Mvm, p.rows, reps, cfg,
                                           base_hw,
                                           /*verify_proof=*/false);
    const SimReport base = run.sim;
    const double base_total = static_cast<double>(base.totalCycles);

    printRow({"Config", "Total", "NTT", "Poly", "Merkle"}, 12);
    for (const uint64_t mb : {2u, 4u, 8u, 16u, 32u}) {
        HardwareConfig hw = base_hw;
        hw.scratchpadBytes = mb << 20;
        sweepRow(run.trace, hw, "spad " + std::to_string(mb) + "MB",
                 base_total, base);
    }
    std::printf("\n");
    for (const uint32_t vsas : {8u, 16u, 32u, 64u, 128u}) {
        HardwareConfig hw = base_hw;
        hw.numVsas = vsas;
        sweepRow(run.trace, hw, "vsas " + std::to_string(vsas),
                 base_total, base);
    }
    std::printf("\n");
    for (const double scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
        HardwareConfig hw = base_hw;
        hw.memBandwidthScale = scale;
        sweepRow(run.trace, hw, "bw " + fmt(scale, 2) + "x", base_total,
                 base);
    }
    return 0;
}
