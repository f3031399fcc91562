/**
 * @file
 * Ablation study of UniZK's architectural design choices (DESIGN.md's
 * per-experiment index; not a table in the paper, but each choice is
 * argued in Sections 4-5):
 *
 *  - reverse inter-PE links (enable the 12x3 partial-round mapping),
 *  - the global transpose buffer (hide layout transforms),
 *  - the 2x6-PE NTT pipeline split (two dimensions per trip),
 *  - the grouped partial-product schedule (break Eq. 2's serial chain).
 *
 * Each row disables exactly one feature and reports the end-to-end
 * slowdown plus the most affected kernel class.
 */

#include "bench_util.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

void
ablationRow(const KernelTrace &trace, const SimReport &base,
            const char *name, const HardwareConfig &hw)
{
    const SimReport r = simulateTrace(trace, hw);
    const double slowdown = static_cast<double>(r.totalCycles) /
                            static_cast<double>(base.totalCycles);
    // Find the class whose cycles grew the most.
    const char *worst = "-";
    double worst_growth = 1.0;
    for (size_t i = 0; i < static_cast<size_t>(KernelClass::NumClasses);
         ++i) {
        const auto c = static_cast<KernelClass>(i);
        const uint64_t b = base.classStats(c).cycles;
        const uint64_t n = r.classStats(c).cycles;
        if (b == 0) {
            if (n > 0) {
                worst = kernelClassName(c);
                worst_growth = 1e9;
            }
            continue;
        }
        const double g = static_cast<double>(n) / static_cast<double>(b);
        if (g > worst_growth) {
            worst_growth = g;
            worst = kernelClassName(c);
        }
    }
    printRow({name, fmtX(slowdown, 2), worst}, 30);
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    FriConfig cfg = FriConfig::plonky2(opt.fast);
    cfg.powBits = 8; // PoW grinding is irrelevant to the ablation

    const HardwareConfig base_hw = HardwareConfig::paperDefault();
    const WorkloadParams p = defaultParams(AppId::Factorial, opt.scale);
    const size_t reps =
        opt.repsOverride ? opt.repsOverride : p.repetitions;

    std::printf("=== Ablation: UniZK design choices (Factorial) ===\n");
    const AppRunResult run = runPlonky2App(
        AppId::Factorial, p.rows, reps, cfg, base_hw, false);
    std::printf("baseline: %zu kernels, %.3f ms simulated\n\n",
                run.trace.size(), run.sim.seconds() * 1e3);
    printRow({"Configuration", "Slowdown", "Most-affected"}, 30);
    printRow({"full design", "1.00x", "-"}, 30);

    {
        HardwareConfig hw = base_hw;
        hw.enableReverseLinks = false;
        ablationRow(run.trace, run.sim, "no reverse links", hw);
    }
    {
        HardwareConfig hw = base_hw;
        hw.enableTransposeBuffer = false;
        ablationRow(run.trace, run.sim, "no transpose buffer", hw);
    }
    {
        HardwareConfig hw = base_hw;
        hw.splitNttPipelines = false;
        ablationRow(run.trace, run.sim, "unsplit NTT pipelines", hw);
    }
    {
        HardwareConfig hw = base_hw;
        hw.groupedPartialProducts = false;
        ablationRow(run.trace, run.sim, "serial partial products", hw);
    }
    {
        HardwareConfig hw = base_hw;
        hw.enableReverseLinks = false;
        hw.enableTransposeBuffer = false;
        hw.splitNttPipelines = false;
        hw.groupedPartialProducts = false;
        ablationRow(run.trace, run.sim, "all features disabled", hw);
    }
    return 0;
}
