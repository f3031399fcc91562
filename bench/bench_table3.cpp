/**
 * @file
 * Reproduces Table 3: end-to-end Plonky2 proving time on the CPU
 * baseline, the (modeled) GPU baseline, and simulated UniZK, with
 * speedups over the CPU.
 *
 * The CPU column is measured single-threaded and divided by the
 * paper's observed 10x multithreading gain (Table 1 vs Table 3 in the
 * paper; see EXPERIMENTS.md). Paper reference: GPU 1.2-4.6x, UniZK
 * 61-147x (97x average).
 */

#include <cmath>

#include "bench_util.h"
#include "model/gpu_model.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    const FriConfig cfg = FriConfig::plonky2(opt.fast);
    const HardwareConfig hw = opt.paperHw();

    // With a real thread count (> 1) the CPU baseline is measured
    // directly; single-threaded runs fall back to the paper's modeled
    // parallel-scaling factor so magnitudes stay comparable.
    const bool measured_mt = opt.threads > 1;
    const double cpu_scale = measured_mt ? 1.0 : cpuParallelSpeedup;

    std::printf("=== Table 3: Plonky2 proving time, CPU vs GPU vs UniZK "
                "===\n");
    std::printf("paper: GPU speedup 1.2-4.6x; UniZK speedup 61-147x "
                "(avg 97x)\n");
    if (measured_mt)
        std::printf("(CPU column: measured with %u threads)\n\n",
                    opt.threads);
    else
        std::printf("(CPU column: measured 1-thread / %.0fx parallel "
                    "scaling)\n\n",
                    cpuParallelSpeedup);
    printRow({"Application", "CPU (s)", "GPU (s)", "GPU spdup",
              "UniZK (s)", "UniZK spdup"});

    double gpu_geo = 1.0, uni_geo = 1.0;
    size_t count = 0;
    ObsArtifacts artifacts(opt);
    for (const AppId app : evaluationApps()) {
        const WorkloadParams p = defaultParams(app, opt.scale);
        const size_t reps =
            opt.repsOverride ? opt.repsOverride : p.repetitions;
        const AppRunResult r = runPlonky2App(app, p.rows, reps, cfg, hw,
                                             /*verify_proof=*/false);
        artifacts.addRun(r, "plonky2", opt.threads);
        const double cpu = r.cpuSeconds / cpu_scale;
        // The GPU model's per-class speedups are relative to the
        // parallel CPU; PCIe transfer time stays absolute.
        const GpuEstimate gpu = estimateGpuTime(
            r.cpuBreakdown.scaledBy(1.0 / cpu_scale), r.trace, {});
        const double gpu_s = gpu.totalSeconds;
        const double uni_s = r.sim.seconds();
        const double gpu_spd = cpu / gpu_s;
        const double uni_spd = cpu / uni_s;
        printRow({r.app, fmt(cpu), fmt(gpu_s), fmtX(gpu_spd),
                  fmt(uni_s, 4), fmtX(uni_spd, 0)});
        gpu_geo *= gpu_spd;
        uni_geo *= uni_spd;
        ++count;
    }
    std::printf("\naverage (geomean) speedups: GPU %.1fx, UniZK %.0fx\n",
                std::pow(gpu_geo, 1.0 / static_cast<double>(count)),
                std::pow(uni_geo, 1.0 / static_cast<double>(count)));
    artifacts.write(hw);
    return 0;
}
