/**
 * @file
 * Reproduces Table 5: Starky base proofs plus Plonky2 recursive
 * aggregation, comparing CPU and UniZK and reporting proof sizes.
 *
 * Paper reference: base speedups 67-267x, recursive 142-167x; base
 * proof sizes ~260-780 kB, recursive ~155-187 kB. The recursive stage
 * proves a verifier-shaped circuit (see DESIGN.md's substitution
 * table).
 */

#include "bench_util.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    const FriConfig starky_cfg = FriConfig::starky(opt.fast);
    const FriConfig plonky_cfg = FriConfig::plonky2(opt.fast);
    const HardwareConfig hw = HardwareConfig::paperDefault();

    // Measured multithreaded CPU baseline when --threads/UNIZK_THREADS
    // gives more than one thread, else the paper's modeled scaling.
    const double cpu_scale =
        opt.threads > 1 ? 1.0 : cpuParallelSpeedup;

    std::printf("=== Table 5: Starky base + Plonky2 recursive "
                "aggregation ===\n");
    std::printf("paper: base 67-267x / 259-778 kB, recursive 142-167x / "
                "155-187 kB\n");
    if (opt.threads > 1)
        std::printf("(CPU column: measured with %u threads)\n\n",
                    opt.threads);
    else
        std::printf("(CPU column: measured 1-thread / %.0fx parallel "
                    "scaling)\n\n",
                    cpuParallelSpeedup);
    printRow({"Application", "Stage", "CPU (s)", "UniZK (ms)", "Speedup",
              "Size (kB)"});

    for (const AppId app :
         {AppId::Factorial, AppId::Fibonacci, AppId::Sha256}) {
        const WorkloadParams p = defaultParams(app, opt.scale);

        // Base proof with Starky (blowup 2).
        const AppRunResult base =
            runStarkyApp(app, p.rows, starky_cfg, hw,
                         /*verify_proof=*/false);
        const double base_cpu = base.cpuSeconds / cpu_scale;
        printRow({base.app, "Base", fmt(base_cpu),
                  fmt(base.sim.seconds() * 1e3, 2),
                  fmtX(base_cpu / base.sim.seconds(), 0),
                  fmt(static_cast<double>(base.proofBytes) / 1024.0, 0)});

        // Recursive aggregation with Plonky2 (verifier-shaped circuit).
        const WorkloadParams rp = defaultParams(AppId::Recursion,
                                                opt.scale);
        const AppRunResult rec = runPlonky2App(
            AppId::Recursion, rp.rows, rp.repetitions, plonky_cfg, hw,
            /*verify_proof=*/false);
        const double rec_cpu = rec.cpuSeconds / cpu_scale;
        printRow({"", "Recursive", fmt(rec_cpu),
                  fmt(rec.sim.seconds() * 1e3, 2),
                  fmtX(rec_cpu / rec.sim.seconds(), 0),
                  fmt(static_cast<double>(rec.proofBytes) / 1024.0, 0)});
    }
    return 0;
}
