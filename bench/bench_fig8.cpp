/**
 * @file
 * Reproduces Figure 8: UniZK execution-time breakdown by kernel type.
 *
 * Paper reference: after accelerating NTT and hashing, the
 * miscellaneous polynomial operations become the dominant component
 * (the new bottleneck) for every application.
 */

#include "bench_util.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    const FriConfig cfg = FriConfig::plonky2(opt.fast);
    const HardwareConfig hw = opt.paperHw();

    std::printf("=== Figure 8: UniZK time breakdown by kernel type "
                "===\n");
    std::printf("paper: polynomial ops dominate after NTT/hash "
                "acceleration\n\n");
    printRow({"Application", "NTT", "Polynomial", "Hash", "(cycles)"});

    ObsArtifacts artifacts(opt);
    for (const AppId app : evaluationApps()) {
        const WorkloadParams p = defaultParams(app, opt.scale);
        const size_t reps =
            opt.repsOverride ? opt.repsOverride : p.repetitions;
        const AppRunResult r = runPlonky2App(app, p.rows, reps, cfg, hw,
                                             /*verify_proof=*/false);
        artifacts.addRun(r, "plonky2", opt.threads);
        const double hash =
            r.sim.cycleFraction(KernelClass::MerkleTree) +
            r.sim.cycleFraction(KernelClass::OtherHash);
        printRow({r.app, fmtPct(r.sim.cycleFraction(KernelClass::Ntt)),
                  fmtPct(r.sim.cycleFraction(KernelClass::Polynomial)),
                  fmtPct(hash), std::to_string(r.sim.totalCycles)});
    }
    artifacts.write(hw);
    return 0;
}
