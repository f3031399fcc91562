/**
 * @file
 * Reproduces Figure 9: UniZK speedup over the CPU per kernel type.
 *
 * Paper reference: hash kernels see the largest speedups (up to
 * ~191x), NTT is lower because it is memory-bound (~92-110x), and
 * polynomial kernels are lowest (20-92x), with MVM's wide trace
 * lifting its polynomial speedup.
 */

#include "bench_util.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

double
classSpeedup(const AppRunResult &r, double cpu_seconds,
             uint64_t sim_cycles)
{
    if (sim_cycles == 0)
        return 0.0;
    const double sim_seconds =
        r.sim.config.cyclesToSeconds(sim_cycles);
    return (cpu_seconds / cpuParallelSpeedup) / sim_seconds;
}

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    const FriConfig cfg = FriConfig::plonky2(opt.fast);
    const HardwareConfig hw = HardwareConfig::paperDefault();

    std::printf("=== Figure 9: speedups by kernel type ===\n");
    std::printf("paper: NTT ~92-110x, Poly 20-92x (MVM highest), Hash "
                "up to 191x\n\n");
    printRow({"Application", "NTT", "Polynomial", "Hash"});

    for (const AppId app : evaluationApps()) {
        const WorkloadParams p = defaultParams(app, opt.scale);
        const size_t reps =
            opt.repsOverride ? opt.repsOverride : p.repetitions;
        const AppRunResult r = runPlonky2App(app, p.rows, reps, cfg, hw,
                                             /*verify_proof=*/false);
        const auto &b = r.cpuBreakdown;
        const double ntt = classSpeedup(
            r, b.seconds(KernelClass::Ntt),
            r.sim.classStats(KernelClass::Ntt).cycles);
        const double poly = classSpeedup(
            r, b.seconds(KernelClass::Polynomial),
            r.sim.classStats(KernelClass::Polynomial).cycles);
        const double hash = classSpeedup(
            r,
            b.seconds(KernelClass::MerkleTree) +
                b.seconds(KernelClass::OtherHash),
            r.sim.classStats(KernelClass::MerkleTree).cycles +
                r.sim.classStats(KernelClass::OtherHash).cycles);
        printRow({r.app, fmtX(ntt, 0), fmtX(poly, 0), fmtX(hash, 0)});
    }
    return 0;
}
