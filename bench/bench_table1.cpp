/**
 * @file
 * Reproduces Table 1: single-thread CPU Plonky2 proof-generation time
 * breakdown by kernel class for the six applications, plus the
 * multi-threaded proving time at the configured thread count
 * (--threads / UNIZK_THREADS, default: all cores).
 *
 * Paper reference values (percent of proving time, single thread):
 *   Merkle tree ~57-69%, NTT ~16-22%, polynomial ~11-25%,
 *   other hash ~0-0.3%, layout transform ~2-4.6%.
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
    const unsigned nt = opt.threads;

    std::printf("=== Table 1: Plonky2 CPU proof-generation time "
                "breakdown ===\n");
    std::printf("paper (1 thread): Merkle ~57-69%%, NTT ~16-22%%, poly "
                "~11-25%%, other hash <0.5%%, layout ~2-4.6%%\n");
    std::printf("percentages from the 1-thread run; %uT column uses "
                "%u thread(s)\n\n",
                nt, nt);
    char nt_header[32];
    std::snprintf(nt_header, sizeof(nt_header), "%uT (s)", nt);
    printRow({"Application", "1T (s)", nt_header, "Scaling",
              "Polynomial", "NTT", "MerkleTree", "OtherHash", "Layout"});

    ObsArtifacts artifacts(opt);
    for (const AppId app : evaluationApps()) {
        const WorkloadParams p = defaultParams(app, opt.scale);
        const size_t reps =
            opt.repsOverride ? opt.repsOverride : p.repetitions;

        setGlobalThreadCount(1);
        const AppRunResult one = runPlonky2App(app, p.rows, reps, cfg,
                                               hw,
                                               /*verify_proof=*/false);
        artifacts.addRun(one, "plonky2", 1);
        // Re-prove at the configured thread count unless it is also 1.
        double nt_seconds = one.cpuBreakdown.total();
        if (nt > 1) {
            setGlobalThreadCount(nt);
            const AppRunResult multi = runPlonky2App(
                app, p.rows, reps, cfg, hw, /*verify_proof=*/false);
            nt_seconds = multi.cpuBreakdown.total();
            artifacts.addRun(multi, "plonky2", nt);
        }

        const auto &b = one.cpuBreakdown;
        printRow({one.app, fmt(b.total(), 2), fmt(nt_seconds, 2),
                  fmtX(b.total() / nt_seconds),
                  fmtPct(b.fraction(KernelClass::Polynomial)),
                  fmtPct(b.fraction(KernelClass::Ntt)),
                  fmtPct(b.fraction(KernelClass::MerkleTree)),
                  fmtPct(b.fraction(KernelClass::OtherHash)),
                  fmtPct(b.fraction(KernelClass::LayoutTransform))});
    }
    setGlobalThreadCount(nt);
    artifacts.write(hw);
    return 0;
}
