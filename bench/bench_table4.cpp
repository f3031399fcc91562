/**
 * @file
 * Reproduces Table 4: memory-bandwidth and VSA utilization of UniZK,
 * per kernel class and application.
 *
 * Paper reference: NTT mem ~47-56% / VSA ~4-5%; poly mem ~13-25% /
 * VSA ~2-9%; hash mem ~20-22% / VSA ~95-97%.
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

    std::printf("=== Table 4: memory and VSA utilization in UniZK ===\n");
    std::printf("paper: NTT 47-56%% / 4-5%%, Poly 13-25%% / 2-9%%, "
                "Hash 20-22%% / 95-97%%\n");
    std::printf("(mem util counts bus bytes moved, matching the paper's "
                "bandwidth accounting)\n\n");
    printRow({"Application", "NTT mem", "NTT VSA", "Poly mem",
              "Poly VSA", "Hash mem", "Hash VSA"});

    ObsArtifacts artifacts(opt);
    for (const AppId app : evaluationApps()) {
        const WorkloadParams p = defaultParams(app, opt.scale);
        const size_t reps =
            opt.repsOverride ? opt.repsOverride : p.repetitions;
        const AppRunResult r = runPlonky2App(app, p.rows, reps, cfg, hw,
                                             /*verify_proof=*/false);
        artifacts.addRun(r, "plonky2", opt.threads);
        // "Hash" in Table 4 covers Merkle plus other hashing; weight
        // the two classes by their cycles.
        const auto &merkle = r.sim.classStats(KernelClass::MerkleTree);
        const auto &other = r.sim.classStats(KernelClass::OtherHash);
        const uint64_t hash_cycles = merkle.cycles + other.cycles;
        const double hash_mem =
            hash_cycles == 0
                ? 0.0
                : (r.sim.memUtilization(KernelClass::MerkleTree) *
                       static_cast<double>(merkle.cycles) +
                   r.sim.memUtilization(KernelClass::OtherHash) *
                       static_cast<double>(other.cycles)) /
                      static_cast<double>(hash_cycles);
        const double hash_vsa =
            hash_cycles == 0
                ? 0.0
                : (r.sim.vsaUtilization(KernelClass::MerkleTree) *
                       static_cast<double>(merkle.cycles) +
                   r.sim.vsaUtilization(KernelClass::OtherHash) *
                       static_cast<double>(other.cycles)) /
                      static_cast<double>(hash_cycles);
        printRow({r.app, fmtPct(r.sim.memUtilization(KernelClass::Ntt)),
                  fmtPct(r.sim.vsaUtilization(KernelClass::Ntt)),
                  fmtPct(r.sim.memUtilization(KernelClass::Polynomial)),
                  fmtPct(r.sim.vsaUtilization(KernelClass::Polynomial)),
                  fmtPct(hash_mem), fmtPct(hash_vsa)});
    }
    artifacts.write(hw);
    return 0;
}
