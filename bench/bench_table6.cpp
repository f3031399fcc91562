/**
 * @file
 * Reproduces Table 6: comparison against PipeZK (a Groth16 ASIC) on
 * SHA-256 and AES-128 single blocks, plus the batched-blocks
 * throughput comparison behind the paper's 840x headline.
 *
 * Groth16 CPU and PipeZK times come from the calibrated cost model
 * (the paper likewise compares against PipeZK's published numbers);
 * Starky+Plonky2 CPU times are measured and UniZK times simulated.
 */

#include "bench_util.h"
#include "model/pipezk_model.h"
#include "unizk/pipeline.h"

using namespace unizk;
using namespace unizk::bench;

namespace {

struct Row
{
    AppId app;
    Groth16Circuit groth;
};

} // namespace

int
main(int argc, char **argv)
{
    const HarnessOptions opt = parseHarnessOptions(argc, argv);
    const FriConfig starky_cfg = FriConfig::starky(opt.fast);
    const FriConfig plonky_cfg = FriConfig::plonky2(opt.fast);
    const HardwareConfig hw = HardwareConfig::paperDefault();
    const Groth16CostModel groth_model;

    std::printf("=== Table 6: UniZK vs PipeZK (Groth16 ASIC) ===\n");
    std::printf("paper: PipeZK speedup 12-15x, UniZK 123-159x; direct "
                "ASIC ratio 3.5-8.1x\n\n");
    printRow({"App", "G16 CPU(s)", "S+P2 CPU(s)", "PipeZK(ms)",
              "UniZK(ms)", "PipeZK spd", "UniZK spd", "ASIC ratio"},
             12);

    // Single-block workloads: small base trace + recursive compression.
    const std::vector<Row> rows{
        {AppId::Sha256, Groth16Circuit::sha256OneBlock()},
        // AES-128 has no separate AET here; its block circuit is
        // SHA-like in size and mix (documented substitution).
        {AppId::Sha256, Groth16Circuit::aes128OneBlock()},
    };

    const WorkloadParams rp = defaultParams(AppId::Recursion, opt.scale);
    const AppRunResult rec = runPlonky2App(AppId::Recursion, rp.rows,
                                           rp.repetitions, plonky_cfg,
                                           hw, false);
    const double rec_cpu = rec.cpuSeconds / cpuParallelSpeedup;
    const double rec_uni = rec.sim.seconds();

    double base_uni_sha = 0.0; // for the batched-throughput experiment

    for (const Row &row : rows) {
        // Single data block: a small AET (one block's rounds).
        const size_t base_rows = 256;
        const AppRunResult base = runStarkyApp(row.app, base_rows,
                                               starky_cfg, hw, false);
        const double sp_cpu =
            base.cpuSeconds / cpuParallelSpeedup + rec_cpu;
        const double sp_uni = base.sim.seconds() + rec_uni;
        if (row.groth.name == "SHA-256")
            base_uni_sha = base.sim.seconds();

        const double g16_cpu = groth_model.cpuSeconds(row.groth);
        const double pipezk = groth_model.pipezkSeconds(row.groth);
        const double pipezk_spd = g16_cpu / pipezk;
        const double uni_spd = sp_cpu / sp_uni;
        printRow({row.groth.name, fmt(g16_cpu, 1), fmt(sp_cpu, 1),
                  fmt(pipezk * 1e3, 0), fmt(sp_uni * 1e3, 1),
                  fmtX(pipezk_spd, 0), fmtX(uni_spd, 0),
                  fmtX(pipezk / sp_uni, 1)},
                 12);
    }

    // Batched blocks: only the base-proof cost grows; recursion
    // amortizes (paper: UniZK >8400 blocks/s vs PipeZK 10 blocks/s).
    const double uni_blocks_per_s = 1.0 / base_uni_sha;
    const double pipezk_blocks_per_s = groth_model.pipezkBlocksPerSecond(
        Groth16Circuit::sha256OneBlock());
    std::printf("\nbatched SHA-256 blocks/s: UniZK %.0f vs PipeZK %.0f "
                "-> %.0fx (paper: 840x)\n",
                uni_blocks_per_s, pipezk_blocks_per_s,
                uni_blocks_per_s / pipezk_blocks_per_s);
    return 0;
}
