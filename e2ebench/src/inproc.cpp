#include "inproc.h"

#include <cstring>
#include <variant>

#include "common/thread_pool.h"
#include "measure.h"
#include "merkle/merkle_tree.h"
#include "serialize/proof_io.h"
#include "sim/simulator.h"
#include "stark/stark.h"

namespace e2ebench {

using namespace unizk;

TraceCounts
countTrace(const KernelTrace &trace)
{
    TraceCounts counts;
    counts.kernelOps = trace.ops.size();
    for (const KernelOp &op : trace.ops) {
        if (const auto *m = std::get_if<MerkleKernel>(&op.payload)) {
            counts.hashPerms += MerkleTree::permutationCount(
                m->leafCount, m->leafLength, m->capHeight);
        } else if (const auto *h = std::get_if<HashKernel>(&op.payload)) {
            counts.hashPerms += h->permutations;
        } else if (const auto *n = std::get_if<NttKernel>(&op.payload)) {
            counts.butterflies += n->batch *
                                  ((uint64_t{1} << n->logSize) / 2) *
                                  n->logSize;
        }
    }
    return counts;
}

ProofInstance
ProofInstance::plonky2(AppId app, size_t rows, size_t reps,
                       uint64_t witness_seed, const FriConfig &cfg,
                       SpanLog *log, uint64_t parent)
{
    ProofInstance inst;
    inst.cfg_ = cfg;
    uint64_t t0 = 0;
    {
        const ScopedSpan span(log, "build", parent);
        t0 = nowNs();
        PlonkApp built = buildPlonkApp(app, rows, reps, witness_seed);
        inst.build_s_ = nsToSeconds(nowNs() - t0);
        inst.plonk_.emplace(Plonk{std::move(built), {}});
    }
    {
        const ScopedSpan span(log, "plonk-setup", parent);
        t0 = nowNs();
        const ProverContext setup_ctx;
        inst.plonk_->key =
            plonkSetup(inst.plonk_->app.circuit, cfg, setup_ctx);
        inst.setup_s_ = nsToSeconds(nowNs() - t0);
    }
    return inst;
}

ProofInstance
ProofInstance::starky(AppId app, size_t rows, const FriConfig &cfg,
                      SpanLog *log, uint64_t parent)
{
    ProofInstance inst;
    inst.cfg_ = cfg;
    const ScopedSpan span(log, "build", parent);
    const uint64_t t0 = nowNs();
    inst.stark_.emplace(buildStarkApp(app, rows));
    inst.build_s_ = nsToSeconds(nowNs() - t0);
    return inst;
}

ProofInstance
ProofInstance::forRequest(const service::ProveRequest &req, SpanLog *log,
                          uint64_t parent)
{
    const FriConfig cfg = service::requestFriConfig(req);
    const size_t rows = service::requestRows(req);
    // The daemon builds every Plonky2 request with buildPlonkApp's
    // default witness seed.
    if (req.protocol == service::WireProtocol::Plonky2) {
        return plonky2(req.app, rows, service::requestReps(req), 1, cfg,
                       log, parent);
    }
    return starky(req.app, rows, cfg, log, parent);
}

ProofRun
ProofInstance::prove(unsigned threads, bool traced, SpanLog *log,
                     uint64_t parent,
                     std::vector<obs::SpanEvent> *program_spans) const
{
    setGlobalThreadCount(threads);
    ProofRun run;

    TraceRecorder recorder;
    ProverContext ctx;
    if (traced) {
        ctx.breakdown = &run.breakdown;
        ctx.recorder = &recorder;
    }

    // Untraced proofs run with obs off even inside a traced run (that
    // is what obs.trace_overhead compares against). A traced proof
    // starts from drained span buffers, so the spans drained right
    // after its prove call are exactly that call's.
    const bool obs_was_enabled = obs::enabled();
    obs::setEnabled(traced);
    const auto keep_spans = [&](bool attribute) {
        for (obs::SpanEvent &ev : obs::drainSpans()) {
            const double secs = nsToSeconds(ev.endNs - ev.startNs);
            if (attribute && std::strcmp(ev.name, "merkle/leaf-hashes") == 0)
                run.merkleLeafS += secs;
            else if (attribute &&
                     std::strcmp(ev.name, "merkle/interior-levels") == 0)
                run.merkleInteriorS += secs;
            if (program_spans)
                program_spans->push_back(ev);
        }
    };
    if (traced)
        keep_spans(false);

    const ScopedSpan proof_span(log, "proof", parent);
    std::optional<PlonkProof> plonk_proof;
    std::optional<StarkProof> stark_proof;
    {
        const ScopedSpan span(log, "prove", proof_span.id());
        const AllocTotals alloc0 = allocTotals();
        const double cpu0 = processCpuSeconds();
        const uint64_t t0 = nowNs();
        if (plonk_) {
            plonk_proof.emplace(plonkProve(plonk_->app.circuit, plonk_->key,
                                           plonk_->app.witnesses, cfg_,
                                           ctx));
        } else {
            stark_proof.emplace(
                starkProve(*stark_->air, stark_->trace, cfg_, ctx));
        }
        run.proveS = nsToSeconds(nowNs() - t0);
        run.cpuS = processCpuSeconds() - cpu0;
        run.alloc = allocTotals() - alloc0;
    }
    if (traced)
        keep_spans(true);
    {
        const ScopedSpan span(log, "serialize", proof_span.id());
        const uint64_t t0 = nowNs();
        run.bytes = plonk_ ? serializePlonkProof(*plonk_proof)
                           : serializeStarkProof(*stark_proof);
        run.serializeS = nsToSeconds(nowNs() - t0);
    }
    {
        const ScopedSpan span(log, "verify", proof_span.id());
        const uint64_t t0 = nowNs();
        run.verified =
            plonk_ ? plonkVerify(plonk_->key.constants->cap(), *plonk_proof,
                                 cfg_, plonk_->app.circuit.publicRows())
                   : starkVerify(*stark_->air, *stark_proof, cfg_);
        run.verifyS = nsToSeconds(nowNs() - t0);
    }
    if (traced) {
        const ScopedSpan span(log, "sim", proof_span.id());
        const uint64_t t0 = nowNs();
        const SimReport report =
            simulateTrace(recorder.trace(), HardwareConfig::paperDefault());
        run.simS = nsToSeconds(nowNs() - t0);
        run.simCycles = report.totalCycles;
        run.counts = countTrace(recorder.trace());
        keep_spans(false);
    }
    obs::setEnabled(obs_was_enabled);
    return run;
}

std::string
shapeKey(const service::ProveRequest &req)
{
    return std::string(req.protocol == service::WireProtocol::Plonky2
                           ? "plonky2"
                           : "starky") +
           "/" + appName(req.app) + "/" +
           std::to_string(service::requestRows(req)) + "x" +
           std::to_string(service::requestReps(req)) +
           (req.fast ? "/fast" : "/full");
}

} // namespace e2ebench
