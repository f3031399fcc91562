/**
 * @file
 * prove-factorial: one in-process caller proving Plonky2 Factorial at
 * 2^12 rows x 45 repetitions (the paper's 135-column wire commitment)
 * with --fast FRI, back to back, at 1 pool thread (the pool is
 * bypassed) and at min(4, nproc) pool threads (one submitter).
 */

#include <algorithm>

#include "common/thread_pool.h"
#include "inproc.h"
#include "workloads.h"

namespace e2ebench {

using namespace unizk;

namespace {

constexpr size_t kRows = size_t{1} << 12;
constexpr size_t kReps = 45;
constexpr int kSetupRounds = 3;

/**
 * Latency limit of one multi-thread request (prove + serialize) for
 * slo_attain: about three times the median on a 4-vCPU AVX2 host.
 */
constexpr double kSloMs = 5000.0;

/** One step of the measured loop: which leg, and whether traced. */
struct Step
{
    unsigned threads;
    bool traced;
};

/** One untraced measured proof. */
struct Sample
{
    double proveS = 0.0;
    double requestMs = 0.0; ///< prove + serialize
    double verifyS = 0.0;
    double steal = 0.0; ///< host steal share while it ran
    bool ok = false;
};

/** The least-stolen half of a leg's samples (see leastStolenHalf). */
std::vector<Sample>
quietest(const std::vector<Sample> &samples)
{
    std::vector<double> steal;
    for (const Sample &s : samples)
        steal.push_back(s.steal);
    std::vector<Sample> kept;
    for (const size_t i : leastStolenHalf(steal))
        kept.push_back(samples[i]);
    return kept;
}

/** "name (n samples, value@steal): v@s ..." for the run's notes. */
std::string
stealNote(const std::string &name, const std::vector<double> &values,
          const std::vector<double> &steal)
{
    std::string s = name + " (" + std::to_string(values.size()) +
                    " samples, value@steal):";
    for (size_t i = 0; i < values.size(); ++i)
        s += " " + std::to_string(values[i]) + "@" + std::to_string(steal[i]);
    return s;
}

std::string
legNote(const std::string &name, const std::vector<Sample> &leg)
{
    std::vector<double> values, steal;
    for (const Sample &s : leg) {
        values.push_back(s.proveS);
        steal.push_back(s.steal);
    }
    return stealNote(name, values, steal);
}

} // namespace

Outcome
runProveFactorial(const RunConfig &rc)
{
    Outcome out;
    const unsigned nt = multiThreadCount();
    // The --fast Plonky2 parameters, as the daemon resolves them.
    service::ProveRequest fast_request;
    fast_request.fast = true;
    const FriConfig fri = service::requestFriConfig(fast_request);
    if (rc.notes) {
        rc.notes->push_back("app=factorial rows=" + std::to_string(kRows) +
                            " reps=" + std::to_string(kReps) +
                            " fri=fast threads=1," + std::to_string(nt));
    }

    // ---- Set-up, several times: app build + plonkSetup + one
    //      unmeasured warm-up proof at the multi-thread count.
    ShapeRuns shape;
    shape.shape = "plonky2/Factorial/4096x45";
    std::vector<double> setup_s;
    std::optional<ProofInstance> inst;
    std::vector<uint8_t> reference;
    // Unmeasured: bring an idle machine to a steady state first (see
    // kMachineWarmupSeconds); every later proof must equal this one.
    {
        const ProofInstance warm = ProofInstance::plonky2(
            AppId::Factorial, kRows, kReps, rc.seed, fri, nullptr, 0);
        for (const uint64_t until =
                 nowNs() + static_cast<uint64_t>(kMachineWarmupSeconds * 1e9);
             nowNs() < until;) {
            const ProofRun run = warm.prove(nt, false, nullptr, 0, nullptr);
            out.check(run.verified, "warm-up proof does not verify");
            reference = run.bytes;
        }
    }
    std::vector<double> setup_steal;
    for (int round = 0; round < kSetupRounds; ++round) {
        const ScopedSpan span(rc.log, "setup", 0);
        const StealMeter meter;
        inst.emplace(ProofInstance::plonky2(AppId::Factorial, kRows, kReps,
                                            rc.seed, fri, rc.log,
                                            span.id()));
        const ProofRun warm =
            inst->prove(nt, false, rc.log, span.id(), nullptr);
        setup_s.push_back(inst->buildS() + inst->setupS() + warm.proveS);
        setup_steal.push_back(meter.share());
        shape.buildS.push_back(inst->buildS());
        shape.setupS.push_back(inst->setupS());
        out.check(warm.verified, "set-up proof does not verify");
        out.check(warm.bytes == reference,
                  "set-up proof differs from the warm-up proof");
    }
    // Drop the set-up's program spans and counters.
    obs::resetForMeasurement();

    // ---- Measured loop. Untraced runs cycle one 1-thread proof and
    //      two multi-thread proofs (the shorter, noisier leg gets more
    //      samples); traced runs cycle traced 1 thread, untraced 1
    //      thread (for the tracing overhead) and traced multi-thread.
    const std::vector<Step> cycle =
        rc.traced ? std::vector<Step>{{1, true}, {1, false}, {nt, true}}
                  : std::vector<Step>{{1, false}, {nt, false}, {nt, false}};
    std::vector<double> step_cost(cycle.size(), 0.0);
    const uint64_t start = nowNs();
    const uint64_t budget = static_cast<uint64_t>(rc.seconds * 1e9);
    std::vector<Sample> leg1, legn;
    size_t next = 0;
    for (size_t done = 0;; ++done) {
        // Run the whole cycle once; after that skip steps whose last
        // cost would overrun the budget, and stop when none fits.
        size_t pick = cycle.size();
        for (size_t k = 0; k < cycle.size(); ++k) {
            const size_t s = (next + k) % cycle.size();
            const uint64_t cost = static_cast<uint64_t>(step_cost[s] * 1e9);
            if (done < cycle.size() || nowNs() - start + cost <= budget) {
                pick = s;
                break;
            }
        }
        if (pick == cycle.size())
            break;
        next = pick + 1;
        const Step step = cycle[pick];
        const StealMeter meter;
        ProofRun run = inst->prove(step.threads, step.traced, rc.log, 0,
                                   rc.programSpans);
        const double steal = meter.share();
        step_cost[pick] =
            run.proveS + run.serializeS + run.verifyS + run.simS;

        const bool ok = out.check(run.verified, "proof does not verify") &&
                        out.check(run.bytes == reference,
                                  "proof bytes differ from the warm-up "
                                  "proof (thread count " +
                                      std::to_string(step.threads) + ")");
        out.attempt(ok);
        if (step.traced) {
            (step.threads == 1 ? shape.traced1t : shape.tracedNt)
                .push_back(std::move(run));
        } else if (rc.traced) {
            shape.untraced1t.push_back(std::move(run));
        } else {
            // A multi-thread proof is one request of the single caller.
            (step.threads == 1 ? leg1 : legn)
                .push_back({run.proveS,
                            (run.proveS + run.serializeS) * 1e3,
                            run.verifyS, steal, ok});
        }
    }
    setGlobalThreadCount(nt);

    if (rc.traced) {
        addProverLayerMetrics({shape}, nt, out);
        std::vector<double> util, alloc_count, alloc_mb;
        for (const ProofRun &run : shape.tracedNt) {
            util.push_back(run.cpuS / (run.proveS * nt));
            alloc_count.push_back(static_cast<double>(run.alloc.count));
            alloc_mb.push_back(static_cast<double>(run.alloc.bytes) /
                               (1024.0 * 1024.0));
        }
        out.add("pool.cpu_util", median(util), "ratio");
        out.add("alloc.count", median(alloc_count), "count");
        out.add("alloc.mb", median(alloc_mb), "MB");
        // One in-process caller: no daemon, queue or schedule, so the
        // service and load layers hold no time.
        for (const char *name :
             {"service.queued_ms.p50", "service.queued_ms.p95",
              "service.prove_ms.p50", "service.prove_ms.p95",
              "load.lateness_ms.p95"})
            out.add(name, 0.0, "ms");
        out.add("service.serialize_us.p50", 0.0, "us");
        out.add("service.residual_us.p50", 0.0, "us");
        for (const char *name :
             {"service.lane_util", "service.outside_prove_share",
              "service.merkle_share"})
            out.add(name, 0.0, "ratio");
        out.add("service.queue_depth.p95", 0.0, "count");
        return out;
    }

    if (rc.notes) {
        rc.notes->push_back(stealNote("setup_s", setup_s, setup_steal));
        rc.notes->push_back(legNote("prove_1t_s", leg1));
        rc.notes->push_back(legNote("prove_nt_s", legn));
    }
    const std::vector<Sample> quiet1 = quietest(leg1);
    const std::vector<Sample> quietn = quietest(legn);
    std::vector<double> prove1, proven, request_ms, verify_s;
    double request_s = 0.0;
    uint64_t within_slo = 0;
    for (const Sample &s : quiet1) {
        prove1.push_back(s.proveS);
        verify_s.push_back(s.verifyS);
    }
    for (const Sample &s : quietn) {
        proven.push_back(s.proveS);
        verify_s.push_back(s.verifyS);
        request_ms.push_back(s.requestMs);
        request_s += s.requestMs * 1e-3;
        within_slo += s.ok && s.requestMs <= kSloMs;
    }
    if (rc.notes) {
        rc.notes->push_back("least-stolen samples used: prove_1t=" +
                            std::to_string(quiet1.size()) + " prove_nt=" +
                            std::to_string(quietn.size()) + " latency=" +
                            std::to_string(request_ms.size()));
    }
    const double n_req = static_cast<double>(request_ms.size());

    std::vector<double> quiet_setup;
    for (const size_t i : leastStolenHalf(setup_steal))
        quiet_setup.push_back(setup_s[i]);
    out.add("setup_s", median(quiet_setup), "s");
    out.add("prove_1t_s", median(prove1), "s");
    out.add("prove_nt_s", median(proven), "s");
    out.add("verify_ms", median(verify_s) * 1e3, "ms");
    out.add("proof_kb", static_cast<double>(reference.size()) / 1000.0,
            "kB");
    out.add("rps", n_req / request_s, "req/s");
    out.add("latency_p50_ms", percentile(request_ms, 0.50), "ms");
    out.add("latency_p95_ms", percentile(request_ms, 0.95), "ms");
    out.add("slo_attain", static_cast<double>(within_slo) / n_req,
            "ratio");
    out.add("ok_ratio",
            static_cast<double>(out.attempted - out.failed) /
                static_cast<double>(out.attempted),
            "ratio");
    out.add("peak_rss_mb", peakRssMb(), "MB");
    return out;
}

} // namespace e2ebench
