/**
 * @file
 * In-process proving through the public prover API: build and set up
 * one circuit shape, then prove, serialize and verify it as often as a
 * workload needs, timing each call. The service workloads use the same
 * path for the reference proof every served proof must equal.
 */

#ifndef E2EBENCH_INPROC_H
#define E2EBENCH_INPROC_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.h"
#include "common/stats.h"
#include "fri/fri_config.h"
#include "measure.h"
#include "obs/obs.h"
#include "plonk/plonk.h"
#include "service/protocol.h"
#include "span_log.h"
#include "trace/kernel_trace.h"
#include "workloads/apps.h"

namespace e2ebench {

/** Exact work counts derived from one recorded kernel trace. */
struct TraceCounts
{
    uint64_t kernelOps = 0;
    uint64_t hashPerms = 0;   ///< Merkle builds + standalone hashing
    uint64_t butterflies = 0; ///< (n/2) log2 n per NTT of size n

    bool operator==(const TraceCounts &) const = default;
};

TraceCounts countTrace(const unizk::KernelTrace &trace);

/** One proof of a shape, with what the run measured around it. */
struct ProofRun
{
    std::vector<uint8_t> bytes;
    bool verified = false;
    double proveS = 0.0;
    double serializeS = 0.0;
    double verifyS = 0.0;

    // Filled only when traced.
    unizk::KernelTimeBreakdown breakdown;
    TraceCounts counts;
    uint64_t simCycles = 0;
    double simS = 0.0;
    double merkleLeafS = 0.0;     ///< merkle/leaf-hashes spans
    double merkleInteriorS = 0.0; ///< merkle/interior-levels spans
    AllocTotals alloc;            ///< allocations inside the prove call
    double cpuS = 0.0;            ///< process CPU time of the prove call
};

/**
 * A built and set-up instance of one shape (Plonky2 circuit + proving
 * key, or Starky AIR + trace). The instance is what runPlonky2App /
 * runStarkyApp build for a request, so its proofs are byte-identical
 * to the daemon's for the same shape and witness seed.
 */
class ProofInstance
{
  public:
    /** Build (timed as buildS) and set up (setupS) a Plonky2 shape. */
    static ProofInstance plonky2(unizk::AppId app, size_t rows,
                                 size_t reps, uint64_t witness_seed,
                                 const unizk::FriConfig &cfg,
                                 SpanLog *log, uint64_t parent);

    /** Build a Starky shape (no preprocessing; setupS stays 0). */
    static ProofInstance starky(unizk::AppId app, size_t rows,
                                const unizk::FriConfig &cfg,
                                SpanLog *log, uint64_t parent);

    /** The instance a service request resolves to. */
    static ProofInstance forRequest(const unizk::service::ProveRequest &req,
                                    SpanLog *log, uint64_t parent);

    /**
     * Prove at @p threads pool threads, then serialize and verify.
     * When @p traced, the prover gets a kernel-time breakdown and a
     * trace recorder, the trace is simulated, program spans are
     * drained into @p program_spans, and allocations are counted.
     */
    ProofRun prove(unsigned threads, bool traced, SpanLog *log,
                   uint64_t parent,
                   std::vector<unizk::obs::SpanEvent> *program_spans) const;

    bool isPlonk() const { return plonk_.has_value(); }
    double buildS() const { return build_s_; }
    double setupS() const { return setup_s_; }

  private:
    struct Plonk
    {
        unizk::PlonkApp app;
        unizk::PlonkProvingKey key;
    };

    unizk::FriConfig cfg_;
    std::optional<Plonk> plonk_;
    std::optional<unizk::StarkApp> stark_;
    double build_s_ = 0.0;
    double setup_s_ = 0.0;
};

/**
 * Every in-process proof one workload made of one shape, by leg
 * (untraced / traced x 1 thread / the multi-thread count), plus the
 * build / setup times of its instances.
 */
struct ShapeRuns
{
    std::string shape;
    std::vector<double> buildS;
    std::vector<double> setupS; ///< empty for Starky shapes
    std::vector<ProofRun> untraced1t;
    std::vector<ProofRun> untracedNt;
    std::vector<ProofRun> traced1t;
    std::vector<ProofRun> tracedNt;
};

/**
 * Add the prover-layer per-layer metrics (workloads, plonk, merkle,
 * hash, ntt, poly, fri, pool speedup, sim, serialize, obs) of traced
 * in-process proofs. Each quantity is the median over a shape's runs,
 * summed over shapes. Also checks that each traced proof's kernel
 * classes fit inside its wall time and that its exact work counts
 * repeat across the shape's traced proofs.
 */
void addProverLayerMetrics(const std::vector<ShapeRuns> &shapes,
                           unsigned nt_threads, Outcome &out);

/** Compact text key of a request's proof shape. */
std::string shapeKey(const unizk::service::ProveRequest &req);

} // namespace e2ebench

#endif // E2EBENCH_INPROC_H
