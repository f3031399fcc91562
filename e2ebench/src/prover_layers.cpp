#include <functional>

#include "inproc.h"

namespace e2ebench {

using unizk::KernelClass;

namespace {

using RunValue = std::function<double(const ProofRun &)>;
using Leg = std::vector<ProofRun> ShapeRuns::*;

/** Median over each shape's runs of @p leg, summed over shapes. */
double
total(const std::vector<ShapeRuns> &shapes, Leg leg, const RunValue &f)
{
    double sum = 0.0;
    for (const ShapeRuns &s : shapes) {
        std::vector<double> values;
        for (const ProofRun &run : s.*leg)
            values.push_back(f(run));
        sum += median(values);
    }
    return sum;
}

double
sumOfMedians(const std::vector<ShapeRuns> &shapes,
             std::vector<double> ShapeRuns::*field)
{
    double sum = 0.0;
    for (const ShapeRuns &s : shapes)
        sum += median(s.*field);
    return sum;
}

RunValue
classSeconds(KernelClass c)
{
    return [c](const ProofRun &run) { return run.breakdown.seconds(c); };
}

double
attributedSeconds(const ProofRun &run)
{
    return run.breakdown.total();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
addProverLayerMetrics(const std::vector<ShapeRuns> &shapes,
                      unsigned nt_threads, Outcome &out)
{
    const Leg t1 = &ShapeRuns::traced1t;
    const Leg tn = &ShapeRuns::tracedNt;
    const Leg u1 = &ShapeRuns::untraced1t;
    const auto prove = [](const ProofRun &r) { return r.proveS; };

    TraceCounts counts;
    uint64_t cycles = 0;
    for (const ShapeRuns &s : shapes) {
        const ProofRun *first = nullptr;
        for (const Leg leg : {t1, tn}) {
            for (const ProofRun &run : s.*leg) {
                if (first == nullptr) {
                    first = &run;
                    continue;
                }
                out.check(run.counts == first->counts &&
                              run.simCycles == first->simCycles,
                          s.shape + ": trace counts or sim cycles differ "
                                    "between proofs");
            }
        }
        if (first != nullptr) {
            counts.kernelOps += first->counts.kernelOps;
            counts.hashPerms += first->counts.hashPerms;
            counts.butterflies += first->counts.butterflies;
            cycles += first->simCycles;
        }
    }

    const double prove1 = total(shapes, t1, prove);
    const double proven = total(shapes, tn, prove);
    const double merkle1 =
        total(shapes, t1, classSeconds(KernelClass::MerkleTree));
    const double other1 =
        total(shapes, t1, classSeconds(KernelClass::OtherHash));
    const double ntt1 = total(shapes, t1, classSeconds(KernelClass::Ntt));

    out.add("workloads.build_s", sumOfMedians(shapes, &ShapeRuns::buildS),
            "s");
    out.add("plonk.setup_s", sumOfMedians(shapes, &ShapeRuns::setupS), "s");
    out.add("plonk.unattributed_s",
            total(shapes, t1,
                  [](const ProofRun &r) {
                      return r.proveS - attributedSeconds(r);
                  }),
            "s");

    out.add("merkle.s", merkle1, "s");
    out.add("merkle.share", ratio(merkle1, prove1), "ratio");
    out.add("merkle.nt_s",
            total(shapes, tn, classSeconds(KernelClass::MerkleTree)), "s");
    out.add("merkle.leaf_s",
            total(shapes, t1,
                  [](const ProofRun &r) { return r.merkleLeafS; }),
            "s");
    out.add("merkle.interior_s",
            total(shapes, t1,
                  [](const ProofRun &r) { return r.merkleInteriorS; }),
            "s");

    out.add("hash.perms", static_cast<double>(counts.hashPerms), "count");
    out.add("hash.ns_per_perm",
            ratio((merkle1 + other1) * 1e9,
                  static_cast<double>(counts.hashPerms)),
            "ns");
    out.add("hash.other_s", other1, "s");
    out.add("hash.other_share", ratio(other1, prove1), "ratio");

    out.add("ntt.s", ntt1, "s");
    out.add("ntt.share", ratio(ntt1, prove1), "ratio");
    out.add("ntt.nt_s", total(shapes, tn, classSeconds(KernelClass::Ntt)),
            "s");
    out.add("ntt.butterflies", static_cast<double>(counts.butterflies),
            "count");
    out.add("ntt.ns_per_butterfly",
            ratio(ntt1 * 1e9, static_cast<double>(counts.butterflies)), "ns");

    out.add("poly.s",
            total(shapes, t1, classSeconds(KernelClass::Polynomial)), "s");
    out.add("poly.nt_s",
            total(shapes, tn, classSeconds(KernelClass::Polynomial)), "s");
    out.add("fri.layout_s",
            total(shapes, t1, classSeconds(KernelClass::LayoutTransform)),
            "s");

    const double speedup = ratio(prove1, proven);
    out.add("pool.speedup", speedup, "x");
    out.add("pool.efficiency", speedup / nt_threads, "ratio");

    out.add("sim.host_ms",
            total(shapes, t1, [](const ProofRun &r) { return r.simS; }) *
                1e3,
            "ms");
    out.add("sim.cycles", static_cast<double>(cycles), "count");
    out.add("sim.kernel_ops", static_cast<double>(counts.kernelOps),
            "count");

    out.add("serialize.ms",
            total(shapes, t1,
                  [](const ProofRun &r) { return r.serializeS; }) *
                1e3,
            "ms");
    out.add("obs.trace_overhead", ratio(prove1, total(shapes, u1, prove)),
            "x");
}

} // namespace e2ebench
