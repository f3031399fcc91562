/**
 * @file
 * Twiddle-factor tables for the NTT engine, with a thread-safe,
 * lazily-initialized process-wide registry.
 *
 * The seed NTT cores recomputed their roots on every call and chained
 * twiddles through a sequential `w *= w_len` dependency, which both
 * serializes the inner butterfly loop (each iteration waits on a
 * modular multiply) and redoes identical work for every transform of
 * the same size. SZKP and zkPHIRE organize their NTT datapaths around
 * precomputed twiddle storage for exactly this reason; this header is
 * the software mirror of that idea.
 *
 * A TwiddleTable for log-size k stores, in the layout the DIF/DIT cores
 * consume directly:
 *
 *  - fwd[j] = w^j  for j < 2^(k-1), w the primitive 2^k-th root: the
 *    stage with block length `len` reads fwd[j * (n/len)], so inner
 *    loops are pure table lookups with no loop-carried dependency and
 *    can be chunked across pool workers.
 *  - inv[j] = w^-j, the same layout for inverse transforms.
 *  - sizeInv = (2^k)^-1, the iNTT normalization constant.
 *
 * Coset scaling has no table: the engine runs chunked power chains of
 * the shift, which parallelize just as well and cost no memory.
 *
 * Tables up to 2^26 are built once per size on first touch (under a
 * mutex, so concurrent first-touch from pool workers is safe) and live
 * for the process; larger sizes get a private table per call. The
 * table entries equal the values the seed code chained to, so either
 * way the transforms give the same canonical values.
 */

#ifndef UNIZK_NTT_TWIDDLES_H
#define UNIZK_NTT_TWIDDLES_H

#include <cstdint>
#include <memory>
#include <vector>

#include "field/goldilocks.h"

namespace unizk {

/** Precomputed twiddle storage for one transform size (see file docs). */
struct TwiddleTable
{
    uint32_t logSize = 0;

    /** fwd[j] = w^j, j < n/2 (empty for n == 1). */
    std::vector<Fp> fwd;

    /** inv[j] = w^-j, j < n/2. */
    std::vector<Fp> inv;

    /** n^-1 for iNTT normalization. */
    Fp sizeInv = Fp::one();
};

/**
 * Table for transforms of size 2^log_size. Served from the registry
 * when the size is within the cache bound, otherwise freshly built. The
 * returned pointer is always non-null and safe to hold across
 * pool-parallel regions.
 */
std::shared_ptr<const TwiddleTable> acquireTwiddles(uint32_t log_size);

/** Drop every cached table (tables already handed out stay valid). */
void clearTwiddleCache();

} // namespace unizk

#endif // UNIZK_NTT_TWIDDLES_H
