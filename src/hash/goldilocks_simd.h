/**
 * @file
 * Runtime-dispatched SIMD lane layer for the Goldilocks field, built for
 * the batched Poseidon sponge path ("Gotta Hash 'Em All": ZK-hash
 * throughput is won by running independent sponge states across SIMD
 * lanes, not by vectorizing inside one state).
 *
 * Two levels:
 *
 *  - Scalar (always available): Poseidon::permuteBatch runs permute()
 *    once per state. Scalar lanes in lockstep were measured slower
 *    than that, so there is no scalar lane type.
 *  - Avx2 (goldilocks_simd_avx2.cpp, compiled only when the toolchain
 *    targets x86-64): kSimdBatchWidth = 8 states per call, each
 *    element held as two interleaved __m256i of four 64-bit lanes.
 *    add/mul are pinned to the same masked identities as the Fp
 *    operators (2^64 === 2^32 - 1, 2^96 === -1 mod p), and each
 *    linear-layer row is one dot product, reduced once per row. Every
 *    lane holds the canonical representative after every operation,
 *    so the batch agrees bit for bit with permute().
 *
 * Dispatch is decided once per process: the UNIZK_SIMD environment
 * variable ({auto, avx2, scalar}, parsed strictly through common/env.h)
 * overrides CPUID auto-detection. Forcing a level the build or the CPU
 * cannot execute warns and falls back to scalar -- never crashes.
 *
 * Raw vector intrinsics are confined to src/hash/goldilocks_simd*
 * (enforced by the raw-simd-intrinsic lint rule): everything else goes
 * through Poseidon::permuteBatch and the hashing.h batch entry points,
 * which consult activeSimdLevel().
 */

#ifndef UNIZK_HASH_GOLDILOCKS_SIMD_H
#define UNIZK_HASH_GOLDILOCKS_SIMD_H

#include <cstddef>

#include "hash/poseidon.h"

namespace unizk {

/** Number of sponge states one SIMD batch advances together. */
constexpr size_t kSimdBatchWidth = 8;

/** Available SIMD dispatch levels, in increasing capability order. */
enum class SimdLevel
{
    Scalar,
    Avx2,
};

/** Human-readable name ("scalar" / "avx2") for logs and bench JSON. */
const char *simdLevelName(SimdLevel level);

/**
 * True when @p level can execute on this build *and* this CPU (the
 * backend was compiled in and CPUID reports the feature). Scalar is
 * always available.
 */
bool simdLevelAvailable(SimdLevel level);

/**
 * The level Poseidon::permuteBatch dispatches to. Selected once on
 * first use: UNIZK_SIMD={auto,avx2,scalar} when set (unknown spellings
 * warn and mean auto; forcing an unavailable level warns and falls
 * back to scalar), otherwise the best available level.
 */
SimdLevel activeSimdLevel();

/**
 * Override the dispatch level at runtime (test/bench hook, also behind
 * the bench_poseidon --simd flag). Returns false -- and changes
 * nothing -- when the level is unavailable on this host. Results are
 * identical at every level, so flipping it mid-run is always sound.
 */
bool setSimdLevel(SimdLevel level);

#if defined(UNIZK_HAVE_AVX2)
/**
 * The AVX2 kernel: advance exactly kSimdBatchWidth (8) sponge states in
 * place. Exposed (rather than hidden behind permuteBatch) so the test
 * suite can check it against permute() regardless of the dispatched
 * level.
 */
void poseidonPermuteBatch8Avx2(const Poseidon &p, PoseidonState *states);

/**
 * The kernel's lane dot product on its own: for each lane k <
 * kSimdBatchWidth, out[k] = sum_{j < n} w[j] * x[j * kSimdBatchWidth + k],
 * canonical. Exposed so the test suite can feed the lazily reduced
 * accumulator the extreme limbs a permutation never hands it directly.
 */
void fpDotBatch8Avx2(const Fp *w, const Fp *x, size_t n, Fp *out);
#endif

} // namespace unizk

#endif // UNIZK_HASH_GOLDILOCKS_SIMD_H
