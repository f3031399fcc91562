/**
 * @file
 * AVX2 backend of the Goldilocks lane layer: four 64-bit residues per
 * __m256i, advanced with the same masked identities as the Fp
 * operators (operator+ / operator- / operator*):
 *
 *   2^64 === 2^32 - 1 (mod p),   2^96 === -1 (mod p)
 *
 * AVX2 has no 64x64->128 multiply and no unsigned 64-bit compare, so
 *  - products are assembled from four 32x32 vpmuludq partial products
 *    (the textbook limb decomposition; every intermediate fits 64 bits),
 *  - unsigned compares bias both operands by 2^63 and use the signed
 *    vpcmpgtq (cmpGtU64 below),
 *  - the mid * (2^32 - 1) term of the reduction is (mid << 32) - mid.
 *
 * Every operation returns the canonical representative, so the batch
 * is bit-interchangeable with Poseidon::permute; the equivalence suite
 * in tests/test_poseidon.cpp pins that on every AVX2 host.
 *
 * This TU is the only one compiled with -mavx2 (per-file flag in
 * src/hash/CMakeLists.txt) and, with goldilocks_simd.h/.cpp, the only
 * place raw intrinsics are allowed (raw-simd-intrinsic lint rule). It
 * deliberately touches nothing but intrinsics, Fp accessors, and the
 * batch template, so no shared inline function gets AVX2 codegen that
 * a non-AVX2 host could pick up at link time.
 */

#include <immintrin.h>

#include "hash/goldilocks_simd.h"
#include "hash/poseidon_batch.h"

namespace unizk {

namespace {

constexpr long long kModulusLL =
    static_cast<long long>(Fp::modulus);
/** 2^32 - 1: the wraparound adjustment constant. */
constexpr long long kEpsilonLL = 0xFFFFFFFFLL;
/** Sign-bit bias turning unsigned order into signed order. */
constexpr long long kBiasLL =
    static_cast<long long>(0x8000000000000000ULL);

inline __m256i
modulusVec()
{
    return _mm256_set1_epi64x(kModulusLL);
}

inline __m256i
epsilonVec()
{
    return _mm256_set1_epi64x(kEpsilonLL);
}

/** Lane mask: 0xFF.. where unsigned a > unsigned b. */
inline __m256i
cmpGtU64(__m256i a, __m256i b)
{
    const __m256i bias = _mm256_set1_epi64x(kBiasLL);
    return _mm256_cmpgt_epi64(_mm256_xor_si256(a, bias),
                              _mm256_xor_si256(b, bias));
}

/** Canonicalize a value in [0, 2p): subtract p where >= p. */
inline __m256i
canonicalize(__m256i x)
{
    const __m256i mod = modulusVec();
    // x >= p  <=>  x > p - 1.
    const __m256i ge =
        cmpGtU64(x, _mm256_sub_epi64(mod, _mm256_set1_epi64x(1)));
    return _mm256_sub_epi64(x, _mm256_and_si256(mod, ge));
}

/** Canonical a + b, mirroring Fp's operator+. */
inline __m256i
addU64Mod(__m256i a, __m256i b)
{
    __m256i s = _mm256_add_epi64(a, b);
    // Wraparound past 2^64: s < a. The adjustment (+= 2^32 - 1) lands
    // back in canonical range, so the final subtract sees no carry.
    const __m256i wrapped = cmpGtU64(a, s);
    s = _mm256_add_epi64(s, _mm256_and_si256(epsilonVec(), wrapped));
    return canonicalize(s);
}

/** Canonical a - b, mirroring Fp's operator-. */
inline __m256i
subU64Mod(__m256i a, __m256i b)
{
    __m256i d = _mm256_sub_epi64(a, b);
    const __m256i borrowed = cmpGtU64(b, a);
    d = _mm256_add_epi64(d, _mm256_and_si256(modulusVec(), borrowed));
    return d;
}

/** Canonical a * b, mirroring Fp's operator*. */
inline __m256i
mulU64Mod(__m256i a, __m256i b)
{
    const __m256i eps = epsilonVec();

    // 64x64 -> 128 from 32x32 partial products; vpmuludq reads the low
    // 32 bits of each 64-bit lane.
    const __m256i a_hi = _mm256_srli_epi64(a, 32);
    const __m256i b_hi = _mm256_srli_epi64(b, 32);
    const __m256i ll = _mm256_mul_epu32(a, b);
    const __m256i lh = _mm256_mul_epu32(a, b_hi);
    const __m256i hl = _mm256_mul_epu32(a_hi, b);
    const __m256i hh = _mm256_mul_epu32(a_hi, b_hi);

    // t = hl + (ll >> 32) and u = lh + lo32(t) both fit in 64 bits:
    // (2^32 - 1)^2 + (2^32 - 1) < 2^64.
    const __m256i t = _mm256_add_epi64(hl, _mm256_srli_epi64(ll, 32));
    const __m256i u =
        _mm256_add_epi64(lh, _mm256_and_si256(t, eps));
    const __m256i lo = _mm256_or_si256(_mm256_slli_epi64(u, 32),
                                       _mm256_and_si256(ll, eps));
    const __m256i hi =
        _mm256_add_epi64(_mm256_add_epi64(hh, _mm256_srli_epi64(t, 32)),
                         _mm256_srli_epi64(u, 32));

    // reduce128: x = lo + mid*2^64 + top*2^96
    //              === lo + mid*(2^32 - 1) - top (mod p).
    const __m256i mid = _mm256_and_si256(hi, eps);
    const __m256i top = _mm256_srli_epi64(hi, 32);

    __m256i t0 = _mm256_sub_epi64(lo, top);
    const __m256i borrowed = cmpGtU64(top, lo);
    t0 = _mm256_sub_epi64(t0, _mm256_and_si256(eps, borrowed));

    // mid * (2^32 - 1) = (mid << 32) - mid, exact in 64 bits.
    const __m256i t1 =
        _mm256_sub_epi64(_mm256_slli_epi64(mid, 32), mid);

    __m256i res = _mm256_add_epi64(t0, t1);
    const __m256i carried = cmpGtU64(t1, res);
    res = _mm256_add_epi64(res, _mm256_and_si256(eps, carried));
    return canonicalize(res);
}

/**
 * Four Goldilocks lanes in one AVX2 register, lane k belonging to
 * sponge state k: the lane type poseidonPermuteBatch4Impl expects.
 */
struct FpVec4Avx2
{
    __m256i v;

    /** Element @p i of four consecutive sponge states, one per lane. */
    static FpVec4Avx2
    gather(const PoseidonState *states, size_t i)
    {
        // set_epi64x lists lanes high-to-low.
        return {_mm256_set_epi64x(
            static_cast<long long>(states[3][i].value()),
            static_cast<long long>(states[2][i].value()),
            static_cast<long long>(states[1][i].value()),
            static_cast<long long>(states[0][i].value()))};
    }

    /** Write the lanes back into element @p i of four states. */
    void
    scatter(PoseidonState *states, size_t i) const
    {
        alignas(32) uint64_t out[kSimdBatchWidth];
        _mm256_store_si256(reinterpret_cast<__m256i *>(out), v);
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            states[k][i] = Fp(out[k]);
    }

    /** The same constant in every lane. */
    static FpVec4Avx2
    broadcast(Fp x)
    {
        return {_mm256_set1_epi64x(static_cast<long long>(x.value()))};
    }

    static FpVec4Avx2
    add(const FpVec4Avx2 &a, const FpVec4Avx2 &b)
    {
        return {addU64Mod(a.v, b.v)};
    }

    static FpVec4Avx2
    sub(const FpVec4Avx2 &a, const FpVec4Avx2 &b)
    {
        return {subU64Mod(a.v, b.v)};
    }

    static FpVec4Avx2
    mul(const FpVec4Avx2 &a, const FpVec4Avx2 &b)
    {
        return {mulU64Mod(a.v, b.v)};
    }
};

} // namespace

void
poseidonPermuteBatch4Avx2(const Poseidon &p, PoseidonState *states)
{
    poseidonPermuteBatch4Impl<FpVec4Avx2>(p, states);
}

} // namespace unizk
