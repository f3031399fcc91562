/**
 * @file
 * AVX2 backend of the Goldilocks lane layer: eight sponge states per
 * lane value, held as two interleaved __m256i of four 64-bit residues
 * each, advanced with the same masked identities as the Fp operators
 * (operator+ / operator*):
 *
 *   2^64 === 2^32 - 1 (mod p),   2^96 === -1 (mod p)
 *
 * Two registers per value give the latency-bound partial rounds (a
 * serial S-box chain on state[0]) a second independent chain to
 * overlap with.
 *
 * AVX2 has no 64x64->128 multiply and no unsigned 64-bit compare, so
 *  - products are assembled from four 32x32 vpmuludq partial products
 *    (the textbook limb decomposition; every intermediate fits 64 bits),
 *  - unsigned compares bias both operands by 2^63 and use the signed
 *    vpcmpgtq (cmpGtU64 below),
 *  - the mid * (2^32 - 1) term of the reduction is (mid << 32) - mid.
 *
 * A dot product (one linear-layer row) is reduced lazily: ProductSum
 * adds the partial products of every term into 64-bit accumulators per
 * limb weight and runs the carry chain and the reduction once per row.
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

#include <type_traits>
#include <vector>

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

/**
 * Canonical residue of lo + mid * 2^64 + top * 2^96, for mid < 2^32 and
 * top <= 2^64 - 2^32: the reduce128 identities of the Fp multiply,
 *   x === lo + mid * (2^32 - 1) - top (mod p).
 */
inline __m256i
reduceLimbs(__m256i lo, __m256i mid, __m256i top)
{
    const __m256i eps = epsilonVec();

    __m256i t0 = _mm256_sub_epi64(lo, top);
    // A borrow wrapped the difference by +2^64 === 2^32 - 1, so take
    // that back off; lo - top + 2^64 >= 2^32, so this cannot borrow.
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

    return reduceLimbs(lo, _mm256_and_si256(hi, eps),
                       _mm256_srli_epi64(hi, 32));
}

/**
 * A lazily reduced sum of 64x64-bit products, lane-wise: add() costs
 * 18 vector ops per term (four vpmuludq, two shuffles, four shifts,
 * eight adds) where a canonical multiply plus a canonical add costs
 * about 50; reduce() pays the carry chain and reduceLimbs once for the
 * whole sum.
 *
 * Each term w * x splits into partial products ll = wl*xl (weight
 * 2^0), lh = wl*xh and hl = wh*xl (2^32), hh = wh*xh (2^64). For each
 * weight 2^(32k), f_k sums the whole products modulo 2^64 and h_(k+1)
 * sums their high 32-bit halves exactly. The low halves then sum to
 * f_k - (h_(k+1) << 32): exact modulo 2^64 and below 2n * 2^32, so
 * for n < 2^31 it is the true sum. The h_k and the per-weight sums
 * stay below 3n * 2^32, far from overflow for a Poseidon row (n = 12).
 */
class ProductSum
{
  public:
    /** Add w * x, w the same constant in every lane. */
    void
    add(Fp w, __m256i x)
    {
        // vpmuludq reads the low 32 bits of each 64-bit lane, so the
        // high halves only need moving down, not zero-extending.
        const __m256i w_lo =
            _mm256_set1_epi64x(static_cast<long long>(w.value()));
        const __m256i w_hi = _mm256_shuffle_epi32(w_lo, 0xF5);
        const __m256i x_hi = _mm256_shuffle_epi32(x, 0xF5);
        const __m256i ll = _mm256_mul_epu32(x, w_lo);
        const __m256i lh = _mm256_mul_epu32(x_hi, w_lo);
        const __m256i hl = _mm256_mul_epu32(x, w_hi);
        const __m256i hh = _mm256_mul_epu32(x_hi, w_hi);
        f0_ = _mm256_add_epi64(f0_, ll);
        h1_ = _mm256_add_epi64(h1_, _mm256_srli_epi64(ll, 32));
        f1_ = _mm256_add_epi64(f1_, _mm256_add_epi64(lh, hl));
        h2_ = _mm256_add_epi64(h2_,
                               _mm256_add_epi64(_mm256_srli_epi64(lh, 32),
                                                _mm256_srli_epi64(hl, 32)));
        f2_ = _mm256_add_epi64(f2_, hh);
        h3_ = _mm256_add_epi64(h3_, _mm256_srli_epi64(hh, 32));
    }

    /** The canonical residue of the sum. */
    __m256i
    reduce() const
    {
        const __m256i eps = epsilonVec();
        // Exact per-weight sums s_k, value = sum_k s_k * 2^(32k).
        const __m256i s0 = _mm256_sub_epi64(f0_, _mm256_slli_epi64(h1_, 32));
        const __m256i s1 = _mm256_add_epi64(
            _mm256_sub_epi64(f1_, _mm256_slli_epi64(h2_, 32)), h1_);
        const __m256i s2 = _mm256_add_epi64(
            _mm256_sub_epi64(f2_, _mm256_slli_epi64(h3_, 32)), h2_);

        // Carry into lo (bits 0..63), mid (64..95), top (96..).
        const __m256i c1 = _mm256_add_epi64(s1, _mm256_srli_epi64(s0, 32));
        const __m256i lo = _mm256_or_si256(_mm256_slli_epi64(c1, 32),
                                           _mm256_and_si256(s0, eps));
        const __m256i c2 = _mm256_add_epi64(s2, _mm256_srli_epi64(c1, 32));
        const __m256i top =
            _mm256_add_epi64(h3_, _mm256_srli_epi64(c2, 32));
        return reduceLimbs(lo, _mm256_and_si256(c2, eps), top);
    }

  private:
    __m256i f0_ = _mm256_setzero_si256();
    __m256i f1_ = _mm256_setzero_si256();
    __m256i f2_ = _mm256_setzero_si256();
    __m256i h1_ = _mm256_setzero_si256();
    __m256i h2_ = _mm256_setzero_si256();
    __m256i h3_ = _mm256_setzero_si256();
};

/**
 * One Goldilocks element of kSimdBatchWidth = 8 sponge states, lane k
 * of v[k / 4] belonging to state k: the lane type
 * poseidonPermuteBatchImpl expects. Every operation runs on both
 * halves, so the two dependency chains interleave.
 */
struct FpVec8Avx2
{
    static constexpr size_t kHalves = 2;
    static constexpr size_t kLanes = 4;

    __m256i v[kHalves];

    /** Element @p i of eight consecutive sponge states, one per lane. */
    static FpVec8Avx2
    gather(const PoseidonState *states, size_t i)
    {
        FpVec8Avx2 out;
        for (size_t h = 0; h < kHalves; ++h) {
            const PoseidonState *s = states + h * kLanes;
            // set_epi64x lists lanes high-to-low.
            out.v[h] = _mm256_set_epi64x(
                static_cast<long long>(s[3][i].value()),
                static_cast<long long>(s[2][i].value()),
                static_cast<long long>(s[1][i].value()),
                static_cast<long long>(s[0][i].value()));
        }
        return out;
    }

    /** Write the lanes back into element @p i of eight states. */
    void
    scatter(PoseidonState *states, size_t i) const
    {
        alignas(32) uint64_t out[kSimdBatchWidth];
        for (size_t h = 0; h < kHalves; ++h)
            _mm256_store_si256(reinterpret_cast<__m256i *>(out + h * kLanes),
                               v[h]);
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            states[k][i] = Fp(out[k]);
    }

    /** The same constant in every lane. */
    static FpVec8Avx2
    broadcast(Fp x)
    {
        const __m256i b =
            _mm256_set1_epi64x(static_cast<long long>(x.value()));
        return {{b, b}};
    }

    static FpVec8Avx2
    add(const FpVec8Avx2 &a, const FpVec8Avx2 &b)
    {
        return {{addU64Mod(a.v[0], b.v[0]), addU64Mod(a.v[1], b.v[1])}};
    }

    static FpVec8Avx2
    mul(const FpVec8Avx2 &a, const FpVec8Avx2 &b)
    {
        return {{mulU64Mod(a.v[0], b.v[0]), mulU64Mod(a.v[1], b.v[1])}};
    }

    /** Canonical sum of w[j] * x[j] over j < n, reduced once. */
    static FpVec8Avx2
    dot(const Fp *w, const FpVec8Avx2 *x, size_t n)
    {
        FpVec8Avx2 out;
        for (size_t h = 0; h < kHalves; ++h) {
            ProductSum sum;
            for (size_t j = 0; j < n; ++j)
                sum.add(w[j], x[j].v[h]);
            out.v[h] = sum.reduce();
        }
        return out;
    }
};

} // namespace

void
poseidonPermuteBatch8Avx2(const Poseidon &p, PoseidonState *states)
{
    poseidonPermuteBatchImpl<FpVec8Avx2>(p, states);
}

void
fpDotBatch8Avx2(const Fp *w, const Fp *x, size_t n, Fp *out)
{
    // Fp is one uint64_t, so a run of four is one __m256i.
    static_assert(sizeof(Fp) == sizeof(uint64_t) &&
                  std::is_trivially_copyable_v<Fp>);
    std::vector<FpVec8Avx2> lanes(n);
    for (size_t j = 0; j < n; ++j)
        for (size_t h = 0; h < FpVec8Avx2::kHalves; ++h)
            lanes[j].v[h] = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(
                    x + j * kSimdBatchWidth + h * FpVec8Avx2::kLanes));
    const FpVec8Avx2 sum = FpVec8Avx2::dot(w, lanes.data(), n);
    for (size_t h = 0; h < FpVec8Avx2::kHalves; ++h)
        _mm256_storeu_si256(
            reinterpret_cast<__m256i *>(out + h * FpVec8Avx2::kLanes),
            sum.v[h]);
}

} // namespace unizk
