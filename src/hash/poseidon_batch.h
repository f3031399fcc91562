/**
 * @file
 * The batched Poseidon permutation, templated over a 4-wide Goldilocks
 * lane type (today only the AVX2 backend's). Vectorization is
 * *vertical*: lane k of every vector belongs to sponge state k, so all
 * four states advance through identical operations in lockstep and no
 * horizontal (cross-lane) instruction is ever needed -- full rounds,
 * the dense PreMDSMatrix, and the sparse partial-round chain all
 * become element-wise vector arithmetic against broadcast constants.
 *
 * This mirrors Poseidon::permute (the optimized Algorithm-1 form) step
 * for step; since every lane operation returns the canonical
 * representative, the result is bit-identical to four scalar permute()
 * calls, which the dispatch-equivalence suite pins against
 * permuteNaive.
 *
 * No intrinsics appear here (the raw-simd-intrinsic lint rule scopes
 * them to goldilocks_simd*); a backend TU instantiates the template
 * with its own lane type under its own codegen flags.
 */

#ifndef UNIZK_HASH_POSEIDON_BATCH_H
#define UNIZK_HASH_POSEIDON_BATCH_H

#include "hash/poseidon.h"

namespace unizk {

template <typename V>
inline void
poseidonPermuteBatch4Impl(const Poseidon &p, PoseidonState *states)
{
    constexpr uint32_t t = PoseidonConfig::width;
    constexpr uint32_t rp = PoseidonConfig::partialRounds;
    constexpr uint32_t half = PoseidonConfig::halfFullRounds;

    const auto &arc = p.roundConstants();
    const Fp *mds = p.mdsFlat();
    const Fp *pre = p.preFlat();

    V st[t];
    for (uint32_t i = 0; i < t; ++i)
        st[i] = V::gather(states, i);

    // x^7, same multiplication chain as Poseidon::sbox.
    const auto sbox = [](const V &x) {
        const V x2 = V::mul(x, x);
        const V x3 = V::mul(x2, x);
        const V x6 = V::mul(x3, x3);
        return V::mul(x6, x);
    };

    // Dense t x t matrix against broadcast row constants. Unlike the
    // scalar fpDot path there is no lazy-reduction trick: every product
    // is reduced to canonical form, which keeps the backends exactly
    // interchangeable.
    const auto dense = [&st](const Fp *m) {
        V out[t];
        for (uint32_t i = 0; i < t; ++i) {
            V acc = V::mul(V::broadcast(m[i * t]), st[0]);
            for (uint32_t j = 1; j < t; ++j)
                acc = V::add(acc,
                             V::mul(V::broadcast(m[i * t + j]), st[j]));
            out[i] = acc;
        }
        for (uint32_t i = 0; i < t; ++i)
            st[i] = out[i];
    };

    const auto fullRound = [&](uint32_t round) {
        for (uint32_t i = 0; i < t; ++i)
            st[i] = sbox(V::add(st[i], V::broadcast(arc[round][i])));
        dense(mds);
    };

    for (uint32_t r = 0; r < half; ++r)
        fullRound(r);

    // PrePartialRound: constant add then dense PreMDSMatrix.
    const PoseidonState &pre_c = p.prePartialConstants();
    for (uint32_t i = 0; i < t; ++i)
        st[i] = V::add(st[i], V::broadcast(pre_c[i]));
    dense(pre);

    // Partial rounds: sbox lane 0, scalar constant, sparse layer.
    const auto &partial_c = p.partialConstants();
    const auto &layers = p.sparseLayers();
    for (uint32_t r = 0; r < rp; ++r) {
        V s0 = sbox(st[0]);
        s0 = V::add(s0, V::broadcast(partial_c[r]));

        const SparseMdsLayer &layer = layers[r];
        V new0 = V::mul(V::broadcast(layer.m00), s0);
        for (uint32_t j = 0; j + 1 < t; ++j)
            new0 = V::add(
                new0, V::mul(V::broadcast(layer.v[j]), st[j + 1]));
        for (uint32_t i = 0; i + 1 < t; ++i)
            st[i + 1] = V::add(
                st[i + 1], V::mul(V::broadcast(layer.w[i]), s0));
        st[0] = new0;
    }

    for (uint32_t r = 0; r < half; ++r)
        fullRound(half + rp + r);

    for (uint32_t i = 0; i < t; ++i)
        st[i].scatter(states, i);
}

} // namespace unizk

#endif // UNIZK_HASH_POSEIDON_BATCH_H
