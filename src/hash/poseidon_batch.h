/**
 * @file
 * The batched Poseidon permutation, templated over a Goldilocks lane
 * type V that holds one element of kSimdBatchWidth sponge states
 * (today only the AVX2 backend's). Vectorization is *vertical*: lane k
 * of every vector belongs to sponge state k, so all states advance
 * through identical operations in lockstep and no horizontal
 * (cross-lane) instruction is ever needed -- full rounds, the dense
 * PreMDSMatrix, and the sparse partial-round chain all become
 * element-wise vector arithmetic against broadcast constants.
 *
 * The lane type provides gather/scatter, broadcast, add, mul and
 * dot(w, x, n) = sum w[j] * x[j]. Every linear-layer row -- each row of
 * the dense MDS and PreMDS matrices and each partial round's new
 * state[0] -- is one dot, which the backend accumulates lazily and
 * reduces once per row rather than once per term.
 *
 * This mirrors Poseidon::permute (the optimized Algorithm-1 form) step
 * for step; since every lane operation, dot included, returns the
 * canonical representative, the result is bit-identical to scalar
 * permute() calls, which the dispatch-equivalence suite pins against
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
poseidonPermuteBatchImpl(const Poseidon &p, PoseidonState *states)
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

    // Dense t x t matrix against broadcast row constants, one dot per
    // row (reduced once per row, as scalar fpDot is).
    const auto dense = [&st](const Fp *m) {
        V out[t];
        for (uint32_t i = 0; i < t; ++i)
            out[i] = V::dot(&m[i * t], st, t);
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
        const V s0 =
            V::add(sbox(st[0]), V::broadcast(partial_c[r]));
        st[0] = s0;

        const SparseMdsLayer &layer = layers[r];
        const V new0 = V::dot(layer.row0.data(), st, t);
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
