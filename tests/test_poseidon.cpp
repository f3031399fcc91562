/**
 * @file
 * Tests for the Poseidon permutation: structural properties of the
 * generated parameters, the equivalence between the naive permutation
 * and the optimized Algorithm-1 form (the factorization the UniZK
 * partial-round mapping relies on), and sponge/digest behaviour.
 */

#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <utility>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "hash/challenger.h"
#include "hash/goldilocks_simd.h"
#include "hash/hashing.h"
#include "hash/poseidon.h"
#include "unizk/pipeline.h"

namespace unizk {
namespace {

PoseidonState
randomState(uint64_t seed)
{
    SplitMix64 rng(seed);
    PoseidonState s;
    for (auto &x : s)
        x = randomFp(rng);
    return s;
}

TEST(Poseidon, SboxIsSeventhPower)
{
    SplitMix64 rng(1);
    for (int i = 0; i < 20; ++i) {
        const Fp x = randomFp(rng);
        EXPECT_EQ(Poseidon::sbox(x), x.pow(7));
    }
}

TEST(Poseidon, MdsMatrixInvertible)
{
    const auto &p = Poseidon::instance();
    EXPECT_TRUE(p.mdsMatrix().inverse().has_value());
}

TEST(Poseidon, MdsMatrixSmallMinorsNonsingular)
{
    // Full MDS check is exponential at 12x12; verify all 1x1 and 2x2
    // minors (the Cauchy construction guarantees the rest).
    EXPECT_TRUE(Poseidon::instance().mdsMatrix().isMds());
}

TEST(Poseidon, RoundConstantCount)
{
    const auto &p = Poseidon::instance();
    EXPECT_EQ(p.roundConstants().size(), PoseidonConfig::totalRounds);
}

TEST(Poseidon, NaiveEqualsOptimized)
{
    // The load-bearing test: the derived PrePartialRound + sparse-MDS
    // form (what the hardware executes) must match the textbook
    // permutation bit for bit.
    const auto &p = Poseidon::instance();
    for (uint64_t seed = 0; seed < 50; ++seed) {
        PoseidonState a = randomState(seed);
        PoseidonState b = a;
        p.permuteNaive(a);
        p.permute(b);
        EXPECT_EQ(a, b) << "seed " << seed;
    }
}

TEST(Poseidon, ZeroStateNaiveEqualsOptimized)
{
    const auto &p = Poseidon::instance();
    PoseidonState a{}, b{};
    p.permuteNaive(a);
    p.permute(b);
    EXPECT_EQ(a, b);
}

TEST(Poseidon, PermutationIsDeterministic)
{
    const auto &p = Poseidon::instance();
    PoseidonState a = randomState(5), b = a;
    p.permute(a);
    p.permute(b);
    EXPECT_EQ(a, b);
}

TEST(Poseidon, PermutationChangesState)
{
    const auto &p = Poseidon::instance();
    PoseidonState a = randomState(6);
    const PoseidonState orig = a;
    p.permute(a);
    EXPECT_NE(a, orig);
}

TEST(Poseidon, AvalancheOnSingleElementChange)
{
    const auto &p = Poseidon::instance();
    PoseidonState a = randomState(7), b = a;
    b[0] += Fp::one();
    p.permute(a);
    p.permute(b);
    int differing = 0;
    for (uint32_t i = 0; i < PoseidonConfig::width; ++i)
        differing += a[i] != b[i];
    EXPECT_EQ(differing, int(PoseidonConfig::width));
}

TEST(Poseidon, SparseLayersHaveExpectedStructure)
{
    // Reconstruct each sparse layer as a dense matrix and check that
    // the product of (pre-matrix, per-round layers) composes to the
    // same linear map as the naive chain of dense MDS multiplications
    // would (with S-box = identity, constants = 0, chains are linear).
    const auto &p = Poseidon::instance();
    const auto &mds = p.mdsMatrix();
    const uint32_t w = PoseidonConfig::width;

    FpMatrix chain_naive = FpMatrix::identity(w);
    for (uint32_t r = 0; r < PoseidonConfig::partialRounds; ++r)
        chain_naive = mds.mul(chain_naive);

    FpMatrix chain_opt = p.preMdsMatrix();
    for (const auto &layer : p.sparseLayers()) {
        FpMatrix a(w, w);
        a.at(0, 0) = layer.row0[0];
        for (uint32_t j = 0; j + 1 < w; ++j) {
            a.at(0, j + 1) = layer.row0[j + 1];
            a.at(j + 1, 0) = layer.w[j];
            a.at(j + 1, j + 1) = Fp::one();
        }
        chain_opt = a.mul(chain_opt);
    }
    EXPECT_EQ(chain_opt, chain_naive);
}

TEST(Poseidon, PreMatrixFixesLaneZero)
{
    // The pre-matrix is diag(1, Mhat^R): lane 0 must pass through
    // untouched so the first partial-round S-box sees the right value.
    const auto &pm = Poseidon::instance().preMdsMatrix();
    EXPECT_EQ(pm.at(0, 0), Fp::one());
    for (uint32_t j = 1; j < PoseidonConfig::width; ++j) {
        EXPECT_TRUE(pm.at(0, j).isZero());
        EXPECT_TRUE(pm.at(j, 0).isZero());
    }
}

TEST(Hashing, DigestDependsOnAllInputs)
{
    std::vector<Fp> in(10);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = Fp(i + 1);
    const HashOut h = hashNoPad(in);
    for (size_t i = 0; i < in.size(); ++i) {
        auto in2 = in;
        in2[i] += Fp::one();
        EXPECT_NE(hashNoPad(in2), h) << "input " << i;
    }
}

TEST(Hashing, DigestDependsOnLength)
{
    std::vector<Fp> a(8, Fp(1));
    std::vector<Fp> b(9, Fp(1));
    EXPECT_NE(hashNoPad(a), hashNoPad(b));
}

TEST(Hashing, TwoToOneOrderMatters)
{
    HashOut l, r;
    l.elems[0] = Fp(1);
    r.elems[0] = Fp(2);
    EXPECT_NE(hashTwoToOne(l, r), hashTwoToOne(r, l));
}

TEST(Hashing, HashOrNoopPacksShortInputs)
{
    const std::vector<Fp> in{Fp(7), Fp(8)};
    const HashOut h = hashOrNoop(in);
    EXPECT_EQ(h.elems[0], Fp(7));
    EXPECT_EQ(h.elems[1], Fp(8));
    EXPECT_TRUE(h.elems[2].isZero());
}

TEST(Hashing, HashOrNoopDigestsPinnedForShortLengths)
{
    // Pin the noop/hash behaviour for every length the SIMD batch path
    // must reproduce exactly. Lengths 1..4 pack the inputs zero-padded
    // into the digest; length 0 *hashes* (one permutation), so the
    // empty leaf can neither collide with the all-zero length-4 leaf
    // nor diverge from hashOrNoopPermutationCount's accounting.
    for (size_t len = 1; len <= 4; ++len) {
        std::vector<Fp> in;
        for (size_t i = 0; i < len; ++i)
            in.push_back(Fp(100 + i));
        const HashOut h = hashOrNoop(in);
        for (size_t i = 0; i < 4; ++i) {
            if (i < len)
                EXPECT_EQ(h.elems[i], Fp(100 + i))
                    << "len=" << len << " elem=" << i;
            else
                EXPECT_TRUE(h.elems[i].isZero())
                    << "len=" << len << " elem=" << i;
        }
    }

    // Length 0: the hashing path, byte-identical to hashNoPad({}).
    const HashOut empty = hashOrNoop({});
    EXPECT_EQ(empty, hashNoPad({}));
    EXPECT_NE(empty, hashOrNoop(std::vector<Fp>(4, Fp(0))));

    // Length 5 crosses the noop/hash boundary: a real digest, not a
    // prefix packing.
    const std::vector<Fp> five{Fp(1), Fp(2), Fp(3), Fp(4), Fp(5)};
    const HashOut h5 = hashOrNoop(five);
    EXPECT_EQ(h5, hashNoPad(five));
    EXPECT_NE(h5.elems[0], Fp(1));
}

TEST(Hashing, PermutationCountMatchesAbsorption)
{
    EXPECT_EQ(permutationCountForLength(0), 1u);
    EXPECT_EQ(permutationCountForLength(1), 1u);
    EXPECT_EQ(permutationCountForLength(8), 1u);
    EXPECT_EQ(permutationCountForLength(9), 2u);
    EXPECT_EQ(permutationCountForLength(135), 17u); // paper's leaf width
}

/** Run @p fn under a forced SIMD level, restoring the old level after. */
template <typename Fn>
void
withSimdLevel(SimdLevel level, Fn &&fn)
{
    const SimdLevel prev = activeSimdLevel();
    ASSERT_TRUE(setSimdLevel(level));
    fn();
    ASSERT_TRUE(setSimdLevel(prev));
}

TEST(SimdDispatch, ScalarAlwaysAvailable)
{
    EXPECT_TRUE(simdLevelAvailable(SimdLevel::Scalar));
    EXPECT_STREQ(simdLevelName(SimdLevel::Scalar), "scalar");
    EXPECT_STREQ(simdLevelName(SimdLevel::Avx2), "avx2");
}

TEST(SimdDispatch, SetSimdLevelRejectsUnavailable)
{
    const SimdLevel prev = activeSimdLevel();
    if (!simdLevelAvailable(SimdLevel::Avx2)) {
        EXPECT_FALSE(setSimdLevel(SimdLevel::Avx2));
        // A rejected override must leave the level untouched.
        EXPECT_EQ(activeSimdLevel(), prev);
    } else {
        EXPECT_TRUE(setSimdLevel(SimdLevel::Avx2));
        EXPECT_EQ(activeSimdLevel(), SimdLevel::Avx2);
        EXPECT_TRUE(setSimdLevel(prev));
    }
}

TEST(SimdDispatch, BatchMatchesNaiveForEveryBatchSize)
{
    // The exhaustive dispatch-equivalence suite: permuteBatch against
    // the textbook permuteNaive oracle for every batch size 1..17 (two
    // full groups of kSimdBatchWidth = 8 plus every ragged tail), at
    // every level this host can execute.
    const auto &p = Poseidon::instance();
    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);

    for (const SimdLevel level : levels) {
        withSimdLevel(level, [&] {
            for (size_t n = 1; n <= 2 * kSimdBatchWidth + 1; ++n) {
                std::vector<PoseidonState> batch(n);
                std::vector<PoseidonState> oracle(n);
                for (size_t i = 0; i < n; ++i) {
                    batch[i] = randomState(1000 * n + i);
                    oracle[i] = batch[i];
                    p.permuteNaive(oracle[i]);
                }
                p.permuteBatch(batch.data(), n);
                for (size_t i = 0; i < n; ++i)
                    EXPECT_EQ(batch[i], oracle[i])
                        << simdLevelName(level) << " n=" << n
                        << " state=" << i;
            }
        });
    }
}

TEST(SimdDispatch, Avx2KernelMatchesScalarKernel)
{
#if defined(UNIZK_HAVE_AVX2)
    if (!simdLevelAvailable(SimdLevel::Avx2))
        GTEST_SKIP() << "CPU lacks AVX2";
    // Differential test of the 8-state AVX2 kernel directly (no
    // dispatch) against permute() per state, itself pinned against
    // permuteNaive: identical inputs must give bit-identical outputs.
    const auto &p = Poseidon::instance();
    for (uint64_t seed = 0; seed < 25; ++seed) {
        PoseidonState a[kSimdBatchWidth];
        PoseidonState b[kSimdBatchWidth];
        for (size_t i = 0; i < kSimdBatchWidth; ++i) {
            a[i] = randomState(7000 + seed * kSimdBatchWidth + i);
            b[i] = a[i];
            p.permute(a[i]);
        }
        poseidonPermuteBatch8Avx2(p, b);
        for (size_t i = 0; i < kSimdBatchWidth; ++i)
            EXPECT_EQ(a[i], b[i]) << "seed=" << seed << " state=" << i;
    }
#else
    GTEST_SKIP() << "AVX2 backend not compiled in";
#endif
}

TEST(SimdDispatch, Avx2KernelMatchesScalarKernelOnExtremeInputs)
{
#if defined(UNIZK_HAVE_AVX2)
    if (!simdLevelAvailable(SimdLevel::Avx2))
        GTEST_SKIP() << "CPU lacks AVX2";
    // The lazily reduced row accumulator is where an overflow would
    // hide, so drive the kernel with the values that maximise its
    // 32-bit limbs and carries, not just random ones.
    const uint64_t pm1 = Fp::modulus - 1; // 0xFFFFFFFF'00000000
    const uint64_t lo_max = 0xFFFFFFFFULL;
    const uint64_t both_max = 0xFFFFFFFEFFFFFFFFULL;
    const std::vector<std::pair<const char *,
                                std::function<uint64_t(size_t, size_t)>>>
        patterns{
            {"all p-1", [&](size_t, size_t) { return pm1; }},
            {"all 0", [](size_t, size_t) { return uint64_t{0}; }},
            {"alternating 0/p-1",
             [&](size_t k, size_t i) {
                 return (k + i) % 2 == 0 ? uint64_t{0} : pm1;
             }},
            {"limbs at 2^32-1",
             [&](size_t k, size_t i) {
                 const uint64_t v[] = {lo_max, pm1, both_max};
                 return v[(k + i) % 3];
             }},
            {"mixed lanes",
             [&](size_t k, size_t i) {
                 const uint64_t v[] = {0,      1,        lo_max,
                                       pm1,    both_max, pm1 - 1,
                                       lo_max + 1, 0x8000000000000000ULL};
                 return v[(k * 5 + i * 3) % 8];
             }},
        };

    const auto &p = Poseidon::instance();
    for (const auto &[name, value] : patterns) {
        PoseidonState a[kSimdBatchWidth];
        PoseidonState b[kSimdBatchWidth];
        for (size_t k = 0; k < kSimdBatchWidth; ++k) {
            for (size_t i = 0; i < PoseidonConfig::width; ++i)
                a[k][i] = Fp(value(k, i));
            b[k] = a[k];
            p.permute(a[k]);
        }
        poseidonPermuteBatch8Avx2(p, b);
        for (size_t k = 0; k < kSimdBatchWidth; ++k)
            EXPECT_EQ(a[k], b[k]) << name << " state=" << k;
    }
#else
    GTEST_SKIP() << "AVX2 backend not compiled in";
#endif
}

TEST(SimdDispatch, Avx2LaneDotMatchesFpDotOnExtremeLimbs)
{
#if defined(UNIZK_HAVE_AVX2)
    if (!simdLevelAvailable(SimdLevel::Avx2))
        GTEST_SKIP() << "CPU lacks AVX2";
    // The lane dot sums the 32-bit halves of every partial product in
    // 64-bit lanes and reduces once. All-(p-1) weights and inputs
    // maximise every limb sum; 2^32-1 limbs maximise the carries. Rows
    // far longer than a Poseidon row (12) show the headroom.
    const uint64_t pm1 = Fp::modulus - 1; // 0xFFFFFFFF'00000000
    const uint64_t extremes[] = {pm1,         0xFFFFFFFFULL,
                                 0xFFFFFFFEFFFFFFFFULL, 0,
                                 1,           pm1 - 1};
    constexpr size_t kExtremes = std::size(extremes);
    SplitMix64 rng(9);
    for (const size_t n : {1u, 2u, 11u, 12u, 13u, 64u}) {
        for (size_t variant = 0; variant <= kExtremes; ++variant) {
            // variant < kExtremes: every weight and input that value;
            // the last variant mixes them per term and lane.
            std::vector<Fp> w(n);
            std::vector<Fp> x(n * kSimdBatchWidth);
            for (size_t j = 0; j < n; ++j) {
                w[j] = Fp(variant < kExtremes
                              ? extremes[variant]
                              : extremes[(j * 7) % kExtremes]);
                for (size_t k = 0; k < kSimdBatchWidth; ++k)
                    x[j * kSimdBatchWidth + k] =
                        Fp(variant < kExtremes
                               ? extremes[variant]
                               : extremes[(j + 3 * k) % kExtremes]);
            }
            Fp out[kSimdBatchWidth];
            fpDotBatch8Avx2(w.data(), x.data(), n, out);
            for (size_t k = 0; k < kSimdBatchWidth; ++k) {
                std::vector<Fp> lane(n);
                for (size_t j = 0; j < n; ++j)
                    lane[j] = x[j * kSimdBatchWidth + k];
                EXPECT_EQ(out[k], fpDot(w.data(), lane.data(), n))
                    << "n=" << n << " variant=" << variant
                    << " lane=" << k;
            }
        }
        // Random rows as a control.
        std::vector<Fp> w(n), x(n * kSimdBatchWidth);
        for (auto &e : w)
            e = randomFp(rng);
        for (auto &e : x)
            e = randomFp(rng);
        Fp out[kSimdBatchWidth];
        fpDotBatch8Avx2(w.data(), x.data(), n, out);
        for (size_t k = 0; k < kSimdBatchWidth; ++k) {
            Fp ref;
            for (size_t j = 0; j < n; ++j)
                ref += w[j] * x[j * kSimdBatchWidth + k];
            EXPECT_EQ(out[k], ref) << "random n=" << n << " lane=" << k;
        }
    }
#else
    GTEST_SKIP() << "AVX2 backend not compiled in";
#endif
}

TEST(SimdDispatch, BatchHashingMatchesScalarHashing)
{
    // The hashing.h batch entry points against their scalar
    // counterparts, covering equal-length runs, mixed lengths (which
    // force the scalar fallback inside the batcher), noop-path leaves,
    // empty inputs, and ragged tails.
    SplitMix64 rng(42);
    std::vector<std::vector<Fp>> inputs;
    for (const size_t len :
         {135u, 135u, 135u, 135u, 135u, 135u, 135u, 135u, 135u, 8u, 9u, 0u,
          3u, 135u, 135u, 135u, 135u, 1u, 4u, 5u}) {
        std::vector<Fp> in;
        for (size_t i = 0; i < len; ++i)
            in.push_back(randomFp(rng));
        inputs.push_back(std::move(in));
    }

    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);

    for (const SimdLevel level : levels) {
        withSimdLevel(level, [&] {
            std::vector<HashOut> batch(inputs.size());
            hashNoPadBatch(inputs.data(), inputs.size(), batch.data());
            for (size_t i = 0; i < inputs.size(); ++i)
                EXPECT_EQ(batch[i], hashNoPad(inputs[i]))
                    << simdLevelName(level) << " input " << i;

            hashOrNoopBatch(inputs.data(), inputs.size(), batch.data());
            for (size_t i = 0; i < inputs.size(); ++i)
                EXPECT_EQ(batch[i], hashOrNoop(inputs[i]))
                    << simdLevelName(level) << " input " << i;

            // Two-to-one over 17 pairs: two full batches + ragged tail.
            std::vector<HashOut> children(34);
            for (auto &c : children)
                for (auto &e : c.elems)
                    e = randomFp(rng);
            std::vector<HashOut> compressed(17);
            hashTwoToOneBatch(children.data(), 17, compressed.data());
            for (size_t i = 0; i < 17; ++i)
                EXPECT_EQ(compressed[i],
                          hashTwoToOne(children[2 * i],
                                       children[2 * i + 1]))
                    << simdLevelName(level) << " pair " << i;
        });
    }
}

TEST(SimdDispatch, ProofBytesIdenticalAcrossLevelsAndThreads)
{
    // The acceptance bar from the issue: end-to-end proofs must be
    // byte-identical across UNIZK_SIMD=scalar|avx2 at 1/2/8 threads.
    // When the host lacks AVX2, the thread sweep still pins scalar
    // batch determinism across grain boundaries.
    const FriConfig cfg = FriConfig::testing();
    const HardwareConfig hw = HardwareConfig::paperDefault();

    std::vector<SimdLevel> levels{SimdLevel::Scalar};
    if (simdLevelAvailable(SimdLevel::Avx2))
        levels.push_back(SimdLevel::Avx2);

    const unsigned prev_threads = globalThreadCount();
    std::vector<uint8_t> reference;
    for (const SimdLevel level : levels) {
        withSimdLevel(level, [&] {
            for (const unsigned threads : {1u, 2u, 8u}) {
                setGlobalThreadCount(threads);
                const AppRunResult res =
                    runPlonky2App(AppId::Factorial, 128, 2, cfg, hw);
                EXPECT_TRUE(res.verified)
                    << simdLevelName(level) << " " << threads
                    << " threads";
                ASSERT_FALSE(res.proofBlob.empty());
                if (reference.empty())
                    reference = res.proofBlob;
                else
                    EXPECT_EQ(res.proofBlob, reference)
                        << simdLevelName(level) << " " << threads
                        << " threads";
            }
        });
    }
    setGlobalThreadCount(prev_threads);
}

TEST(Challenger, DeterministicTranscript)
{
    Challenger a, b;
    a.observe(Fp(1));
    a.observe(Fp(2));
    b.observe(Fp(1));
    b.observe(Fp(2));
    EXPECT_EQ(a.challenge(), b.challenge());
    EXPECT_EQ(a.challengeExt(), b.challengeExt());
}

TEST(Challenger, ObservationsChangeChallenges)
{
    Challenger a, b;
    a.observe(Fp(1));
    b.observe(Fp(2));
    EXPECT_NE(a.challenge(), b.challenge());
}

TEST(Challenger, OrderMatters)
{
    Challenger a, b;
    a.observe(Fp(1));
    a.observe(Fp(2));
    b.observe(Fp(2));
    b.observe(Fp(1));
    EXPECT_NE(a.challenge(), b.challenge());
}

TEST(Challenger, LaterObservationsAffectLaterChallenges)
{
    Challenger a, b;
    a.observe(Fp(1));
    b.observe(Fp(1));
    EXPECT_EQ(a.challenge(), b.challenge());
    a.observe(Fp(5));
    b.observe(Fp(6));
    EXPECT_NE(a.challenge(), b.challenge());
}

TEST(Challenger, ManyChallengesWithoutObservation)
{
    // Squeezing more than the rate must re-permute, not repeat.
    Challenger c;
    c.observe(Fp(3));
    auto xs = c.challenges(20);
    for (size_t i = 0; i < xs.size(); ++i)
        for (size_t j = i + 1; j < xs.size(); ++j)
            EXPECT_NE(xs[i], xs[j]);
}

TEST(Challenger, CountsPermutations)
{
    Challenger c;
    c.observe(Fp(1));
    EXPECT_EQ(c.permutationCount(), 0u);
    c.challenge();
    EXPECT_GE(c.permutationCount(), 1u);
}

} // namespace
} // namespace unizk
