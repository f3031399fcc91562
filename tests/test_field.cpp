/**
 * @file
 * Unit and property tests for Goldilocks base-field and quadratic
 * extension-field arithmetic.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "field/extension.h"
#include "field/goldilocks.h"
#include "field/goldilocks_seed.h"

namespace unizk {
namespace {

TEST(Goldilocks, Constants)
{
    EXPECT_EQ(Fp::modulus, 0xFFFFFFFF00000001ULL);
    // p - 1 = 2^32 * 3 * 5 * 17 * 257 * 65537
    const uint64_t odd = 0xFFFFFFFFULL;
    EXPECT_EQ((Fp::modulus - 1) >> 32, odd);
    EXPECT_EQ(odd, 3ULL * 5 * 17 * 257 * 65537);
}

TEST(Goldilocks, CanonicalConstruction)
{
    EXPECT_EQ(Fp(Fp::modulus).value(), 0u);
    EXPECT_EQ(Fp(Fp::modulus + 5).value(), 5u);
    EXPECT_EQ(Fp(~0ULL).value(), ~0ULL - Fp::modulus);
}

TEST(Goldilocks, AddSubEdgeCases)
{
    const Fp max(Fp::modulus - 1);
    EXPECT_EQ((max + Fp::one()).value(), 0u);
    EXPECT_EQ((max + max).value(), Fp::modulus - 2);
    EXPECT_EQ((Fp::zero() - Fp::one()).value(), Fp::modulus - 1);
    EXPECT_EQ((Fp::one() - max), Fp(2));
}

TEST(Goldilocks, MulKnownValues)
{
    // (p-1)^2 = p^2 - 2p + 1 === 1 (mod p)
    const Fp max(Fp::modulus - 1);
    EXPECT_EQ(max * max, Fp::one());
    // 2^32 * 2^32 = 2^64 === 2^32 - 1
    const Fp two32(uint64_t{1} << 32);
    EXPECT_EQ((two32 * two32).value(), (uint64_t{1} << 32) - 1);
    // 2^32 * 2^64: 2^96 === -1
    const Fp two64 = two32 * two32;
    EXPECT_EQ(two64 * two32, Fp(Fp::modulus - 1));
}

TEST(Goldilocks, FieldAxiomsRandomized)
{
    SplitMix64 rng(123);
    for (int i = 0; i < 200; ++i) {
        const Fp a = randomFp(rng);
        const Fp b = randomFp(rng);
        const Fp c = randomFp(rng);
        EXPECT_EQ(a + b, b + a);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a + b) + c, a + (b + c));
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a - a, Fp::zero());
        EXPECT_EQ(a + a.neg(), Fp::zero());
    }
}

TEST(Goldilocks, InverseRandomized)
{
    SplitMix64 rng(456);
    for (int i = 0; i < 100; ++i) {
        Fp a = randomFp(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), Fp::one());
    }
}

TEST(Goldilocks, PowMatchesRepeatedMul)
{
    SplitMix64 rng(789);
    const Fp a = randomFp(rng);
    Fp acc = Fp::one();
    for (uint64_t e = 0; e < 20; ++e) {
        EXPECT_EQ(a.pow(e), acc);
        acc *= a;
    }
}

TEST(Goldilocks, PrimitiveRootsHaveExactOrder)
{
    for (uint32_t k : {0u, 1u, 2u, 5u, 16u, 32u}) {
        const Fp w = Fp::primitiveRootOfUnity(k);
        EXPECT_EQ(w.pow(uint64_t{1} << k), Fp::one()) << "k=" << k;
        if (k > 0) {
            EXPECT_NE(w.pow(uint64_t{1} << (k - 1)), Fp::one())
                << "k=" << k;
        }
    }
}

TEST(Goldilocks, KnownTwoAdicGenerator)
{
    // 7^((p-1)/2^32) -- matches Plonky2's POWER_OF_TWO_GENERATOR.
    const Fp w = Fp::primitiveRootOfUnity(32);
    EXPECT_EQ(w.value(), 0x185629DCDA58878CULL);
}

TEST(Goldilocks, BatchInverseMatchesScalar)
{
    SplitMix64 rng(42);
    std::vector<Fp> xs;
    for (int i = 0; i < 50; ++i) {
        Fp x = randomFp(rng);
        if (x.isZero())
            x = Fp::one();
        xs.push_back(x);
    }
    auto inv = xs;
    batchInverse(inv);
    for (size_t i = 0; i < xs.size(); ++i)
        EXPECT_EQ(xs[i] * inv[i], Fp::one());
}

TEST(Goldilocks, BatchInverseEmptyOk)
{
    std::vector<Fp> xs;
    batchInverse(xs);
    EXPECT_TRUE(xs.empty());
}

// ---- The operators against the seed ops and a plain % reference.

using u128 = unsigned __int128;

/** x mod p for a 128-bit value, by integer division. */
uint64_t
modP(u128 x)
{
    return static_cast<uint64_t>(x % Fp::modulus);
}

/**
 * Number of (a, b) pairs on which +, - or * disagrees with the seed op
 * or with the % reference; reports the first such pair.
 */
struct OpChecker
{
    uint64_t mismatches = 0;

    void
    check(Fp a, Fp b)
    {
        const uint64_t x = a.value();
        const uint64_t y = b.value();
        const bool ok =
            (a + b).value() == modP(u128{x} + y) &&
            (a - b).value() == modP(u128{x} + Fp::modulus - y) &&
            (a * b).value() == modP(u128{x} * y) &&
            a + b == seed::add(a, b) && a - b == seed::sub(a, b) &&
            a * b == seed::mul(a, b);
        if (!ok && mismatches++ == 0)
            ADD_FAILURE() << "operators disagree on a=" << x
                          << " b=" << y;
    }
};

TEST(Goldilocks, OperatorsMatchSeedOpsAndModReferenceRandomized)
{
    SplitMix64 rng(2024);
    OpChecker checker;
    for (int i = 0; i < 1000000; ++i)
        checker.check(randomFp(rng), randomFp(rng));
    EXPECT_EQ(checker.mismatches, 0u);
}

TEST(Goldilocks, OperatorsMatchSeedOpsAndModReferenceOnBoundaries)
{
    // Every carry pattern: no wrap, 2^64 wrap, sum >= p, borrow, and
    // products whose 2^64 / 2^96 coefficients are zero or maximal.
    const uint64_t p = Fp::modulus;
    const Fp boundary[] = {Fp(0),
                           Fp(1),
                           Fp((uint64_t{1} << 32) - 1),
                           Fp(uint64_t{1} << 32),
                           Fp(p - (uint64_t{1} << 32) + 1),
                           Fp(p / 2),
                           Fp(p - 1)};
    OpChecker checker;
    for (const Fp a : boundary)
        for (const Fp b : boundary)
            checker.check(a, b);
    EXPECT_EQ(checker.mismatches, 0u);
}

TEST(Goldilocks, DotMatchesModReferenceAtMaximalWraps)
{
    // All-(p-1) inputs make every product (p-1)^2, close to 2^128, so
    // the lazily reduced accumulators wrap on nearly every term.
    const uint64_t m = Fp::modulus - 1;
    SplitMix64 rng(77);
    for (size_t n = 1; n <= 12; ++n) {
        const std::vector<Fp> maxed(n, Fp(m));
        uint64_t expect = 0;
        for (size_t i = 0; i < n; ++i)
            expect = modP(u128{expect} + modP(u128{m} * m));
        EXPECT_EQ(fpDot(maxed.data(), maxed.data(), n).value(), expect)
            << "n=" << n;

        std::vector<Fp> a(n), b(n);
        expect = 0;
        for (size_t i = 0; i < n; ++i) {
            a[i] = randomFp(rng);
            b[i] = randomFp(rng);
            const uint64_t x = a[i].value();
            const uint64_t y = b[i].value();
            expect = modP(u128{expect} + modP(u128{x} * y));
        }
        EXPECT_EQ(fpDot(a.data(), b.data(), n).value(), expect)
            << "random n=" << n;
    }
}

TEST(Extension, SevenIsNonResidue)
{
    // 7^((p-1)/2) must be -1 for X^2-7 to be irreducible.
    const Fp legendre = Fp(7).pow((Fp::modulus - 1) / 2);
    EXPECT_EQ(legendre, Fp(Fp::modulus - 1));
}

TEST(Extension, FieldAxiomsRandomized)
{
    SplitMix64 rng(321);
    for (int i = 0; i < 100; ++i) {
        const Fp2 a = randomFp2(rng);
        const Fp2 b = randomFp2(rng);
        const Fp2 c = randomFp2(rng);
        EXPECT_EQ(a * b, b * a);
        EXPECT_EQ((a * b) * c, a * (b * c));
        EXPECT_EQ(a * (b + c), a * b + a * c);
        EXPECT_EQ(a - a, Fp2::zero());
    }
}

TEST(Extension, InverseRandomized)
{
    SplitMix64 rng(654);
    for (int i = 0; i < 50; ++i) {
        const Fp2 a = randomFp2(rng);
        if (a.isZero())
            continue;
        EXPECT_EQ(a * a.inverse(), Fp2::one());
    }
}

TEST(Extension, SquareRootOfSevenIsX)
{
    // X * X = 7 in F_p[X]/(X^2-7).
    const Fp2 x(Fp::zero(), Fp::one());
    EXPECT_EQ(x * x, Fp2(Fp(7)));
}

TEST(Extension, EmbeddingIsHomomorphic)
{
    SplitMix64 rng(987);
    for (int i = 0; i < 50; ++i) {
        const Fp a = randomFp(rng);
        const Fp b = randomFp(rng);
        EXPECT_EQ(Fp2(a) * Fp2(b), Fp2(a * b));
        EXPECT_EQ(Fp2(a) + Fp2(b), Fp2(a + b));
    }
}

TEST(Extension, FrobeniusViaPow)
{
    // a^(p^2) == a for all a (multiplicative group order p^2 - 1).
    SplitMix64 rng(555);
    const Fp2 a = randomFp2(rng);
    // a^(p^2-1) == 1  =>  check via (a^p)^p * a^0 ... use pow by p twice.
    Fp2 ap = a.pow(Fp::modulus);
    Fp2 app = ap.pow(Fp::modulus);
    EXPECT_EQ(app, a);
}

} // namespace
} // namespace unizk
