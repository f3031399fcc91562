/**
 * @file
 * The seed's branchy Goldilocks add/sub/mul, kept as a reference only.
 *
 * Production code has one field op set: the Fp operators, whose bodies
 * apply the carry/overflow adjustments by masking. These are the bodies
 * the operators had before, with a data-dependent branch per
 * adjustment. They return the same canonical values, and have two
 * users:
 *
 *  - field_checks.h pins the operators against them on every carry
 *    pattern at compile time (tests/test_field.cpp does the same at
 *    run time, over random and boundary pairs);
 *  - scalarNttNR / scalarLowDegreeExtension (ntt.cpp), the seed
 *    transform cores that the NTT/LDE speedup gates divide by. Keeping
 *    the seed arithmetic there keeps those denominators what they
 *    measure: the seed's transform, not the seed's loop on today's
 *    field.
 *
 * Nothing else may include this header.
 */

#ifndef UNIZK_FIELD_GOLDILOCKS_SEED_H
#define UNIZK_FIELD_GOLDILOCKS_SEED_H

#include <cstdint>

#include "field/goldilocks.h"

namespace unizk {
namespace seed {

constexpr Fp
add(Fp a, Fp b)
{
    uint64_t s = a.value() + b.value();
    // On wraparound, 2^64 === 2^32 - 1 (mod p).
    if (s < a.value())
        s += 0xFFFFFFFFULL;
    if (s >= Fp::modulus)
        s -= Fp::modulus;
    return Fp(s);
}

constexpr Fp
sub(Fp a, Fp b)
{
    uint64_t d = a.value() - b.value();
    if (a.value() < b.value())
        d += Fp::modulus; // wraps: net effect is a - b + p
    return Fp(d);
}

/** Reduce a 128-bit value modulo p. */
constexpr uint64_t
reduce128(unsigned __int128 x)
{
    const uint64_t lo = static_cast<uint64_t>(x);
    const uint64_t hi = static_cast<uint64_t>(x >> 64);
    const uint64_t mid = hi & 0xFFFFFFFFULL; // coefficient of 2^64
    const uint64_t top = hi >> 32;           // coefficient of 2^96

    // x = lo + mid*2^64 + top*2^96 === lo + mid*(2^32-1) - top (mod p)
    uint64_t t0 = lo - top;
    if (lo < top)
        t0 -= 0xFFFFFFFFULL; // borrow wrapped by 2^64 === 2^32-1
    const uint64_t t1 = mid * 0xFFFFFFFFULL;
    uint64_t res = t0 + t1;
    if (res < t1)
        res += 0xFFFFFFFFULL;
    if (res >= Fp::modulus)
        res -= Fp::modulus;
    return res;
}

constexpr Fp
mul(Fp a, Fp b)
{
    return Fp(reduce128(static_cast<unsigned __int128>(a.value()) *
                        b.value()));
}

} // namespace seed
} // namespace unizk

#endif // UNIZK_FIELD_GOLDILOCKS_SEED_H
