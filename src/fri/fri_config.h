/**
 * @file
 * FRI parameters. The two presets correspond to the paper's protocol
 * configurations: Plonky2 uses a blowup factor of at least 8 and Starky
 * uses a blowup factor of 2 (Section 2.2). Query counts are derived so
 * that query soundness plus proof-of-work grinding reaches the target
 * conjectured security level (~100 bits in the paper's evaluation).
 */

#ifndef UNIZK_FRI_FRI_CONFIG_H
#define UNIZK_FRI_FRI_CONFIG_H

#include <cstdint>

#include "common/bits.h"
#include "field/goldilocks.h"
#include "ntt/ntt.h"

namespace unizk {

struct FriConfig
{
    /** log2 of the LDE blowup factor k. */
    uint32_t blowupBits = 3;

    /** Merkle cap height for all commitment trees. */
    uint32_t capHeight = 4;

    /** Proof-of-work grinding bits. */
    uint32_t powBits = 10;

    /** Number of query rounds. */
    uint32_t numQueries = 28;

    /** Maximum length (coefficient count) of the final polynomial. */
    uint32_t finalPolyLen = 32;

    /** Blowup factor k = 2^blowupBits. */
    uint32_t blowup() const { return uint32_t{1} << blowupBits; }

    /** LDE coset shift. */
    Fp shift() const { return defaultCosetShift(); }

    /** Conjectured security: one bit per query per blowup bit + PoW. */
    uint32_t
    conjecturedSecurityBits() const
    {
        return numQueries * blowupBits + powBits;
    }

    /**
     * Plonky2-style configuration: blowup 8. Query count chosen for
     * ~100-bit conjectured security as in the paper's workloads.
     * @p fast is the --fast rule shared by every CLI, harness and the
     * service: 8 PoW bits and 8 queries (reduced security, same shapes).
     */
    static FriConfig
    plonky2(bool fast = false)
    {
        FriConfig cfg;
        cfg.blowupBits = 3;
        cfg.capHeight = 4;
        cfg.powBits = fast ? 8 : 16;
        cfg.numQueries = fast ? 8 : 28;
        cfg.finalPolyLen = 32;
        return cfg;
    }

    /** Starky-style configuration: blowup 2, many more queries.
     *  @p fast: 8 PoW bits and 16 queries, as for plonky2(). */
    static FriConfig
    starky(bool fast = false)
    {
        FriConfig cfg;
        cfg.blowupBits = 1;
        cfg.capHeight = 4;
        cfg.powBits = fast ? 8 : 16;
        cfg.numQueries = fast ? 16 : 84;
        cfg.finalPolyLen = 32;
        return cfg;
    }

    /**
     * Testing configuration: small grinding cost, fewer queries, so
     * unit tests stay fast. Not secure; shapes identical.
     */
    static FriConfig
    testing()
    {
        FriConfig cfg;
        cfg.blowupBits = 3;
        cfg.capHeight = 1;
        cfg.powBits = 4;
        cfg.numQueries = 6;
        cfg.finalPolyLen = 8;
        return cfg;
    }
};

} // namespace unizk

#endif // UNIZK_FRI_FRI_CONFIG_H
