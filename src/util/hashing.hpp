/**
 * @file
 * Hash functions used by the migration controller and skewed caches.
 *
 * Two families live here:
 *  - the working-set sampling hash H(e) = e mod 31 of section 3.5,
 *    computed the way the paper suggests hardware would (summing 5-bit
 *    blocks of the address, since 2^5 = 1 mod 31);
 *  - the inter-bank skewing functions of a skewed-associative cache
 *    (Bodin & Seznec), built from XOR-folding and bit rotation.
 */

#pragma once

#include <cstdint>

namespace xmig {

/**
 * Working-set sampling hash H(e) = e mod 31 (section 3.5).
 *
 * Hardware splits e into 5-bit blocks e_i with e = sum_i 2^(5i) e_i;
 * since 2^5 = 32 = 1 (mod 31), H(e) = sum_i e_i mod 31 — a
 * carry-save adder tree plus a small ROM. That digit-sum equals
 * e mod 31 exactly (same theorem as casting out nines), so in
 * software a single modulo computes the identical value.
 */
inline uint32_t
hashMod31(uint64_t e)
{
    return static_cast<uint32_t>(e % 31);
}

/**
 * Sampling predicate of section 3.5: keep line e iff H(e) < cutoff.
 *
 * cutoff = 8 gives the paper's 25% sampling (8 of 31 residues, 25.8%).
 * cutoff >= 31 disables sampling (every line tracked).
 */
inline bool
sampledLine(uint64_t e, uint32_t cutoff)
{
    return hashMod31(e) < cutoff;
}

/** SplitMix64 finalizer; a good 64-bit bit mixer. */
inline uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/**
 * Skewing function for bank `bank` of a skewed-associative cache.
 *
 * Maps a line address to a set index in [0, numSets). Different banks
 * use different mixes so that two lines conflicting in one bank are
 * unlikely to conflict in another — the defining property of skewed
 * associativity. numSets must be a power of two.
 */
inline uint64_t
skewHash(uint64_t line_addr, unsigned bank, uint64_t num_sets)
{
    // Bank 0 indexes conventionally; each other bank applies an
    // independent full-avalanche permutation of the line address, so
    // two lines conflicting in one bank are (near-)independently
    // placed in every other bank — the defining skewed-associativity
    // property. Sequential line streams disperse uniformly in every
    // bank.
    const uint64_t mask = num_sets - 1;
    if (bank == 0)
        return line_addr & mask;
    return mix64(line_addr + 0xd6e8feb86659fd93ULL * bank) & mask;
}

} // namespace xmig
