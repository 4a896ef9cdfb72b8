/**
 * @file
 * Table 1 experiment: benchmark inventory.
 *
 * Runs each kernel through the section-4.1 L1 configuration (16-KB
 * fully-associative LRU IL1/DL1, 64-B lines, loads and stores not
 * distinguished) and reports dynamic instructions and IL1/DL1 miss
 * counts — the paper's Table 1 columns.
 */

#pragma once

#include <cstdint>
#include <string>

namespace xmig {

/** One Table 1 row. */
struct Table1Row
{
    std::string name;
    std::string suite;
    uint64_t instructions = 0;
    uint64_t il1Misses = 0;
    uint64_t dl1Misses = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
};

/** Parameters for the inventory run. */
struct Table1Params
{
    uint64_t instructionsPerBenchmark = 20'000'000;
    uint64_t seed = 42;
};

/** Run the inventory for one benchmark. */
Table1Row runTable1(const std::string &benchmark,
                    const Table1Params &params);

} // namespace xmig
