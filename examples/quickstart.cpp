/**
 * @file
 * Quickstart: split a working-set with the affinity algorithm.
 *
 * This is the smallest useful tour of the public API:
 *  1. make an O_e store (the "affinity cache");
 *  2. make a 2-way splitter (a depth-1 tree: one affinity engine
 *     plus its transition filter);
 *  3. feed it a reference stream;
 *  4. read back which subset each line belongs to.
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <vector>

#include "core/kway_splitter.hpp"
#include "core/oe_store.hpp"
#include "workloads/synthetic.hpp"

using namespace xmig;

int
main()
{
    // A working-set of 4000 lines referenced circularly: the classic
    // splittable behavior (think: a big array scanned repeatedly).
    constexpr uint64_t kLines = 4000;
    CircularStream stream(kLines);

    // Unlimited O_e storage; swap in SoaAffinityStore
    // (core/soa_oe_store.hpp) for the finite, hardware-sized variant.
    UnboundedOeStore store(/*affinity_bits=*/16);

    KWaySplitter::Config config;
    config.depth = 1;        // 2^1 subsets
    config.rootWindow = 100; // |R|
    config.filterBits = 20;
    KWaySplitter splitter(config, store);

    // Let the algorithm watch the program run for a while.
    std::printf("training on 1M references...\n");
    for (int t = 0; t < 1'000'000; ++t)
        splitter.onReference(stream.next());

    // Where did each line land?
    uint64_t subset0 = 0, subset1 = 0;
    std::vector<unsigned> assignment(kLines);
    for (uint64_t line = 0; line < kLines; ++line) {
        const SplitDecision d = splitter.onReference(line);
        assignment[line] = d.subset;
        (d.subset == 0 ? subset0 : subset1) += 1;
    }
    uint64_t boundaries = 0;
    for (uint64_t line = 1; line < kLines; ++line)
        boundaries += assignment[line] != assignment[line - 1] ? 1 : 0;

    std::printf("subset sizes: %llu vs %llu (balanced!)\n",
                (unsigned long long)subset0,
                (unsigned long long)subset1);
    std::printf("transition frequency over training: %.5f "
                "(bound: 1 per 2|R| = %.5f)\n",
                static_cast<double>(splitter.transitions()) / 1'000'000,
                1.0 / 200);
    std::printf("the split is contiguous: only %llu boundaries over "
                "4000 lines.\n", (unsigned long long)boundaries);
    std::printf("\nThat is the whole trick: bind each subset to one "
                "core's L2 and migrate\nexecution when the filter "
                "flips sign — the program now enjoys the union\nof "
                "both caches. See examples/pointer_chase.cpp for the "
                "full machine.\n");
    return 0;
}
