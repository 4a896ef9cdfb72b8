/**
 * @file
 * Update-bus bandwidth analysis (section 2.3).
 *
 * Reproduces the paper's ~45 bytes/cycle estimate for a 4-wide core
 * (4 register updates + 1 store + 1 branch per cycle), sweeps the
 * retirement width, and reports the measured per-instruction store
 * mix of each benchmark to translate the peak figure into an average
 * demand.
 */

#include <cstdio>

#include "mem/trace.hpp"
#include "multicore/regcache.hpp"
#include "multicore/update_bus.hpp"
#include "sim/options.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

int
main(int argc, char **argv)
{
    // Mix measurement only.
    const BenchOptions opt = BenchOptions::parse(argc, argv, 4'000'000);

    UpdateBusModel paper_model;
    std::printf("Update-bus peak bandwidth (section 2.3 parameters):\n");
    std::printf("  4-wide retirement, 1 store + 1 branch/cycle, 6-bit "
                "reg ids, 64-bit values,\n  16-bit branch addresses "
                "=> %.1f bytes/cycle (paper: ~45)\n\n",
                paper_model.bytesPerCycle());

    AsciiTable sweep({"retire-width", "stores/cyc", "branches/cyc",
                      "bytes/cycle"});
    for (unsigned w : {1, 2, 4, 6, 8}) {
        RetireProfile p;
        p.retireWidth = w;
        p.storesPerCycle = (w + 3) / 4;
        p.branchesPerCycle = (w + 3) / 4;
        UpdateBusModel m(p);
        char wb[16], sb[16], bb[16], byb[16];
        std::snprintf(wb, sizeof(wb), "%u", w);
        std::snprintf(sb, sizeof(sb), "%u", p.storesPerCycle);
        std::snprintf(bb, sizeof(bb), "%u", p.branchesPerCycle);
        std::snprintf(byb, sizeof(byb), "%.1f", m.bytesPerCycle());
        sweep.addRow({wb, sb, bb, byb});
    }
    std::fputs(sweep.render("Peak requirement vs retirement width")
                   .c_str(),
               stdout);

    std::printf("\n");
    AsciiTable mix({"benchmark", "stores/instr", "bytes/instr(avg)"});
    for (const auto &name : allWorkloadNames()) {
        auto w = makeWorkload(name);
        RefCounter counter;
        w->run(counter, opt.instructions, opt.seed);
        const double store_frac =
            static_cast<double>(counter.stores()) /
            static_cast<double>(counter.instructions());
        // Branch fraction is not modeled by the kernels; use the
        // classic ~1-in-5 integer-code rule of thumb.
        const double bytes = paper_model.bytesPerInstruction(
            store_frac, 0.2, 0.7);
        char sf[16], bf[16];
        std::snprintf(sf, sizeof(sf), "%.3f", store_frac);
        std::snprintf(bf, sizeof(bf), "%.1f", bytes);
        mix.addRow({name, sf, bf});
    }
    std::fputs(mix.render("Average per-instruction broadcast demand "
                          "by benchmark mix").c_str(),
               stdout);

    // Section 6 extension: filter register updates with a small
    // register-update cache; broadcasts happen only on evictions,
    // with the cache spilled at each migration. Register usage is
    // skewed (stack pointer, loop counters, hot temporaries), so a
    // few entries absorb most of the traffic.
    std::printf("\n");
    AsciiTable rc({"cache-entries", "broadcasts/write",
                   "avg spill/migration", "reg-bandwidth saved"});
    for (unsigned entries : {0u, 2u, 4u, 8u, 16u, 32u}) {
        RegCacheConfig cfg;
        cfg.entries = entries;
        RegisterUpdateCache cache(cfg);
        Rng rng(42);
        const uint64_t kWrites = 2'000'000;
        const uint64_t kMigrationEvery = 4'500; // mcf's Table-2 rate
        for (uint64_t i = 0; i < kWrites; ++i) {
            const double u = rng.uniform();
            cache.write(static_cast<unsigned>(u * u * 63.999));
            if (i % kMigrationEvery == kMigrationEvery - 1)
                cache.migrate();
        }
        const auto &s = cache.stats();
        char ent[8], spill[16], saved[16];
        std::snprintf(ent, sizeof(ent), "%u", entries);
        std::snprintf(spill, sizeof(spill), "%.1f",
                      s.migrationSpills == 0
                          ? 0.0
                          : static_cast<double>(s.spilledEntries) /
                                static_cast<double>(s.migrationSpills));
        std::snprintf(saved, sizeof(saved), "%.0f%%",
                      (1.0 - s.broadcastRatio()) * 100.0);
        rc.addRow({ent, frequency(s.broadcasts, s.writes), spill,
                   saved});
    }
    std::fputs(rc.render("Register-update cache (section 6): "
                         "broadcast reduction vs per-migration spill "
                         "burst (Zipf-skewed writes, migration every "
                         "4500 instructions)").c_str(),
               stdout);
    return 0;
}
