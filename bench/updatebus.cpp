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

#include "mem/trace.hpp"
#include "multicore/regcache.hpp"
#include "multicore/update_bus.hpp"
#include "paper.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperUpdateBus(const BenchOptions &opt)
{
    UpdateBusModel paper_model;
    std::string out = formatString(
        "Update-bus peak bandwidth (section 2.3 parameters):\n"
        "  4-wide retirement, 1 store + 1 branch/cycle, 6-bit reg ids, "
        "64-bit values,\n  16-bit branch addresses => %.1f "
        "bytes/cycle (paper: ~45)\n\n",
        paper_model.bytesPerCycle());

    AsciiTable sweep({"retire-width", "stores/cyc", "branches/cyc",
                      "bytes/cycle"});
    for (unsigned w : {1, 2, 4, 6, 8}) {
        RetireProfile p;
        p.retireWidth = w;
        p.storesPerCycle = (w + 3) / 4;
        p.branchesPerCycle = (w + 3) / 4;
        sweep.addRow({formatString("%u", w),
                      formatString("%u", p.storesPerCycle),
                      formatString("%u", p.branchesPerCycle),
                      formatString("%.1f",
                                   UpdateBusModel(p).bytesPerCycle())});
    }
    out += sweep.render("Peak requirement vs retirement width");

    out += "\n";
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
        mix.addRow({name, formatString("%.3f", store_frac),
                    formatString("%.1f", bytes)});
    }
    out += mix.render("Average per-instruction broadcast demand by "
                      "benchmark mix");

    // Section 6 extension: filter register updates with a small
    // register-update cache; broadcasts happen only on evictions,
    // with the cache spilled at each migration. Register usage is
    // skewed (stack pointer, loop counters, hot temporaries), so a
    // few entries absorb most of the traffic.
    out += "\n";
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
        const double spill = s.migrationSpills == 0
            ? 0.0
            : static_cast<double>(s.spilledEntries) /
                  static_cast<double>(s.migrationSpills);
        rc.addRow({formatString("%u", entries),
                   frequency(s.broadcasts, s.writes),
                   formatString("%.1f", spill),
                   formatString("%.0f%%",
                                (1.0 - s.broadcastRatio()) * 100.0)});
    }
    out += rc.render("Register-update cache (section 6): broadcast "
                     "reduction vs per-migration spill burst "
                     "(Zipf-skewed writes, migration every 4500 "
                     "instructions)");
    return out;
}
