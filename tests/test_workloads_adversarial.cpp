/**
 * @file
 * xmig-storm adversarial kernels: registration outside the Table-1
 * universe, per-seed determinism for every registered workload, and
 * golden evidence that the storm kernels actually degrade the
 * affinity algorithm relative to their SPEC-style counterparts.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "multicore/feed.hpp"
#include "multicore/machine.hpp"
#include "workloads/registry.hpp"

namespace xmig {
namespace {

/** Drive a default machine with a workload and return its stats. */
MachineStats
runOn(const std::string &name, uint64_t instructions, uint64_t seed)
{
    MachineConfig config;
    MigrationMachine machine(config);
    ChunkFeed({&machine}).run(*makeWorkload(name), instructions, seed);
    return machine.stats();
}

/** Migrations per 1000 refs — the paper's migration-rate axis. */
double
migPerKiloRef(const MachineStats &s)
{
    return s.refs ? 1000.0 * static_cast<double>(s.migrations) /
                        static_cast<double>(s.refs)
                  : 0.0;
}

TEST(StormRegistry, RegistersOutsideTableOne)
{
    const auto &storm = adversarialWorkloadNames();
    ASSERT_EQ(storm.size(), 3u);
    EXPECT_EQ(storm[0], "storm.unsplit");
    EXPECT_EQ(storm[1], "storm.phase");
    EXPECT_EQ(storm[2], "storm.thrash");

    // The paper-facing universe stays at 18 benchmarks.
    EXPECT_EQ(allWorkloadNames().size(), 18u);
    for (const std::string &name : storm) {
        for (const std::string &table1 : allWorkloadNames())
            EXPECT_NE(name, table1);
        auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr);
        EXPECT_EQ(w->info().name, name);
        EXPECT_EQ(w->info().suite, "xmig-storm");
        EXPECT_FALSE(w->info().description.empty());
    }
}

TEST(StormWorkloads, EveryRegisteredWorkloadIsSeedDeterministic)
{
    std::vector<std::string> names = allWorkloadNames();
    const auto &storm = adversarialWorkloadNames();
    names.insert(names.end(), storm.begin(), storm.end());
    for (const std::string &name : names) {
        RefRecorder r1, r2;
        makeWorkload(name)->run(r1, 20'000, 7);
        makeWorkload(name)->run(r2, 20'000, 7);
        ASSERT_FALSE(r1.refs().empty()) << name;
        EXPECT_EQ(r1.refs(), r2.refs()) << name;
    }

    // The storm kernels are RNG-driven throughout, so a different
    // seed must actually change the stream. (Some Table-1 kernels
    // have seed-independent warm-up phases — bh's tree build — so
    // this stronger property is asserted for the storm family only.)
    for (const std::string &name : storm) {
        RefRecorder r1, r3;
        makeWorkload(name)->run(r1, 20'000, 7);
        makeWorkload(name)->run(r3, 20'000, 8);
        EXPECT_NE(r1.refs(), r3.refs()) << name;
    }
}

/**
 * Golden degradation, storm.unsplit vs 175.vpr (the Table-1 kernel
 * the paper singles out for poor splittability): the unsplittable
 * straddling set must cost measurably more migrations *and* more L2
 * misses than vpr under identical machine and budget. Margins sit
 * well inside the measured gap (2.5 vs 1.4 mig/kiloref, 46k vs 19k
 * misses at this budget) so the test tracks the mechanism, not the
 * third decimal.
 */
TEST(StormWorkloads, UnsplitDegradesAffinityVsVpr)
{
    const uint64_t kInstr = 300'000;
    const MachineStats storm = runOn("storm.unsplit", kInstr, 42);
    const MachineStats spec = runOn("175.vpr", kInstr, 42);

    EXPECT_GT(storm.migrations, 0u);
    EXPECT_GE(migPerKiloRef(storm), 1.3 * migPerKiloRef(spec))
        << "storm " << migPerKiloRef(storm) << " vs vpr "
        << migPerKiloRef(spec);
    EXPECT_GE(storm.l2Misses, spec.l2Misses * 3 / 2)
        << "storm " << storm.l2Misses << " vs vpr " << spec.l2Misses;
}

/**
 * Golden degradation, storm.phase vs 171.swim: swim's stable
 * streaming phases are the transition filter's best case (measured
 * migration rate ~0), while the hysteresis-resonant phase storm
 * sustains better than one migration per 2000 refs.
 */
TEST(StormWorkloads, PhaseStormSustainsMigrationStorm)
{
    const uint64_t kInstr = 300'000;
    const MachineStats storm = runOn("storm.phase", kInstr, 42);
    const MachineStats calm = runOn("171.swim", kInstr, 42);

    EXPECT_GT(migPerKiloRef(storm), 0.5)
        << "storm.phase " << migPerKiloRef(storm);
    EXPECT_LT(migPerKiloRef(calm), 0.05)
        << "171.swim " << migPerKiloRef(calm);
}

TEST(StormWorkloads, ThrashKeepsFilterBusyButMigratesLess)
{
    // storm.thrash dithers at the threshold: it migrates (unlike
    // swim) but far below the committed storm of storm.phase.
    const uint64_t kInstr = 300'000;
    const MachineStats thrash = runOn("storm.thrash", kInstr, 42);
    const MachineStats storm = runOn("storm.phase", kInstr, 42);
    EXPECT_GT(thrash.migrations, 0u);
    EXPECT_LT(migPerKiloRef(thrash), migPerKiloRef(storm));
}

} // namespace
} // namespace xmig
