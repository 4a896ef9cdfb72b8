#include "multicore/timing.hpp"

namespace xmig {

uint64_t
MigrationProtocolModel::simulateMigration(Rng &rng) const
{
    // When the interrupt arrives, X1 marks its youngest fetched
    // instruction as the transition instruction T and stops fetching;
    // X2 receives the transition PC and starts fetching, its issue
    // stage blocked until T retires.
    const unsigned inflight = inflightInstructions();
    const unsigned width = PipelineParams::kRetireWidth;

    // X1 drains `inflight` instructions at `width` per cycle. If one
    // of them mispredicts, everything younger is flushed (shortening
    // the drain), the branch becomes the new transition point, and
    // X2 is flushed and re-steered — losing the fetch progress it
    // had made and re-paying the transition-PC transfer.
    unsigned to_drain = inflight;
    uint64_t drain_cycles = 0;
    uint64_t resteer_cycles = 0;
    // Walk the drain in retirement order.
    unsigned drained = 0;
    while (drained < to_drain) {
        ++drain_cycles;
        for (unsigned slot = 0; slot < width && drained < to_drain;
             ++slot) {
            ++drained;
            if (rng.chance(params_.mispredictPerInstr)) {
                // This branch mispredicted: instructions after it in
                // X1 are flushed (drain ends at the branch), X2
                // restarts from the new transition PC.
                to_drain = drained;
                resteer_cycles += PipelineParams::kUpdateBusCycles;
                break;
            }
        }
    }

    // The drain overlaps with X2's fetch, so it does not add to the
    // paper's penalty definition (retirement of T to retirement of
    // its successor) except through re-steers. After T retires: the
    // broadcast of T unlocks X2's issue stage, and T's successor
    // then flows from issue to retirement.
    (void)drain_cycles;
    return PipelineParams::kUpdateBusCycles + resteer_cycles +
           params_.issueToRetireStages;
}

double
MigrationProtocolModel::expectedPenaltyCycles(uint64_t samples,
                                              uint64_t seed) const
{
    Rng rng(seed);
    uint64_t total = 0;
    for (uint64_t i = 0; i < samples; ++i)
        total += simulateMigration(rng);
    return static_cast<double>(total) / static_cast<double>(samples);
}

} // namespace xmig
