/**
 * @file
 * Finite shared-L3 study (machine-model extension).
 *
 * The paper counts L2 misses and treats the L3 as a uniform
 * next-level penalty. With the finite-L3 mode of the machine model
 * this experiment asks two follow-up questions:
 *  1. how much off-chip (memory) traffic does each benchmark
 *     generate as the shared L3 shrinks, and
 *  2. does execution migration change the L3/memory picture? (It
 *     should: migration turns L3 hits into local L2 hits, cutting
 *     on-chip L3 traffic without touching off-chip traffic.)
 */

#include "multicore/machine.hpp"
#include "paper.hpp"
#include "util/stats.hpp"
#include "workloads/registry.hpp"

using namespace xmig;

std::string
xmig::paperL3(const BenchOptions &opt)
{
    const std::vector<std::string> benches =
        benchmarksOr(opt, {"179.art", "181.mcf", "171.swim"});

    AsciiTable table({"benchmark", "L3", "machine", "instr/L3access",
                      "instr/L3miss", "instr/mem-writeback"});
    for (const auto &name : benches) {
        for (uint64_t l3_mb : {4u, 8u, 16u}) {
            MachineConfig base_cfg;
            base_cfg.numCores = 1;
            base_cfg.l3Bytes = l3_mb * 1024 * 1024;
            MachineConfig mig_cfg;
            mig_cfg.l3Bytes = base_cfg.l3Bytes;

            MigrationMachine base(base_cfg), mig(mig_cfg);
            TeeSink tee(base, mig);
            auto workload = makeWorkload(name);
            workload->run(tee, opt.instructions, opt.seed);

            auto row = [&](const char *label, const MachineStats &s) {
                table.addRow({workload->info().name,
                              sizeLabel(base_cfg.l3Bytes), label,
                              perEvent(s.instructions, s.l3Accesses),
                              perEvent(s.instructions, s.l3Misses),
                              perEvent(s.instructions,
                                       s.memoryWritebacks)});
            };
            row("1-core", base.stats());
            row("4-core mig", mig.stats());
        }
    }
    return table.render("Finite shared L3: on-chip L3 traffic vs "
                        "off-chip memory traffic (higher instr/event "
                        "is better)");
}
