#include "sim/observe.hpp"

#include <algorithm>

#include "multicore/machine.hpp"
#include "obs/journal.hpp"
#include "util/artifact.hpp"
#include "util/contracts.hpp"

namespace xmig {

RunObservatory::RunObservatory(const BenchOptions &options)
    : options_(options),
      sampler_(obs::SamplerConfig{options.sampleEvery})
{
    if (!options_.journalOut.empty() || !options_.traceOut.empty()) {
        journal_ = std::make_unique<obs::Journal>();
        // Arm incident dumps at the JSONL path: a panic or watchdog
        // fire flushes the causal history even if finish() never runs.
        if (!options_.journalOut.empty())
            journal_->setDumpPath(options_.journalOut);
    }
}

RunObservatory::~RunObservatory() = default;

void
RunObservatory::attachMachine(MigrationMachine &machine,
                              const std::string &prefix, bool sampled)
{
    attached_.push_back({&machine, prefix});

    if (!sampled)
        return;
    // The journal rides on the sampled machine only: one causal
    // stream per run, single-thread confined with its machine, so a
    // parallel sweep's other cells never touch it.
    if (journal_)
        machine.attachJournal(journal_.get());
    if (options_.samplesOut.empty())
        return;
    XMIG_ASSERT(!sampling_,
                "only one machine per observatory can be sampled");
    sampling_ = true;

    const MigrationController *controller = machine.controller();
    if (controller) {
        sampler_.addColumn("ar", [controller] {
            return static_cast<double>(
                controller->rootEngine().windowAffinity());
        });
        sampler_.addColumn("delta", [controller] {
            return static_cast<double>(
                controller->rootEngine().delta());
        });
        sampler_.addColumn("filter", [controller] {
            return static_cast<double>(
                controller->rootFilter().value());
        });
        sampler_.addColumn("active_core", [&machine] {
            return static_cast<double>(machine.activeCore());
        });
        const MigrationStats &ms = controller->stats();
        sampler_.addDeltaColumn("requests", &ms.requests);
        sampler_.addDeltaColumn("filter_updates", &ms.filterUpdates);
        sampler_.addDeltaColumn("transitions", &ms.transitions);
        sampler_.addDeltaColumn("migrations", &ms.migrations);
        sampler_.addDeltaColumn("store_evictions",
                                &controller->store().stats().evictions);
    }

    const MachineStats &st = machine.stats();
    sampler_.addDeltaColumn("l1_misses", &st.l1Misses);
    sampler_.addDeltaColumn("l2_misses", &st.l2Misses);

    const unsigned cores = machine.config().numCores;
    for (unsigned c = 0; c < cores; ++c) {
        sampler_.addColumn("core" + std::to_string(c) +
                               "_l2_occupancy",
                           [&machine, c] {
                               return static_cast<double>(
                                   machine.l2(c).frames().occupancy());
                           });
    }
    if (cores > 1) {
        // Live imbalance of the working-set split: how unevenly the
        // resident lines spread over the per-core L2s right now.
        sampler_.addColumn("l2_occupancy_spread", [&machine, cores] {
            uint64_t lo = machine.l2(0).frames().occupancy();
            uint64_t hi = lo;
            for (unsigned c = 1; c < cores; ++c) {
                const uint64_t occ = machine.l2(c).frames().occupancy();
                lo = std::min(lo, occ);
                hi = std::max(hi, occ);
            }
            return static_cast<double>(hi - lo);
        });
    }
}

void
RunObservatory::finish()
{
    if (finished_)
        return;
    finished_ = true;

    for (const Attached &a : attached_)
        a.machine->registerMetrics(registry_, a.prefix);

    // An output the user asked for and did not get is fatal.
    if (!options_.metricsOut.empty())
        writeArtifact(options_.metricsOut, registry_.renderJsonl(),
                      "--metrics-out");
    if (sampling_ && !options_.samplesOut.empty())
        writeArtifact(options_.samplesOut, sampler_.renderCsv(),
                      "--samples-out");
    if (!options_.journalOut.empty())
        writeArtifact(options_.journalOut, journal_->renderJsonl(),
                      "--journal-out");
    if (!options_.traceOut.empty())
        writeArtifact(options_.traceOut, journal_->renderChromeTrace(),
                      "--trace-out");
}

} // namespace xmig
