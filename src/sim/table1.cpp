#include "sim/table1.hpp"

#include "cache/l1_filter.hpp"
#include "multicore/feed.hpp"
#include "workloads/registry.hpp"

namespace xmig {

Table1Row
runTable1(const std::string &benchmark, const Table1Params &params)
{
    auto workload = makeWorkload(benchmark);

    // The default 16-KB IL1 and DL1 with 64-B lines (section 4.1).
    L1FilterConfig l1c;
    l1c.fullyAssociative = true;
    l1c.unifiedReadWrite = true;

    NullLineSink null_sink;
    L1Filter filter(l1c, null_sink);
    ChunkFeed feed({}, {&filter});
    feed.run(*workload, params.instructionsPerBenchmark, params.seed);

    Table1Row row;
    row.name = workload->info().name;
    row.suite = workload->info().suite;
    row.instructions = feed.instructions();
    row.loads = feed.loads();
    row.stores = feed.stores();
    row.il1Misses = filter.il1Stats().misses;
    row.dl1Misses = filter.dl1Stats().misses;
    return row;
}

} // namespace xmig
