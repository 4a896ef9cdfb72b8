/**
 * @file
 * Benchmark registry: name -> kernel factory, in Table 1 order.
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workloads/workload.hpp"

namespace xmig {

/** Names of all 18 benchmarks, in the paper's Table 1 order. */
const std::vector<std::string> &allWorkloadNames();

/** Names of the SPEC2000-like benchmarks only. */
const std::vector<std::string> &specWorkloadNames();

/** Names of the Olden-like benchmarks only. */
const std::vector<std::string> &oldenWorkloadNames();

/**
 * Names of the xmig-storm adversarial kernels (suite "xmig-storm").
 * Deliberately *not* part of allWorkloadNames(): Table-1 sweeps keep
 * the paper's 18-benchmark universe; the fuzzer and targeted tests
 * opt in explicitly.
 */
const std::vector<std::string> &adversarialWorkloadNames();

/**
 * True if makeWorkload() accepts `name`: a Table-1 benchmark, with
 * or without its SPEC number ("181.mcf" or "mcf"), or an xmig-storm
 * kernel by its full name.
 */
bool isWorkloadName(const std::string &name);

/**
 * Instantiate a kernel by name, as isWorkloadName() resolves it.
 * Fatal error on unknown names.
 */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

} // namespace xmig
