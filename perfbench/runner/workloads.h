#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include "runner/report.h"

namespace perfbench {

/// Each workload sets up its observatory, measures for
/// `options.seconds`, checks the answers it got, and fills `report`.
void RunNoaStream(const Options& options, Report* report);
void RunWireReads(const Options& options, Report* report);
void RunWireChurn(const Options& options, Report* report);

/// Digests of each workload's generated inputs for `options.seed`
/// (files, linked data and statements), for the determinism test.
uint64_t NoaStreamInputDigest(const Options& options);
uint64_t WireReadsInputDigest(const Options& options);
uint64_t WireChurnInputDigest(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
