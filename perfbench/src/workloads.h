#ifndef POLYBENCH_WORKLOADS_H_
#define POLYBENCH_WORKLOADS_H_

#include <string>

#include "bench_util.h"

namespace polybench {

/// Each workload sets itself up kSetups times, runs its closed loop,
/// checks every result, prints its metric lines and the final JSON line,
/// and (traced runs) writes its span file with `context` as the header
/// fields. Returns the process exit code.
int RunOltp(const RunConfig& cfg, const std::string& context);
int RunOlap(const RunConfig& cfg, const std::string& context);
int RunSoeSql(const RunConfig& cfg, const std::string& context);

/// Writes the span file of a traced run: a context line, the spans, and a
/// counters line holding `counters` plus the loop's per-phase totals.
bool FinishTrace(const RunConfig& cfg, const std::string& context,
                 std::string counters, const LoopTotals& loop, int clients);

}  // namespace polybench

#endif  // POLYBENCH_WORKLOADS_H_
