// The three benchmark workloads. Each fills `r` with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and the
// outcome of its correctness checks.
#ifndef ZSTREAM_PERFBENCH_WORKLOADS_H_
#define ZSTREAM_PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

void RunQ6Adaptive(const Args& args, Result* r);
void RunKeyedChurn(const Args& args, Result* r);
void RunServedWire(const Args& args, Result* r);

/// Every per-layer metric name with its unit, in BENCHMARK.json order.
/// A workload reports 0 for a layer that is not on its path.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();

/// Writes the run's spans as Chrome-trace JSON under .bench_out/.
void WriteTrace(const Args& args, const Spans& spans, Result* r);

}  // namespace perfbench

#endif  // ZSTREAM_PERFBENCH_WORKLOADS_H_
