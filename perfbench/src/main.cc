// perfbench: runs one named workload for a fixed time and prints one
// JSON result line (see perfbench/README.md).
//
//   perfbench --workload q6_adaptive --seed 3 --seconds 20 --trace 0
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> kMetrics = {
      {"query.analyze_ms", "ms"},
      {"opt.plan_ms", "ms"},
      {"verify.plan_ms", "ms"},
      {"exec.create_ms", "ms"},
      {"exec.push_ns_per_event", "ns"},
      {"exec.finish_ms", "ms"},
      {"exec.pairs_per_event", "pairs/event"},
      {"exec.records_per_event", "records/event"},
      {"exec.match_yield", "matches/pair"},
      {"exec.tracked_peak_mb", "MB"},
      {"exec.untracked_mb", "MB"},
      {"exec.rss_kb_per_key", "KB"},
      {"exec.rss_mb_half_keys", "MB"},
      {"exec.rss_mb_all_keys", "MB"},
      {"opt.plan_switches", "count"},
      {"opt.regime_events_per_s.rate_skew", "events/s"},
      {"opt.regime_events_per_s.sel1", "events/s"},
      {"opt.regime_events_per_s.sel2", "events/s"},
      {"opt.regret", "ratio"},
      {"opt.regret.rate_skew", "ratio"},
      {"opt.regret.sel1", "ratio"},
      {"opt.regret.sel2", "ratio"},
      {"runtime.ingest_ns_per_event", "ns"},
      {"runtime.flush_ms", "ms"},
      {"runtime.events_per_worker_batch", "events/batch"},
      {"runtime.shard_skew", "ratio"},
      {"net.encode_ns_per_event", "ns"},
      {"net.decode_ns_per_event", "ns"},
      {"net.bytes_per_event", "B"},
      {"net.ingest_rtt_us", "us"},
      {"net.flush_ms", "ms"},
      {"net.server_cpu_ms_per_kevent", "ms"},
      {"net.client_cpu_ms_per_kevent", "ms"},
      {"workload.gen_lag_p99_ms", "ms"},
      {"workload.detect_samples", "count"},
      {"bench.trace_overhead", "ratio"},
  };
  return kMetrics;
}

void WriteTrace(const Args& args, const Spans& spans, Result* r) {
  // Relative to the working directory (the checkout root); ignored by git.
  ::mkdir(".bench_out", 0755);
  const std::string path = ".bench_out/trace-" + args.workload + "-" +
                           std::to_string(args.seed) + ".json";
  r->Check(spans.WriteChromeTrace(path), "cannot write " + path);
  std::fprintf(stderr, "perfbench: trace written to %s (%zu spans)\n",
               path.c_str(), spans.spans().size());
}

}  // namespace perfbench

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload q6_adaptive|keyed_churn|"
               "served_wire --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* v = argv[++i];
    if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::atof(v);
    } else if (arg == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  perfbench::Result result;
  if (args.workload == "q6_adaptive") {
    perfbench::RunQ6Adaptive(args, &result);
  } else if (args.workload == "keyed_churn") {
    perfbench::RunKeyedChurn(args, &result);
  } else if (args.workload == "served_wire") {
    perfbench::RunServedWire(args, &result);
  } else {
    return Usage();
  }
  for (const auto& [name, vu] : result.metrics) {
    result.Check(std::isfinite(vu.first), "metric " + name + " is not finite");
  }
  if (result.attempted == 0) result.Check(false, "no operation attempted");
  perfbench::PrintResult(result);
  return result.correct ? 0 : 1;
}
