// Shared plumbing for the benchmark workloads: clocks, the span
// recorder that times calls into each layer from outside, statistics,
// resident-memory probes and the result line.
#ifndef ZSTREAM_PERFBENCH_COMMON_H_
#define ZSTREAM_PERFBENCH_COMMON_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// NowNs() captured during static initialisation: the cold set-up time
/// (`setup_s`) is measured from here.
int64_t ProcessStartNs();

/// Thread CPU time of the calling thread, nanoseconds.
int64_t ThreadCpuNs();

/// Command-line arguments shared by every workload.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// \brief In-memory span log. Spans are only kept while enabled, so an
/// untraced pass pays one branch per call site.
class Spans {
 public:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index or -1
  /// when disabled.
  int Begin(const char* name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Per span name: summed duration and summed self time (duration
  /// minus the part of it that child spans cover), nanoseconds.
  struct Totals {
    int64_t self_ns = 0;
    std::vector<int64_t> durations;
  };
  std::map<std::string, Totals> Summarize() const;

  /// Writes every span as a Chrome-trace ("X" complete events) JSON.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; no-op when the recorder is disabled.
class Scoped {
 public:
  Scoped(Spans* spans, const char* name)
      : spans_(spans), index_(spans->Begin(name)) {}
  ~Scoped() { spans_->End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Spans* spans_;
  int index_;
};

double Median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double Percentile(std::vector<double> v, double q);

/// \brief Detection latencies of a run's open-loop passes. The passes
/// are spread evenly over the measured time; a percentile is taken per
/// pass and reported as the median over the passes, so a stall of the
/// host that hits one pass moves the figure no more than one pass can.
class LatencyLog {
 public:
  static constexpr int kPasses = 5;

  /// True when the next open-loop pass is due: pass i starts once
  /// i / kPasses of the measured span [start_ns, start_ns + span_ns) is
  /// gone.
  bool Due(int64_t start_ns, int64_t span_ns) const;
  /// Starts the samples of the next pass.
  void NewPass() { passes_.emplace_back(); }
  void Add(double ms);

  size_t size() const { return count_; }
  double min() const { return min_; }
  /// Median over the passes of each pass's q-percentile.
  double Percentile(double q) const;

 private:
  std::vector<std::vector<double>> passes_;
  size_t count_ = 0;
  double min_ = 0.0;
};

/// Resident set size of this process, bytes; -1 on error.
int64_t RssBytes();
/// Resident high-water mark (VmHWM) of `pid`, bytes; -1 on error.
int64_t PeakRssBytes(pid_t pid);
/// Returns freed heap pages to the OS so the next RSS reading starts
/// from what is live.
void TrimHeap();

/// \brief One workload's outcome: the fields of the result line.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// name -> (value, unit)
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable reasons for `correct == false`.
  std::vector<std::string> errors;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Records a correctness check; a failed one clears `correct`.
  void Check(bool ok, const std::string& what);
};

/// Prints the result as the single-line JSON object the benchmark ends
/// with.
void PrintResult(const Result& result);

/// Busy-waits until NowNs() >= deadline_ns.
void SpinUntil(int64_t deadline_ns);

}  // namespace perfbench

#endif  // ZSTREAM_PERFBENCH_COMMON_H_
