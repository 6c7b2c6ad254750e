#include "common.h"

#include <malloc.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
const int64_t kProcessStartNs = NowNs();
}  // namespace

int64_t ProcessStartNs() { return kProcessStartNs; }

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

int Spans::Begin(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_ns = NowNs();
  spans_.push_back(std::move(s));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void Spans::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::map<std::string, Spans::Totals> Spans::Summarize() const {
  // Children of one parent never overlap (spans come from one thread
  // and nest), so the covered part is the sum of child durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = out[s.name];
    const int64_t d = s.end_ns - s.start_ns;
    t.self_ns += d - child_ns[i];
    t.durations.push_back(d);
  }
  return out;
}

bool Spans::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const int64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (i > 0) out << ',';
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  s.name.c_str(), (s.start_ns - base) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, i, s.parent);
    out << buf;
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(out);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

bool LatencyLog::Due(int64_t start_ns, int64_t span_ns) const {
  const int64_t done = static_cast<int64_t>(passes_.size());
  return done < kPasses && NowNs() >= start_ns + done * span_ns / kPasses;
}

void LatencyLog::Add(double ms) {
  if (passes_.empty()) NewPass();
  passes_.back().push_back(ms);
  min_ = count_ == 0 ? ms : std::min(min_, ms);
  ++count_;
}

double LatencyLog::Percentile(double q) const {
  std::vector<double> per_pass;
  for (const std::vector<double>& p : passes_) {
    if (!p.empty()) per_pass.push_back(perfbench::Percentile(p, q));
  }
  return Median(per_pass);
}

namespace {

int64_t StatusField(pid_t pid, const char* field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream fields(line.substr(key.size()));
      int64_t kb = -1;
      fields >> kb;
      return kb < 0 ? -1 : kb * 1024;
    }
  }
  return -1;
}

}  // namespace

int64_t RssBytes() {
  // statm is cheaper than status; it is read after every ingest chunk
  // of a memory pass.
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return -1;
  long size = 0, resident = 0;
  const int n = std::fscanf(f, "%ld %ld", &size, &resident);
  std::fclose(f);
  if (n != 2) return -1;
  return static_cast<int64_t>(resident) * sysconf(_SC_PAGESIZE);
}

int64_t PeakRssBytes(pid_t pid) { return StatusField(pid, "VmHWM"); }

void TrimHeap() { malloc_trim(0); }

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  errors.push_back(what);
}

void PrintResult(const Result& result) {
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : result.metrics) {
    if (!first) line += ", ";
    first = false;
    char buf[64];
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    line += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            vu.second + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void SpinUntil(int64_t deadline_ns) {
  while (NowNs() < deadline_ns) {
  }
}

}  // namespace perfbench
