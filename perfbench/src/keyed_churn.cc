// keyed_churn: a Query-2-shaped rising triple partitioned on a
// high-cardinality key. Every key is active briefly, then idle for good;
// arrival is disordered within the runtime's reorder slack. Input goes
// through an in-process StreamRuntime with 2 shards and one producer.
//
// Most of the work is routing, shard queues, the reorder stage and
// per-key partition creation (runtime/, exec/partitioned_engine). The
// resident memory it reports grows with every key ever seen, because
// PartitionedEngine never retires a partition.
#include <algorithm>
#include <memory>
#include <random>

#include "api/zstream.h"
#include "checks.h"
#include "query/analyzer.h"
#include "runtime/match_sink.h"
#include "runtime/stream_runtime.h"
#include "verify/plan_verifier.h"
#include "workloads.h"

namespace perfbench {

using zstream::EventPtr;
namespace rt = zstream::runtime;

namespace {

constexpr char kQuery[] =
    "PATTERN A;B;C WHERE A.id = B.id AND B.id = C.id "
    "AND A.price < B.price AND B.price < C.price WITHIN 64";
constexpr int64_t kWindow = 64;
constexpr int kShards = 2;
constexpr zstream::Duration kSlack = 32;

// Input make-up: kKeys sessions of 3-5 events each, one new key about
// every 4 events; a session spans up to kSessionSpan timestamp units,
// so some of its triples fall outside the window.
constexpr int kKeys = 8192;
constexpr double kSessionSpan = 80.0;
// Open-loop latency passes: fewer keys, fixed offered rate.
constexpr int kLatencyKeys = 2048;
constexpr double kLatencyRate = 10000.0;  // events/s
constexpr size_t kChunk = 512;            // events per IngestBatch call
// The open-loop producer sends what is due at most once per tick, so a
// shard worker is not woken once per event; the wait counts in latency.
constexpr int64_t kSendTickNs = 500000;
constexpr int kMinPasses = 3;

struct Input {
  std::vector<EventPtr> by_ts;    // timestamp order
  std::vector<EventPtr> arrival;  // delivery order (disordered)
  std::vector<std::vector<EventPtr>> chunks;  // arrival, in kChunk runs
  std::vector<size_t> arrival_index;          // by timestamp
  uint64_t session_matches = 0;
  size_t keys = 0;  // distinct ids
};

Input MakeInput(uint64_t seed, int keys) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  struct Draft {
    double at;
    int64_t key;
    double price;
  };
  std::vector<Draft> drafts;
  // Distinct high-cardinality ids, far apart so neighbouring keys hash
  // independently.
  std::vector<int64_t> ids;
  for (int k = 0; k < keys; ++k) {
    ids.push_back(static_cast<int64_t>((rng() >> 2) | 1));
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::shuffle(ids.begin(), ids.end(), rng);
  for (size_t k = 0; k < ids.size(); ++k) {
    const double start = 4.0 * static_cast<double>(k) + 4.0 * unit(rng);
    const int m = 3 + static_cast<int>(rng() % 3);
    for (int e = 0; e < m; ++e) {
      drafts.push_back({start + kSessionSpan * unit(rng), ids[k],
                        std::floor(unit(rng) * 1000.0) / 10.0});
    }
  }
  std::sort(drafts.begin(), drafts.end(),
            [](const Draft& a, const Draft& b) { return a.at < b.at; });

  Input in;
  in.keys = ids.size();
  std::vector<Tick> ticks;
  const zstream::SchemaPtr schema = zstream::StockSchema();
  for (size_t i = 0; i < drafts.size(); ++i) {
    const int64_t ts = static_cast<int64_t>(i);  // distinct, dense
    ticks.push_back({ts, drafts[i].key, drafts[i].price});
    in.by_ts.push_back(zstream::EventBuilder(schema)
                           .Set("id", drafts[i].key)
                           .Set("name", "K")
                           .Set("price", drafts[i].price)
                           .Set("volume", int64_t{1})
                           .Set("ts", ts)
                           .At(ts)
                           .Build());
  }
  in.session_matches = CountRisingTriples(ticks, kWindow);

  // Disorder: each event is delayed by less than half the slack, so no
  // event can arrive more than the slack behind the newest one.
  std::vector<std::pair<double, size_t>> order;
  for (size_t i = 0; i < in.by_ts.size(); ++i) {
    order.push_back({static_cast<double>(i) + unit(rng) * (kSlack / 2.0), i});
  }
  std::sort(order.begin(), order.end());
  in.arrival_index.resize(order.size());
  for (size_t a = 0; a < order.size(); ++a) {
    in.arrival.push_back(in.by_ts[order[a].second]);
    in.arrival_index[order[a].second] = a;
  }
  for (size_t i = 0; i < in.arrival.size(); i += kChunk) {
    const size_t n = std::min(kChunk, in.arrival.size() - i);
    in.chunks.emplace_back(in.arrival.begin() + static_cast<ptrdiff_t>(i),
                           in.arrival.begin() + static_cast<ptrdiff_t>(i + n));
  }
  return in;
}

struct Served {
  std::unique_ptr<rt::StreamRuntime> runtime;
  rt::StreamId stream = 0;
  rt::QueryId query = 0;
};

// Set-up through the layers' public calls, each in its own span.
Served Start(Spans* spans, Result* r, rt::MatchSink* sink) {
  Served s;
  zstream::PatternPtr pattern;
  {
    Scoped sp(spans, "query.AnalyzeQuery");
    auto p = zstream::AnalyzeQuery(kQuery, zstream::StockSchema());
    if (!p.ok()) {
      r->Check(false, "churn analyze: " + p.status().ToString());
      return s;
    }
    pattern = *p;
  }
  zstream::PhysicalPlan plan;
  {
    Scoped sp(spans, "opt.BuildPlan");
    auto built = zstream::BuildPlan(pattern, {});
    if (!built.ok()) {
      r->Check(false, "churn plan: " + built.status().ToString());
      return s;
    }
    plan = *built;
  }
  {
    Scoped sp(spans, "verify.VerifyPlan");
    const zstream::Status st = zstream::verify::VerifyPlan(*pattern, plan);
    if (!st.ok()) {
      r->Check(false, "churn verify: " + st.ToString());
      return s;
    }
  }
  {
    Scoped sp(spans, "runtime.StreamRuntime::Create");
    rt::RuntimeOptions options;
    options.num_shards = kShards;
    options.reorder_slack = kSlack;
    auto runtime = rt::StreamRuntime::Create(options);
    if (!runtime.ok()) {
      r->Check(false, "churn runtime: " + runtime.status().ToString());
      return s;
    }
    s.runtime = std::move(*runtime);
    auto stream = s.runtime->AddStream("stock", zstream::StockSchema());
    if (!stream.ok()) {
      r->Check(false, "churn stream: " + stream.status().ToString());
      s.runtime.reset();
      return s;
    }
    s.stream = *stream;
  }
  {
    Scoped sp(spans, "exec.RegisterQuery");
    rt::QueryOptions qopts;
    qopts.sink = sink;
    auto id = s.runtime->RegisterQuery(s.stream, pattern, plan, {}, qopts);
    if (!id.ok()) {
      r->Check(false, "churn register: " + id.status().ToString());
      s.runtime.reset();
      return s;
    }
    s.query = *id;
  }
  return s;
}

struct PassOut {
  int64_t ns = 0;
  uint64_t matches = 0;
  uint64_t late = 0;
  int64_t tracked_peak = 0;
  int64_t rss_peak = 0;  // memory pass: max RSS sampled per chunk
  double events_per_worker_batch = 0.0;
  double shard_skew = 0.0;
};

PassOut Ingest(Served* s, const Input& in, Spans* spans, bool sample_rss,
               Result* r) {
  PassOut out;
  const int64_t t0 = NowNs();
  for (size_t c = 0; c < in.chunks.size(); ++c) {
    {
      Scoped sp(spans, "runtime.IngestBatch");
      const uint64_t dropped = s->runtime->IngestBatch(s->stream, in.chunks[c]);
      if (dropped != 0) r->Check(false, "churn: runtime dropped events");
    }
    if (sample_rss) {
      out.rss_peak = std::max(out.rss_peak, RssBytes());
    }
  }
  {
    Scoped sp(spans, "runtime.Flush");
    const zstream::Status st = s->runtime->Flush();
    if (!st.ok()) r->Check(false, "churn flush: " + st.ToString());
  }
  out.ns = NowNs() - t0;
  if (sample_rss) out.rss_peak = std::max(out.rss_peak, RssBytes());
  out.matches = s->runtime->query_matches(s->query).ValueOr(0);
  out.tracked_peak = s->runtime->query_peak_bytes(s->query).ValueOr(0);
  const rt::RuntimeStats stats = s->runtime->Stats();
  out.late = stats.late_dropped;
  uint64_t batches = 0, max_events = 0;
  for (const rt::ShardStats& sh : stats.shards) {
    batches += sh.batches;
    max_events = std::max(max_events, sh.events_processed);
  }
  out.events_per_worker_batch =
      batches == 0 ? 0.0 : static_cast<double>(stats.events_processed) / batches;
  const double mean = static_cast<double>(stats.events_processed) /
                      static_cast<double>(std::max<size_t>(1, stats.shards.size()));
  out.shard_skew = mean == 0.0 ? 0.0 : max_events / mean;
  return out;
}

}  // namespace

void RunKeyedChurn(const Args& args, Result* r) {
  Spans spans;
  Served first = Start(&spans, r, nullptr);
  const double setup_s = (NowNs() - ProcessStartNs()) / 1e9;
  if (!r->correct) return;

  const Input input = MakeInput(args.seed, kKeys);
  const Input latency_input = MakeInput(args.seed + 7919, kLatencyKeys);
  TrimHeap();
  const int64_t rss_base = RssBytes();
  const int64_t start = NowNs();
  const int64_t span = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t deadline = start + span;

  // Memory pass: the cold runtime from set-up, RSS sampled per chunk.
  const PassOut mem = Ingest(&first, input, &spans, true, r);
  first.runtime.reset();
  TrimHeap();
  std::vector<PassOut> passes = {mem};

  // Open-loop latency pass: chunks are ingested when due; a match's
  // latency runs from the due time of its last-arriving event to the
  // sink seeing it on a shard thread.
  LatencyLog latency;
  std::vector<double> lag_ms;
  const auto latency_pass = [&] {
    latency.NewPass();
    const auto& ev = latency_input.arrival;
    int64_t t0 = 0;
    const double ns_per_event = 1e9 / kLatencyRate;
    const auto due = [&](size_t idx) {
      return t0 + static_cast<int64_t>(static_cast<double>(idx) *
                                       ns_per_event);
    };
    uint64_t seen = 0;
    rt::CallbackMatchSink sink([&](rt::RuntimeMatch&& m) {
      const int64_t now = NowNs();
      size_t last = 0;
      for (const EventPtr& e : m.match.slots) {
        if (e != nullptr) {
          last = std::max(last, latency_input.arrival_index[static_cast<size_t>(
                                    e->timestamp())]);
        }
      }
      latency.Add((now - due(last)) / 1e6);
      ++seen;
    });
    Served s = Start(&spans, r, &sink);
    if (!r->correct) return;
    t0 = NowNs() + 1000000;
    size_t i = 0;
    int64_t next_send = 0;
    std::vector<EventPtr> batch;
    while (i < ev.size()) {
      SpinUntil(std::max(due(i), next_send));
      const int64_t now = NowNs();
      next_send = now + kSendTickNs;
      batch.clear();
      size_t j = i;
      while (j < ev.size() && due(j) <= now) batch.push_back(ev[j++]);
      lag_ms.push_back((now - due(i)) / 1e6);
      s.runtime->IngestBatch(s.stream, batch);
      i = j;
    }
    r->Check(s.runtime->Flush().ok(), "churn latency pass: flush failed");
    const uint64_t got = s.runtime->query_matches(s.query).ValueOr(0);
    r->Check(got == latency_input.session_matches,
             "churn latency pass: " + std::to_string(got) +
                 " matches, sessions say " +
                 std::to_string(latency_input.session_matches));
    const uint64_t late = s.runtime->Stats().late_dropped;
    r->Check(late == 0, "churn latency pass: " + std::to_string(late) +
                            " events late-dropped");
    s.runtime->Stop();
    r->Check(seen == got,
             "churn latency pass: sink count differs from query_matches");
    s.runtime.reset();
    TrimHeap();
  };

  // Throughput passes, each on a fresh runtime; a traced run alternates
  // untraced and traced passes.
  std::vector<double> eps, traced_eps;
  std::vector<PassOut> traced_passes;
  int pass = 0;
  while (NowNs() < deadline || pass < kMinPasses ||
         latency.Due(start, span)) {
    if (latency.Due(start, span)) {
      latency_pass();
      continue;
    }
    const bool traced = args.trace && pass % 2 == 1;
    spans.set_enabled(traced);
    Served s = Start(&spans, r, nullptr);
    if (!r->correct) return;
    const PassOut out = Ingest(&s, input, &spans, false, r);
    spans.set_enabled(false);
    s.runtime.reset();
    TrimHeap();
    passes.push_back(out);
    const double rate = input.arrival.size() / (out.ns / 1e9);
    (traced ? traced_eps : eps).push_back(rate);
    if (traced) traced_passes.push_back(out);
    ++pass;
  }
  r->attempted = static_cast<uint64_t>(pass + 1) * input.arrival.size() +
                 LatencyLog::kPasses * latency_input.arrival.size();

  // Correctness: every pass against the sessions, the same input in
  // timestamp order through one in-process (partitioned) query, and
  // nothing late-dropped.
  uint64_t in_order = 0;
  {
    zstream::ZStream zs(zstream::StockSchema());
    auto q = zs.Compile(kQuery);
    if (q.ok()) {
      r->Check((*q)->partitioned(), "churn: query is not partitioned");
      for (const EventPtr& e : input.by_ts) (*q)->Push(e);
      (*q)->Finish();
      in_order = (*q)->num_matches();
    } else {
      r->Check(false, "churn compile: " + q.status().ToString());
    }
  }
  for (const PassOut& p : passes) {
    CheckChurn(r, p.matches, input.session_matches, in_order, p.late);
  }

  const double growth = static_cast<double>(mem.rss_peak - rss_base);
  if (!args.trace) {
    r->Add("events_per_s", Median(eps), "events/s");
    r->Add("setup_s", setup_s, "s");
    r->Add("peak_rss_mb", growth / 1048576.0, "MB");
    r->Add("detect_p50_ms", latency.Percentile(0.50), "ms");
    r->Add("detect_p99_ms", latency.Percentile(0.99), "ms");
    return;
  }

  // The same memory pass over half as many keys: resident memory grows
  // with the number of keys ever seen.
  double half_growth = 0.0;
  {
    const Input half = MakeInput(args.seed, kKeys / 2);
    Served s = Start(&spans, r, nullptr);
    if (!r->correct) return;
    TrimHeap();
    const int64_t base = RssBytes();
    const PassOut out = Ingest(&s, half, &spans, true, r);
    r->Check(out.matches == half.session_matches && out.late == 0,
             "churn half-keys pass: " + std::to_string(out.matches) +
                 " matches, sessions say " +
                 std::to_string(half.session_matches));
    half_growth = static_cast<double>(out.rss_peak - base);
  }

  const auto summary = spans.Summarize();
  const auto median_ms = [&](const char* name) {
    auto it = summary.find(name);
    if (it == summary.end()) return 0.0;
    std::vector<double> d;
    for (int64_t ns : it->second.durations) d.push_back(ns / 1e6);
    return Median(d);
  };
  const auto self_ns = [&](const char* name) -> double {
    auto it = summary.find(name);
    return it == summary.end() ? 0.0 : static_cast<double>(it->second.self_ns);
  };
  const double traced_events =
      static_cast<double>(traced_passes.size() * input.arrival.size());
  std::vector<double> per_batch, skew;
  for (const PassOut& p : traced_passes) {
    per_batch.push_back(p.events_per_worker_batch);
    skew.push_back(p.shard_skew);
  }
  std::map<std::string, double> m;
  m["query.analyze_ms"] = median_ms("query.AnalyzeQuery");
  m["opt.plan_ms"] = median_ms("opt.BuildPlan");
  m["verify.plan_ms"] = median_ms("verify.VerifyPlan");
  m["exec.create_ms"] = median_ms("exec.RegisterQuery");
  m["exec.tracked_peak_mb"] = mem.tracked_peak / 1048576.0;
  m["exec.untracked_mb"] = (growth - static_cast<double>(mem.tracked_peak)) / 1048576.0;
  m["exec.rss_kb_per_key"] = growth / 1024.0 / static_cast<double>(input.keys);
  m["exec.rss_mb_half_keys"] = half_growth / 1048576.0;
  m["exec.rss_mb_all_keys"] = growth / 1048576.0;
  m["runtime.ingest_ns_per_event"] =
      traced_events > 0 ? self_ns("runtime.IngestBatch") / traced_events : 0.0;
  m["runtime.flush_ms"] = median_ms("runtime.Flush");
  m["runtime.events_per_worker_batch"] = Median(per_batch);
  m["runtime.shard_skew"] = Median(skew);
  m["workload.gen_lag_p99_ms"] = Percentile(lag_ms, 0.99);
  m["workload.detect_samples"] = static_cast<double>(latency.size());
  m["bench.trace_overhead"] = Median(eps) / Median(traced_eps) - 1.0;
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = m.find(name);
    r->Add(name, it == m.end() ? 0.0 : it->second, unit);
  }
  WriteTrace(args, spans, r);
}

}  // namespace perfbench
