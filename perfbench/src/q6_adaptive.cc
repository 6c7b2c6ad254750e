// q6_adaptive: paper Query 6 over one stock stream cycling through the
// three Section 6.2 regimes, compiled by the cost-based planner with
// adaptation on and pushed in columnar batches on one thread.
//
// Nearly all the work is operator assembly, compiled predicates and
// re-planning (exec/, expr/, opt/): the static shapes differ 13-43x
// across the regimes, so the plan the adaptive engine runs sets the
// throughput.
#include <array>
#include <memory>

#include "api/zstream.h"
#include "checks.h"
#include "exec/engine.h"
#include "plan/physical_plan.h"
#include "query/analyzer.h"
#include "testing/oracle.h"
#include "verify/plan_verifier.h"
#include "workload/stock_gen.h"
#include "workloads.h"

namespace perfbench {

using zstream::EventPtr;

namespace {

constexpr char kQuery6[] =
    "PATTERN IBM;Sun;Oracle;Google "
    "WHERE IBM.name='IBM' AND Sun.name='Sun' AND Oracle.name='Oracle' "
    "AND Google.name='Google' "
    "AND Oracle.price > Sun.price AND Oracle.price > Google.price "
    "WITHIN 100";
constexpr int64_t kWindow = 100;

// Input make-up. One pass pushes kCycles x 3 segments.
constexpr int64_t kSegmentEvents = 20000;
constexpr int kCycles = 3;
// Open-loop latency passes: one cycle of shorter segments at a fixed
// offered rate, below the slowest static shape's capacity.
constexpr int64_t kLatencySegmentEvents = 2000;
constexpr double kLatencyRate = 10000.0;  // events/s
// Prefix on which the oracle and every static shape are checked.
constexpr int64_t kPrefixSegmentEvents = 150;
constexpr size_t kChunk = 1024;  // events per PushBatch call
constexpr int kMinPasses = 3;

struct Regime {
  const char* name;
  const char* rates;  // IBM:Sun:Oracle:Google
  double sel1;        // P(Oracle.price > Sun.price)
  double sel2;        // P(Oracle.price > Google.price)
};
constexpr std::array<Regime, 3> kRegimes = {{
    {"rate_skew", "1:100:100:100", 1.0, 1.0},
    {"sel1", "1:1:1:1", 1.0 / 50, 1.0},
    {"sel2", "1:1:1:1", 1.0, 1.0 / 50},
}};

struct Input {
  std::vector<EventPtr> events;
  // Segment s covers [bounds[s], bounds[s + 1]) and runs regime s % 3.
  std::vector<size_t> bounds;
  zstream::Timestamp start_ts = 0;
};

Input MakeInput(uint64_t seed, int64_t segment_events, int cycles) {
  Input in;
  in.bounds.push_back(0);
  zstream::Timestamp ts = 0;
  for (int c = 0; c < cycles; ++c) {
    for (size_t g = 0; g < kRegimes.size(); ++g) {
      const Regime& regime = kRegimes[g];
      zstream::StockGenOptions gen;
      gen.names = {"IBM", "Sun", "Oracle", "Google"};
      gen.weights = zstream::ParseRateRatio(regime.rates);
      gen.num_events = segment_events;
      gen.seed = seed * 1000003ULL + static_cast<uint64_t>(c * 3) + g;
      gen.start_ts = ts;
      gen.fixed_price = {
          {"Sun", zstream::FixedPriceForSelectivity(regime.sel1, 0, 100)},
          {"Google", zstream::FixedPriceForSelectivity(regime.sel2, 0, 100)},
      };
      std::vector<EventPtr> seg = zstream::GenerateStockTrades(gen);
      in.events.insert(in.events.end(), seg.begin(), seg.end());
      in.bounds.push_back(in.events.size());
      ts += segment_events;
    }
  }
  return in;
}

std::vector<Tick> ToTicks(const std::vector<EventPtr>& events) {
  std::vector<Tick> out;
  out.reserve(events.size());
  for (const EventPtr& e : events) {
    const std::string& name = e->value(1).string_value();
    const int64_t code = name == "IBM"      ? 0
                         : name == "Sun"    ? 1
                         : name == "Oracle" ? 2
                                            : 3;
    out.push_back({e->timestamp(), code, e->value(2).AsDouble()});
  }
  return out;
}

struct Compiled {
  zstream::PatternPtr pattern;
  std::unique_ptr<zstream::Engine> engine;
};

// Set-up through the layers' public calls, each in its own span:
// analyze (query/), plan (opt/), verify (verify/), create (exec/).
Compiled Compile(Spans* spans, Result* r) {
  Compiled c;
  {
    Scoped s(spans, "query.AnalyzeQuery");
    auto p = zstream::AnalyzeQuery(kQuery6, zstream::StockSchema());
    if (!p.ok()) {
      r->Check(false, "q6 analyze: " + p.status().ToString());
      return c;
    }
    c.pattern = *p;
  }
  zstream::CompileOptions options;
  options.engine.adaptive = true;
  zstream::PhysicalPlan plan;
  {
    Scoped s(spans, "opt.BuildPlan");
    auto built = zstream::BuildPlan(c.pattern, options);
    if (!built.ok()) {
      r->Check(false, "q6 plan: " + built.status().ToString());
      return c;
    }
    plan = *built;
  }
  {
    Scoped s(spans, "verify.VerifyPlan");
    const zstream::Status st = zstream::verify::VerifyPlan(*c.pattern, plan);
    if (!st.ok()) {
      r->Check(false, "q6 verify: " + st.ToString());
      return c;
    }
  }
  {
    Scoped s(spans, "exec.Engine::Create");
    auto engine = zstream::Engine::Create(c.pattern, plan, options.engine);
    if (!engine.ok()) {
      r->Check(false, "q6 create: " + engine.status().ToString());
      return c;
    }
    c.engine = std::move(*engine);
  }
  return c;
}

struct PassOut {
  int64_t ns = 0;
  std::array<int64_t, 3> regime_ns{};
  std::array<int64_t, 3> regime_events{};
  uint64_t matches = 0;
  uint64_t pairs = 0;
  uint64_t records = 0;  // non-root node output
  uint64_t switches = 0;
  int64_t peak_rss = 0;   // max RSS seen (memory pass only)
  int64_t tracked_peak = 0;
};

// Pairs tried and non-root records out, summed over the plan tree.
std::pair<uint64_t, uint64_t> ProfileTotals(const zstream::NodeProfile& node,
                                            bool root = true) {
  std::pair<uint64_t, uint64_t> t = {node.pairs_tried,
                                     root ? 0 : node.records_out};
  for (const auto& child : node.children) {
    const auto c = ProfileTotals(child, false);
    t.first += c.first;
    t.second += c.second;
  }
  return t;
}

PassOut Push(zstream::Engine* engine, const Input& in, Spans* spans,
             bool sample_rss) {
  PassOut out;
  // A plan switch rebuilds the operators and their counters, so a traced
  // pass banks the totals seen just before each switch. Work done
  // between that sample and the switch is not counted.
  std::pair<uint64_t, uint64_t> banked = {0, 0}, last = {0, 0};
  uint64_t switches = 0;
  const auto sample_profile = [&] {
    const auto now = ProfileTotals(engine->Profile());
    if (engine->plan_switches() != switches) {
      switches = engine->plan_switches();
      banked.first += last.first;
      banked.second += last.second;
    }
    last = now;
  };
  const int64_t t0 = NowNs();
  for (size_t s = 0; s + 1 < in.bounds.size(); ++s) {
    const int64_t ts0 = NowNs();
    for (size_t i = in.bounds[s]; i < in.bounds[s + 1]; i += kChunk) {
      const size_t n = std::min(kChunk, in.bounds[s + 1] - i);
      {
        Scoped sp(spans, "exec.PushBatch");
        engine->PushBatch({in.events.data() + i, n});
      }
      if (sample_rss) out.peak_rss = std::max(out.peak_rss, RssBytes());
      if (spans->enabled()) sample_profile();
    }
    out.regime_ns[s % 3] += NowNs() - ts0;
    out.regime_events[s % 3] +=
        static_cast<int64_t>(in.bounds[s + 1] - in.bounds[s]);
  }
  {
    Scoped sp(spans, "exec.Finish");
    engine->Finish();
  }
  out.ns = NowNs() - t0;
  out.matches = engine->num_matches();
  out.switches = engine->plan_switches();
  out.tracked_peak = engine->memory().peak_bytes();
  sample_profile();
  out.pairs = banked.first + last.first;
  out.records = banked.second + last.second;
  return out;
}

std::vector<zstream::PhysicalPlan> StaticShapes(const zstream::Pattern& p) {
  std::vector<zstream::PhysicalPlan> plans;
  plans.push_back(zstream::LeftDeepPlan(p));
  plans.push_back(zstream::RightDeepPlan(p));
  for (const char* shape : {"((0 1) (2 3))", "(0 ((1 2) 3))"}) {
    auto plan = zstream::PlanFromShape(p, shape);
    if (plan.ok()) plans.push_back(*plan);
  }
  return plans;
}

}  // namespace

void RunQ6Adaptive(const Args& args, Result* r) {
  Spans spans;
  // Cold set-up, timed from process start.
  Compiled first = Compile(&spans, r);
  const double setup_s = (NowNs() - ProcessStartNs()) / 1e9;
  if (!r->correct) return;

  const Input input = MakeInput(args.seed, kSegmentEvents, kCycles);
  const Input latency_input =
      MakeInput(args.seed + 7919, kLatencySegmentEvents, 1);
  TrimHeap();
  const int64_t rss_base = RssBytes();
  const int64_t start = NowNs();
  const int64_t span = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t deadline = start + span;

  // Memory pass: the cold engine from set-up, RSS sampled per chunk.
  const PassOut mem = Push(first.engine.get(), input, &spans, true);
  first.engine.reset();
  std::vector<uint64_t> pass_matches = {mem.matches};

  // Open-loop latency pass: events are pushed when due; a match's
  // latency runs from the due time of its last event to its callback.
  LatencyLog latency;
  std::vector<double> lag_ms;
  const uint64_t latency_expected =
      CountQuery6(ToTicks(latency_input.events), kWindow);
  const auto latency_pass = [&] {
    latency.NewPass();
    Compiled c = Compile(&spans, r);
    if (!r->correct) return;
    const auto& ev = latency_input.events;
    const int64_t t0 = NowNs() + 1000000;
    const double ns_per_event = 1e9 / kLatencyRate;
    const auto due = [&](size_t idx) {
      return t0 + static_cast<int64_t>(static_cast<double>(idx) *
                                       ns_per_event);
    };
    uint64_t seen = 0;
    c.engine->SetMatchCallback([&](zstream::Match&& m) {
      const size_t idx =
          static_cast<size_t>(m.span.end - latency_input.start_ts);
      latency.Add((NowNs() - due(idx)) / 1e6);
      ++seen;
    });
    size_t i = 0;
    while (i < ev.size()) {
      SpinUntil(due(i));
      const int64_t now = NowNs();
      size_t j = i;
      while (j < ev.size() && due(j) <= now) ++j;
      lag_ms.push_back((now - due(i)) / 1e6);
      c.engine->PushBatch({ev.data() + i, j - i});
      i = j;
    }
    c.engine->Finish();
    r->Check(c.engine->num_matches() == seen,
             "q6 latency pass: callback count differs from num_matches");
    r->Check(c.engine->num_matches() == latency_expected,
             "q6 latency pass: " + std::to_string(c.engine->num_matches()) +
                 " matches, scan says " + std::to_string(latency_expected));
  };

  // Throughput passes, each on a freshly compiled engine. A traced run
  // alternates untraced and traced passes so the tracing overhead is
  // the ratio of their medians.
  std::vector<double> eps, traced_eps;
  std::array<std::vector<double>, 3> regime_eps;
  std::array<std::vector<double>, 3> regime_ns;
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
    Compiled c = Compile(&spans, r);
    if (!r->correct) return;
    const PassOut out = Push(c.engine.get(), input, &spans, false);
    spans.set_enabled(false);
    pass_matches.push_back(out.matches);
    const double rate = input.events.size() / (out.ns / 1e9);
    if (traced) {
      traced_eps.push_back(rate);
      traced_passes.push_back(out);
    } else {
      eps.push_back(rate);
      for (size_t g = 0; g < 3; ++g) {
        regime_eps[g].push_back(out.regime_events[g] /
                                (out.regime_ns[g] / 1e9));
        regime_ns[g].push_back(static_cast<double>(out.regime_ns[g]));
      }
    }
    ++pass;
  }
  r->attempted = static_cast<uint64_t>(pass + 1) * input.events.size() +
                 LatencyLog::kPasses * latency_input.events.size();

  // Correctness: every pass against the scan; on a prefix, the oracle
  // and every static shape against the scan of that prefix.
  const uint64_t scan = CountQuery6(ToTicks(input.events), kWindow);
  uint64_t engine_count = scan;
  for (uint64_t m : pass_matches) {
    if (m != scan) engine_count = m;
  }
  {
    const Input prefix = MakeInput(args.seed + 104729, kPrefixSegmentEvents, 1);
    const uint64_t prefix_scan = CountQuery6(ToTicks(prefix.events), kWindow);
    auto oracle = zstream::testing::Oracle::Create(first.pattern);
    const uint64_t prefix_oracle =
        oracle.ok() ? (*oracle)->Run(prefix.events).size() : ~0ULL;
    std::vector<uint64_t> shapes;
    for (const auto& plan : StaticShapes(*first.pattern)) {
      auto engine = zstream::Engine::Create(first.pattern, plan);
      if (!engine.ok()) continue;
      (*engine)->PushBatch({prefix.events.data(), prefix.events.size()});
      (*engine)->Finish();
      shapes.push_back((*engine)->num_matches());
    }
    r->Check(shapes.size() == 4, "q6: a static shape failed to build");
    CheckQuery6(r, engine_count, scan, prefix_scan, prefix_oracle, shapes);
  }

  if (!args.trace) {
    r->Add("events_per_s", Median(eps), "events/s");
    r->Add("setup_s", setup_s, "s");
    r->Add("peak_rss_mb", (mem.peak_rss - rss_base) / 1048576.0, "MB");
    r->Add("detect_p50_ms", latency.Percentile(0.50), "ms");
    r->Add("detect_p99_ms", latency.Percentile(0.99), "ms");
    return;
  }

  // Regret: each static shape over the same input, per regime segment,
  // against the adaptive engine's median per-regime time.
  std::array<double, 3> best_ns = {1e300, 1e300, 1e300};
  {
    for (const auto& plan : StaticShapes(*first.pattern)) {
      auto engine = zstream::Engine::Create(first.pattern, plan);
      if (!engine.ok()) continue;
      const PassOut out = Push(engine->get(), input, &spans, false);
      r->Check(out.matches == scan, "q6 static shape over the full input: " +
                                        std::to_string(out.matches) +
                                        " matches, scan says " +
                                        std::to_string(scan));
      for (size_t g = 0; g < 3; ++g) {
        best_ns[g] = std::min(best_ns[g], static_cast<double>(out.regime_ns[g]));
      }
    }
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
      static_cast<double>(traced_passes.size() * input.events.size());
  std::vector<double> pairs, records, yield, switches, tracked;
  for (const PassOut& p : traced_passes) {
    const double n = static_cast<double>(input.events.size());
    pairs.push_back(p.pairs / n);
    records.push_back(p.records / n);
    yield.push_back(p.pairs == 0 ? 0.0 : static_cast<double>(p.matches) / p.pairs);
    switches.push_back(static_cast<double>(p.switches));
    tracked.push_back(p.tracked_peak / 1048576.0);
  }
  double adaptive_total = 0.0, best_total = 0.0;
  std::array<double, 3> regret{};
  for (size_t g = 0; g < 3; ++g) {
    const double a = Median(regime_ns[g]);
    regret[g] = a / best_ns[g];
    adaptive_total += a;
    best_total += best_ns[g];
  }

  std::map<std::string, double> m;
  m["query.analyze_ms"] = median_ms("query.AnalyzeQuery");
  m["opt.plan_ms"] = median_ms("opt.BuildPlan");
  m["verify.plan_ms"] = median_ms("verify.VerifyPlan");
  m["exec.create_ms"] = median_ms("exec.Engine::Create");
  m["exec.push_ns_per_event"] =
      traced_events > 0 ? self_ns("exec.PushBatch") / traced_events : 0.0;
  m["exec.finish_ms"] = median_ms("exec.Finish");
  m["exec.pairs_per_event"] = Median(pairs);
  m["exec.records_per_event"] = Median(records);
  m["exec.match_yield"] = Median(yield);
  m["exec.tracked_peak_mb"] = Median(tracked);
  m["opt.plan_switches"] = Median(switches);
  m["opt.regime_events_per_s.rate_skew"] = Median(regime_eps[0]);
  m["opt.regime_events_per_s.sel1"] = Median(regime_eps[1]);
  m["opt.regime_events_per_s.sel2"] = Median(regime_eps[2]);
  m["opt.regret"] = adaptive_total / best_total;
  m["opt.regret.rate_skew"] = regret[0];
  m["opt.regret.sel1"] = regret[1];
  m["opt.regret.sel2"] = regret[2];
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
