#include "checks.h"

#include <algorithm>
#include <map>

namespace perfbench {

namespace {

std::string Mismatch(const std::string& what, uint64_t got,
                     uint64_t expected) {
  return what + ": got " + std::to_string(got) + ", expected " +
         std::to_string(expected);
}

}  // namespace

uint64_t CountQuery6(const std::vector<Tick>& ticks, int64_t window) {
  // IBM timestamps, for counting IBMs in a timestamp range.
  std::vector<int64_t> ibm_ts;
  for (const Tick& t : ticks) {
    if (t.key == 0) ibm_ts.push_back(t.ts);
  }
  const auto ibm_in = [&](int64_t lo, int64_t hi) -> uint64_t {
    // IBMs with lo <= ts < hi.
    if (hi <= lo) return 0;
    const auto a = std::lower_bound(ibm_ts.begin(), ibm_ts.end(), lo);
    const auto b = std::lower_bound(ibm_ts.begin(), ibm_ts.end(), hi);
    return static_cast<uint64_t>(b - a);
  };

  uint64_t total = 0;
  std::vector<const Tick*> suns;
  for (size_t k = 0; k < ticks.size(); ++k) {
    const Tick& oracle = ticks[k];
    if (oracle.key != 2) continue;
    // A Sun needs an IBM before it inside the window, so it lies within
    // (oracle.ts - window, oracle.ts).
    suns.clear();
    for (size_t j = k; j-- > 0;) {
      if (oracle.ts - ticks[j].ts >= window) break;
      if (ticks[j].key == 1 && oracle.price > ticks[j].price) {
        suns.push_back(&ticks[j]);
      }
    }
    if (suns.empty()) continue;
    for (size_t l = k + 1; l < ticks.size(); ++l) {
      const Tick& google = ticks[l];
      if (google.ts - oracle.ts >= window) break;
      if (google.key != 3 || !(oracle.price > google.price)) continue;
      for (const Tick* sun : suns) {
        total += ibm_in(google.ts - window, sun->ts);
      }
    }
  }
  return total;
}

uint64_t CountRisingTriples(const std::vector<Tick>& ticks, int64_t window) {
  std::map<int64_t, std::vector<const Tick*>> by_key;
  for (const Tick& t : ticks) by_key[t.key].push_back(&t);
  uint64_t total = 0;
  for (const auto& [key, seq] : by_key) {
    for (size_t l = 0; l < seq.size(); ++l) {
      const Tick& c = *seq[l];
      for (size_t j = l; j-- > 0;) {
        const Tick& b = *seq[j];
        if (c.ts - b.ts > window) break;
        if (!(b.price < c.price)) continue;
        for (size_t i = j; i-- > 0;) {
          const Tick& a = *seq[i];
          if (c.ts - a.ts > window) break;
          if (a.price < b.price) ++total;
        }
      }
    }
  }
  return total;
}

uint64_t CountNegation(const std::vector<Tick>& ticks, int64_t window,
                       int64_t ibm, int64_t sun, int64_t oracle) {
  uint64_t total = 0;
  for (size_t k = 0; k < ticks.size(); ++k) {
    if (ticks[k].key != oracle) continue;
    for (size_t i = k; i-- > 0;) {
      if (ticks[k].ts - ticks[i].ts > window) break;
      if (ticks[i].key == sun) break;  // negates every earlier IBM
      if (ticks[i].key == ibm) ++total;
    }
  }
  return total;
}

bool CheckQuery6(Result* r, uint64_t engine_count, uint64_t scan_count,
                 uint64_t prefix_scan, uint64_t prefix_oracle,
                 const std::vector<uint64_t>& prefix_shapes) {
  const bool before = r->correct;
  r->Check(engine_count == scan_count,
           Mismatch("q6 adaptive engine vs scan", engine_count, scan_count));
  r->Check(prefix_oracle == prefix_scan,
           Mismatch("q6 prefix oracle vs scan", prefix_oracle, prefix_scan));
  r->Check(!prefix_shapes.empty(), "q6 prefix: no static shape ran");
  for (size_t i = 0; i < prefix_shapes.size(); ++i) {
    r->Check(prefix_shapes[i] == prefix_scan,
             Mismatch("q6 prefix static shape " + std::to_string(i) +
                          " vs scan",
                      prefix_shapes[i], prefix_scan));
  }
  return before && r->correct;
}

bool CheckChurn(Result* r, uint64_t runtime_count, uint64_t session_count,
                uint64_t in_order_count, uint64_t late_dropped) {
  const bool before = r->correct;
  r->Check(runtime_count == session_count,
           Mismatch("churn runtime vs sessions", runtime_count,
                    session_count));
  r->Check(in_order_count == session_count,
           Mismatch("churn in-order engine vs sessions", in_order_count,
                    session_count));
  r->Check(late_dropped == 0,
           Mismatch("churn late-dropped events", late_dropped, 0));
  return before && r->correct;
}

bool CheckWire(Result* r, uint64_t sent, uint64_t acked, uint64_t dropped,
               const std::vector<WireQueryCounts>& queries,
               double min_latency_ms) {
  const bool before = r->correct;
  r->Check(acked == sent, Mismatch("wire acked events", acked, sent));
  r->Check(dropped == 0, Mismatch("wire dropped events", dropped, 0));
  r->Check(!queries.empty(), "wire: no query counts");
  for (const WireQueryCounts& q : queries) {
    r->Check(q.subscriber == q.independent,
             Mismatch("wire " + q.name + " subscriber vs scan", q.subscriber,
                      q.independent));
    r->Check(q.flush_ack == q.independent,
             Mismatch("wire " + q.name + " FlushAck vs scan", q.flush_ack,
                      q.independent));
    r->Check(q.in_process == q.independent,
             Mismatch("wire " + q.name + " in-process vs scan",
                      q.in_process, q.independent));
  }
  r->Check(min_latency_ms >= 0.0,
           "wire: negative detection latency " +
               std::to_string(min_latency_ms) + " ms");
  return before && r->correct;
}

}  // namespace perfbench
