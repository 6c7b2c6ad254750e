// Self-test of the benchmark's correctness checks: each reference scan
// agrees with the brute-force oracle (src/testing/) on small inputs, and
// each check accepts the true result and rejects every perturbed one.
//
//   python3 perfbench/run.py --self-test
#include <cstdio>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "checks.h"
#include "query/analyzer.h"
#include "testing/oracle.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  } else {
    std::printf("ok:   %s\n", what.c_str());
  }
}

const char* const kNames[] = {"IBM", "Sun", "Oracle", "Google"};

// Random ticks over `symbols` names with strictly increasing timestamps.
std::vector<perfbench::Tick> RandomTicks(uint64_t seed, size_t n,
                                         int symbols) {
  std::mt19937_64 rng(seed);
  std::vector<perfbench::Tick> out;
  int64_t ts = 0;
  for (size_t i = 0; i < n; ++i) {
    ts += 1 + static_cast<int64_t>(rng() % 3);
    out.push_back({ts, static_cast<int64_t>(rng() % symbols),
                   static_cast<double>(rng() % 20)});
  }
  return out;
}

std::vector<zstream::EventPtr> ToEvents(
    const std::vector<perfbench::Tick>& ticks) {
  std::vector<zstream::EventPtr> out;
  for (const perfbench::Tick& t : ticks) {
    std::string name = "S";
    if (t.key < 4) {
      name = kNames[t.key];
    } else {
      name += std::to_string(t.key);
    }
    out.push_back(zstream::EventBuilder(zstream::StockSchema())
                      .Set("id", int64_t{0})
                      .Set("name", zstream::Value(name))
                      .Set("price", t.price)
                      .Set("volume", int64_t{1})
                      .Set("ts", t.ts)
                      .At(t.ts)
                      .Build());
  }
  return out;
}

uint64_t OracleCount(const std::string& query,
                     const std::vector<perfbench::Tick>& ticks) {
  auto pattern = zstream::AnalyzeQuery(query, zstream::StockSchema());
  if (!pattern.ok()) return ~0ULL;
  auto oracle = zstream::testing::Oracle::Create(*pattern);
  if (!oracle.ok()) return ~0ULL;
  return (*oracle)->Run(ToEvents(ticks)).size();
}

// Compares a scan with the oracle; a zero count would prove nothing.
void ExpectSameCount(uint64_t scan, uint64_t oracle, const std::string& what) {
  Expect(scan == oracle && scan > 0, what + " (scan " + std::to_string(scan) +
                                         ", oracle " + std::to_string(oracle) +
                                         ")");
}

void ScansAgreeWithOracle() {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    const auto q6 = RandomTicks(seed, 160, 4);
    ExpectSameCount(perfbench::CountQuery6(q6, 30),
               OracleCount("PATTERN IBM;Sun;Oracle;Google WHERE "
                           "IBM.name='IBM' AND Sun.name='Sun' AND "
                           "Oracle.name='Oracle' AND Google.name='Google' "
                           "AND Oracle.price > Sun.price AND "
                           "Oracle.price > Google.price WITHIN 30",
                           q6),
           "Query 6 scan == oracle, seed " + std::to_string(seed));
    const auto rising = RandomTicks(seed, 200, 5);
    ExpectSameCount(perfbench::CountRisingTriples(rising, 15),
               OracleCount("PATTERN A;B;C WHERE A.name = B.name AND "
                           "B.name = C.name AND A.price < B.price AND "
                           "B.price < C.price WITHIN 15",
                           rising),
           "rising-triple scan == oracle, seed " + std::to_string(seed));
    ExpectSameCount(perfbench::CountNegation(rising, 10, 0, 1, 2),
               OracleCount("PATTERN IBM;!Sun;Oracle WHERE IBM.name='IBM' "
                           "AND Sun.name='Sun' AND Oracle.name='Oracle' "
                           "WITHIN 10",
                           rising),
           "negation scan == oracle, seed " + std::to_string(seed));
  }
}

// Runs `check` on a fresh Result; true when it accepted.
bool Accepts(const std::function<bool(perfbench::Result*)>& check) {
  perfbench::Result r;
  const bool ok = check(&r);
  return ok && r.correct;
}

void Query6CheckRejectsPerturbations() {
  const std::vector<uint64_t> shapes = {7, 7, 7, 7};
  Expect(Accepts([&](auto* r) {
           return perfbench::CheckQuery6(r, 100, 100, 7, 7, shapes);
         }),
         "q6 check accepts the true result");
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckQuery6(r, 101, 100, 7, 7, shapes);
         }),
         "q6 check rejects engine count + 1");
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckQuery6(r, 100, 100, 7, 6, shapes);
         }),
         "q6 check rejects oracle count - 1");
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckQuery6(r, 100, 100, 7, 7, {7, 8, 7, 7});
         }),
         "q6 check rejects one static shape off by one");
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckQuery6(r, 100, 100, 7, 7, {});
         }),
         "q6 check rejects no static shape");
}

void ChurnCheckRejectsPerturbations() {
  Expect(Accepts([](auto* r) { return perfbench::CheckChurn(r, 50, 50, 50, 0); }),
         "churn check accepts the true result");
  Expect(!Accepts([](auto* r) { return perfbench::CheckChurn(r, 49, 50, 50, 0); }),
         "churn check rejects runtime count - 1");
  Expect(!Accepts([](auto* r) { return perfbench::CheckChurn(r, 50, 50, 51, 0); }),
         "churn check rejects in-order count + 1");
  Expect(!Accepts([](auto* r) { return perfbench::CheckChurn(r, 50, 50, 50, 1); }),
         "churn check rejects one late-dropped event");
}

void WireCheckRejectsPerturbations() {
  const std::vector<perfbench::WireQueryCounts> good = {
      {"rising", 30, 30, 30, 30}, {"neg", 4, 4, 4, 4}};
  const auto with = [&](size_t q, int field, int delta) {
    auto v = good;
    uint64_t* f[] = {&v[q].subscriber, &v[q].flush_ack, &v[q].in_process,
                     &v[q].independent};
    *f[field] += static_cast<uint64_t>(delta);
    return v;
  };
  Expect(Accepts([&](auto* r) {
           return perfbench::CheckWire(r, 100, 100, 0, good, 0.5);
         }),
         "wire check accepts the true result");
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckWire(r, 100, 99, 0, good, 0.5);
         }),
         "wire check rejects an unacked event");
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckWire(r, 100, 100, 1, good, 0.5);
         }),
         "wire check rejects a dropped event");
  const char* fields[] = {"subscriber", "FlushAck", "in-process", "scan"};
  for (int field = 0; field < 4; ++field) {
    Expect(!Accepts([&](auto* r) {
             return perfbench::CheckWire(r, 100, 100, 0, with(1, field, 1),
                                         0.5);
           }),
           std::string("wire check rejects ") + fields[field] + " + 1");
  }
  Expect(!Accepts([&](auto* r) {
           return perfbench::CheckWire(r, 100, 100, 0, good, -0.01);
         }),
         "wire check rejects a negative latency");
}

}  // namespace

int main() {
  ScansAgreeWithOracle();
  Query6CheckRejectsPerturbations();
  ChurnCheckRejectsPerturbations();
  WireCheckRejectsPerturbations();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
