// Independent reference counts and the correctness checks built on
// them. Nothing here calls into src/exec/: each count is a direct scan
// of the generated input, so a fault in operator assembly, partitioning
// or the wire cannot agree with it by accident.
#ifndef ZSTREAM_PERFBENCH_CHECKS_H_
#define ZSTREAM_PERFBENCH_CHECKS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// The fields of one stock event a reference scan needs, in timestamp
/// order (timestamps strictly increasing).
struct Tick {
  int64_t ts = 0;
  int64_t key = 0;  // symbol code or partition key
  double price = 0.0;
};

/// Query 6: IBM;Sun;Oracle;Google with Oracle.price > Sun.price and
/// Oracle.price > Google.price, last minus first timestamp <= window.
/// `key` holds the symbol: 0 IBM, 1 Sun, 2 Oracle, 3 Google.
uint64_t CountQuery6(const std::vector<Tick>& ticks, int64_t window);

/// A;B;C of one key with strictly rising price, span <= window.
/// `ticks` may interleave keys; it must be in timestamp order.
uint64_t CountRisingTriples(const std::vector<Tick>& ticks, int64_t window);

/// IBM;!Sun;Oracle: (IBM, Oracle) pairs within the window with no Sun
/// strictly between. `key` holds the symbol code; the three codes are
/// passed in.
uint64_t CountNegation(const std::vector<Tick>& ticks, int64_t window,
                       int64_t ibm, int64_t sun, int64_t oracle);

/// q6_adaptive: the adaptive engine's count on the full input against
/// the scan, and on a prefix every static shape and the brute-force
/// oracle against the scan of that prefix.
bool CheckQuery6(Result* r, uint64_t engine_count, uint64_t scan_count,
                 uint64_t prefix_scan, uint64_t prefix_oracle,
                 const std::vector<uint64_t>& prefix_shapes);

/// keyed_churn: the runtime's count against the generator's per-key
/// session count and an in-order single-engine run, with nothing
/// late-dropped.
bool CheckChurn(Result* r, uint64_t runtime_count, uint64_t session_count,
                uint64_t in_order_count, uint64_t late_dropped);

/// One served query's counts on one pass.
struct WireQueryCounts {
  std::string name;
  uint64_t subscriber = 0;  // matches the subscriber client received
  uint64_t flush_ack = 0;   // the server's FlushAck total
  uint64_t in_process = 0;  // the same input through an in-process Query
  uint64_t independent = 0; // the reference scan
};

/// served_wire: every event acked, none dropped, each query's four
/// counts equal, no negative detection latency.
bool CheckWire(Result* r, uint64_t sent, uint64_t acked, uint64_t dropped,
               const std::vector<WireQueryCounts>& queries,
               double min_latency_ms);

}  // namespace perfbench

#endif  // ZSTREAM_PERFBENCH_CHECKS_H_
