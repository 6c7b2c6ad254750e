// served_wire: a separate zstream_server process (1 shard, loopback)
// serving a partitioned rising triple over 16 long-lived symbols and a
// negation query (IBM;!Sun;Oracle). This process runs one ingest client
// and one subscriber client on its one thread: open-loop passes at a
// fixed offered rate measure detection latency, and closed-loop passes
// at maximum rate measure throughput.
//
// The only workload through net/ (encode, framing, the poll-loop server,
// fanout, client decode) and the only one whose latency includes a wire.
// It uses partitions the opposite way from keyed_churn: few keys, many
// lookups.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <sstream>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>

#include "api/zstream.h"
#include "checks.h"
#include "net/client.h"
#include "net/protocol.h"
#include "query/analyzer.h"
#include "verify/plan_verifier.h"
#include "workloads.h"

namespace perfbench {

using zstream::EventPtr;
namespace net = zstream::net;

namespace {

constexpr int64_t kWindow = 48;
constexpr char kStreamDdl[] =
    "CREATE STREAM stock (id INT, name STRING, price DOUBLE, volume INT, "
    "ts INT)";
struct ServedQuery {
  const char* name;
  const char* text;
};
constexpr ServedQuery kQueries[] = {
    {"rising",
     "PATTERN A;B;C WHERE A.name = B.name AND B.name = C.name "
     "AND A.price < B.price AND B.price < C.price WITHIN 48"},
    {"neg",
     "PATTERN IBM;!Sun;Oracle WHERE IBM.name='IBM' AND Sun.name='Sun' "
     "AND Oracle.name='Oracle' WITHIN 48"},
};
constexpr int kSymbols = 16;  // codes 0..2 are IBM, Sun, Oracle

// Closed-loop passes push kPassEvents events in frames of kFrameEvents.
constexpr size_t kPassEvents = 40000;
constexpr size_t kFrameEvents = 256;
// Open-loop passes: fixed offered rate, well below capacity.
constexpr size_t kLatencyEvents = 8000;
constexpr double kLatencyRate = 20000.0;  // events/s
// The open-loop sender sends what is due at most once per tick: one
// synchronous Ingest per event would keep it busy waiting for acks.
// The wait counts in latency.
constexpr int64_t kSendTickNs = 250000;
constexpr int kMinPasses = 3;

std::string SymbolName(int code) {
  static const char* kNamed[] = {"IBM", "Sun", "Oracle"};
  if (code < 3) return kNamed[code];
  std::string name = "S";
  name += std::to_string(code);  // not "S" + ...: GCC 12 -Wrestrict
  return name;
}

// One input: symbol codes and prices; events are materialized with a
// timestamp base so consecutive passes never share a window.
struct Values {
  std::vector<int> symbol;
  std::vector<double> price;
};

Values MakeValues(uint64_t seed, size_t n) {
  std::mt19937_64 rng(seed);
  Values v;
  for (size_t i = 0; i < n; ++i) {
    v.symbol.push_back(static_cast<int>(rng() % kSymbols));
    v.price.push_back(static_cast<double>(rng() % 1000) / 10.0);
  }
  return v;
}

std::vector<EventPtr> Materialize(const Values& v, int64_t base_ts) {
  std::vector<EventPtr> out;
  out.reserve(v.symbol.size());
  const zstream::SchemaPtr schema = zstream::StockSchema();
  for (size_t i = 0; i < v.symbol.size(); ++i) {
    const int64_t ts = base_ts + static_cast<int64_t>(i);
    out.push_back(zstream::EventBuilder(schema)
                      .Set("id", static_cast<int64_t>(i))
                      .Set("name", zstream::Value(SymbolName(v.symbol[i])))
                      .Set("price", v.price[i])
                      .Set("volume", int64_t{1})
                      .Set("ts", ts)
                      .At(ts)
                      .Build());
  }
  return out;
}

// The independent counts of both queries over one input.
std::vector<uint64_t> ScanCounts(const Values& v) {
  std::vector<Tick> ticks;
  for (size_t i = 0; i < v.symbol.size(); ++i) {
    ticks.push_back({static_cast<int64_t>(i), v.symbol[i], v.price[i]});
  }
  return {CountRisingTriples(ticks, kWindow),
          CountNegation(ticks, kWindow, 0, 1, 2)};
}

// The same input through in-process Queries.
std::vector<uint64_t> InProcessCounts(const std::vector<EventPtr>& events,
                                      Result* r) {
  zstream::ZStream zs(zstream::StockSchema());
  std::vector<uint64_t> out;
  for (const ServedQuery& q : kQueries) {
    auto query = zs.Compile(q.text);
    if (!query.ok()) {
      r->Check(false, std::string("wire in-process compile ") + q.name);
      out.push_back(~0ULL);
      continue;
    }
    for (const EventPtr& e : events) (*query)->Push(e);
    (*query)->Finish();
    out.push_back((*query)->num_matches());
  }
  return out;
}

/// The server process: started on an ephemeral loopback port, stopped
/// (SIGTERM, then SIGKILL) and reaped by the destructor.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }

  bool Start(const std::string& binary, std::string* error) {
    int fds[2];
    if (::pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::vector<std::string> args = {binary, "--port", "0", "--bind",
                                     "127.0.0.1", "--shards", "1"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ == 0) {
      // Child: the server dies with this process, however it ends.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != parent) ::_exit(127);
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      ::execv(binary.c_str(), argv.data());
      ::_exit(127);
    }
    ::close(fds[1]);
    out_fd_ = fds[0];
    if (pid_ < 0) {
      pid_ = 0;
      *error = "cannot fork for " + binary;
      return false;
    }
    // The server prints "zstream_server listening on ADDR:PORT (...)".
    std::string text;
    const int64_t deadline = NowNs() + 20000000000LL;
    while (NowNs() < deadline) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      char buf[512];
      const ssize_t n = ::read(out_fd_, buf, sizeof(buf));
      if (n <= 0) break;
      text.append(buf, static_cast<size_t>(n));
      const size_t at = text.find("listening on ");
      const size_t eol = at == std::string::npos ? at : text.find('\n', at);
      if (eol != std::string::npos) {
        const std::string addr = text.substr(at + 13, eol - at - 13);
        const size_t colon = addr.find(':');
        port_ = static_cast<uint16_t>(std::atoi(addr.c_str() + colon + 1));
        return port_ != 0;
      }
    }
    *error = "server did not report its port: " + text;
    return false;
  }

  void Stop() {
    if (pid_ > 0) {
      ::kill(pid_, SIGTERM);
      int status = 0;
      const int64_t deadline = NowNs() + 10000000000LL;
      while (::waitpid(pid_, &status, WNOHANG) == 0) {
        if (NowNs() > deadline) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          break;
        }
        ::usleep(2000);
      }
      pid_ = 0;
    }
    if (out_fd_ >= 0) {
      ::close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

  /// utime + stime of the server, nanoseconds.
  int64_t CpuNs() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
    std::string line;
    std::getline(in, line);
    const size_t close = line.rfind(')');
    if (close == std::string::npos) return -1;
    std::istringstream fields(line.substr(close + 2));
    std::string f;
    int64_t utime = 0, stime = 0;
    // Fields after the command name start at 3 (state); utime is 14.
    for (int i = 3; i <= 15 && fields >> f; ++i) {
      if (i == 14) utime = std::atoll(f.c_str());
      if (i == 15) stime = std::atoll(f.c_str());
    }
    return (utime + stime) * (1000000000LL / ::sysconf(_SC_CLK_TCK));
  }

 private:
  pid_t pid_ = 0;
  int out_fd_ = -1;
  uint16_t port_ = 0;
};

/// A subscriber built on the protocol layer, so this single thread can
/// wait on it with a nanosecond timeout while it also drives ingest.
class Subscriber {
 public:
  ~Subscriber() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return false;
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  bool Subscribe(const std::string& query) {
    std::string payload, frame;
    net::PutString(&payload, query);
    net::AppendFrame(&frame, net::MsgType::kSubscribe, 0, payload);
    if (::send(fd_, frame.data(), frame.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(frame.size())) {
      return false;
    }
    const int64_t deadline = NowNs() + 10000000000LL;
    while (NowNs() < deadline) {
      auto next = parser_.Next();
      if (!next.ok()) return false;
      if (!next->has_value()) {
        if (!Read(100000000)) return false;
        continue;
      }
      if ((*next)->header.type != net::MsgType::kSubscribeAck) return false;
      net::PayloadReader reader((*next)->payload);
      auto name = reader.ReadString();
      auto stream = reader.ReadString();
      if (!name.ok() || !stream.ok()) return false;
      auto schema = net::ReadSchema(&reader);
      if (!schema.ok()) return false;
      schemas_[*name] = *schema;
      return true;
    }
    return false;
  }

  /// Waits up to timeout_ns (0: just look) for bytes, decodes every
  /// complete match frame, and calls on_match(match, receive_ns).
  template <typename Fn>
  bool Poll(int64_t timeout_ns, Fn&& on_match) {
    if (!Read(timeout_ns)) return false;
    const int64_t now = NowNs();
    while (true) {
      auto next = parser_.Next();
      if (!next.ok()) return false;
      if (!next->has_value()) return true;
      if ((*next)->header.type != net::MsgType::kMatch) continue;
      net::PayloadReader peek((*next)->payload);
      auto name = peek.ReadString();
      if (!name.ok()) return false;
      auto schema = schemas_.find(*name);
      if (schema == schemas_.end()) return false;
      net::PayloadReader reader((*next)->payload);
      auto match = net::ReadMatch(&reader, schema->second);
      if (!match.ok()) return false;
      on_match(*match, now);
    }
  }

 private:
  // One ppoll + recv; false when the connection failed.
  bool Read(int64_t timeout_ns) {
    pollfd pfd{fd_, POLLIN, 0};
    timespec ts{static_cast<time_t>(timeout_ns / 1000000000),
                static_cast<long>(timeout_ns % 1000000000)};
    const int rc = ::ppoll(&pfd, 1, &ts, nullptr);
    if (rc < 0) return errno == EINTR;
    if (rc == 0) return true;
    char buf[64 << 10];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return false;
    parser_.Append(buf, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  net::FrameParser parser_;
  std::map<std::string, zstream::SchemaPtr> schemas_;
};

std::string BinaryDir() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return ".";
  std::string path(buf, static_cast<size_t>(n));
  return path.substr(0, path.rfind('/'));
}

int QueryIndex(const std::string& name) {
  for (size_t q = 0; q < std::size(kQueries); ++q) {
    if (name == kQueries[q].name) return static_cast<int>(q);
  }
  return -1;
}

}  // namespace

void RunServedWire(const Args& args, Result* r) {
  Spans spans;
  ServerProcess server;
  std::unique_ptr<net::Client> ingest;
  Subscriber sub;
  std::vector<double> create_ms;
  // Cold set-up, timed from process start: server start-up, both
  // connections, DDL and subscriptions.
  {
    std::string error;
    if (!server.Start(BinaryDir() + "/zstream_server", &error)) {
      r->Check(false, "wire: " + error);
      return;
    }
    auto client = net::Client::Connect("127.0.0.1", server.port());
    if (!client.ok() || !sub.Connect(server.port())) {
      r->Check(false, "wire: cannot connect to the server");
      return;
    }
    ingest = std::move(*client);
    if (!ingest->Execute(kStreamDdl).ok()) {
      r->Check(false, "wire: CREATE STREAM failed");
      return;
    }
    for (const ServedQuery& q : kQueries) {
      const int64_t t0 = NowNs();
      auto reply = ingest->Execute(std::string("CREATE QUERY ") + q.name +
                                   " ON stock AS " + q.text);
      create_ms.push_back((NowNs() - t0) / 1e6);
      if (!reply.ok()) {
        r->Check(false, "wire: CREATE QUERY " + std::string(q.name) + ": " +
                            reply.status().ToString());
        return;
      }
      if (!sub.Subscribe(q.name)) {
        r->Check(false, std::string("wire: subscribe ") + q.name);
        return;
      }
    }
  }
  const double setup_s = (NowNs() - ProcessStartNs()) / 1e9;

  const Values pass_values = MakeValues(args.seed, kPassEvents);
  const Values latency_values = MakeValues(args.seed + 7919, kLatencyEvents);
  const std::vector<uint64_t> pass_scan = ScanCounts(pass_values);
  const std::vector<uint64_t> latency_scan = ScanCounts(latency_values);
  const int64_t start = NowNs();
  const int64_t span = static_cast<int64_t>(args.seconds * 1e9);
  const int64_t deadline = start + span;

  int64_t next_base = 0;  // timestamp base of the next input
  const auto next_input = [&](const Values& v) {
    std::vector<EventPtr> events = Materialize(v, next_base);
    next_base += static_cast<int64_t>(v.symbol.size()) + 4 * kWindow;
    return events;
  };
  std::vector<uint64_t> flushed(std::size(kQueries), 0);
  // Flushes and returns each query's matches since the previous flush.
  const auto flush_delta = [&](std::vector<uint64_t>* delta) {
    Scoped sp(&spans, "net.Client::Flush");
    auto ack = ingest->Flush();
    if (!ack.ok()) return false;
    delta->assign(std::size(kQueries), 0);
    for (const auto& [name, total] : ack->queries) {
      const int q = QueryIndex(name);
      if (q < 0) continue;
      (*delta)[static_cast<size_t>(q)] = total - flushed[static_cast<size_t>(q)];
      flushed[static_cast<size_t>(q)] = total;
    }
    return true;
  };
  uint64_t sent = 0, acked = 0, dropped = 0;
  std::vector<WireQueryCounts> checks;
  const auto record_check = [&](const std::vector<uint64_t>& received,
                                const std::vector<uint64_t>& acks,
                                const std::vector<uint64_t>& in_process,
                                const std::vector<uint64_t>& scan) {
    for (size_t q = 0; q < std::size(kQueries); ++q) {
      checks.push_back({kQueries[q].name, received[q], acks[q], in_process[q],
                        scan[q]});
    }
  };
  const auto ingest_batch = [&](const std::vector<EventPtr>& batch) {
    sent += batch.size();
    auto ack = ingest->Ingest("stock", batch, kFrameEvents);
    if (!ack.ok()) return false;
    acked += ack->accepted;
    dropped += ack->dropped;
    return true;
  };

  // Open-loop pass. Events are sent when due; a match's latency runs
  // from the due time of its last event to the subscriber decoding it.
  LatencyLog latency;
  std::vector<double> lag_ms;
  std::vector<uint64_t> latency_in_process;
  const auto latency_pass = [&] {
    latency.NewPass();
    const std::vector<EventPtr> events = next_input(latency_values);
    if (latency_in_process.empty()) {
      latency_in_process = InProcessCounts(events, r);
    }
    const int64_t base_ts = events.front()->timestamp();
    const int64_t t0 = NowNs() + 2000000;
    const double ns_per_event = 1e9 / kLatencyRate;
    const auto due = [&](size_t idx) {
      return t0 + static_cast<int64_t>(static_cast<double>(idx) * ns_per_event);
    };
    std::vector<uint64_t> received(std::size(kQueries), 0);
    const auto on_match = [&](const net::NetMatch& m, int64_t now) {
      const int q = QueryIndex(m.query);
      if (q >= 0) ++received[static_cast<size_t>(q)];
      int64_t last_ts = 0;
      for (const EventPtr& e : m.match.slots) {
        if (e != nullptr) last_ts = std::max(last_ts, e->timestamp());
      }
      latency.Add((now - due(static_cast<size_t>(last_ts - base_ts))) / 1e6);
    };
    size_t i = 0;
    std::vector<EventPtr> batch;
    bool ok = true;
    int64_t next_send = 0;
    while (ok && i < events.size()) {
      const int64_t now = NowNs();
      const int64_t send_at = std::max(due(i), next_send);
      if (send_at > now) {
        ok = sub.Poll(send_at - now, on_match);
        continue;
      }
      next_send = now + kSendTickNs;
      batch.clear();
      size_t j = i;
      while (j < events.size() && due(j) <= now) batch.push_back(events[j++]);
      lag_ms.push_back((now - due(i)) / 1e6);
      ok = ingest_batch(batch);
      i = j;
    }
    std::vector<uint64_t> delta;
    ok = ok && flush_delta(&delta);
    const uint64_t expected = ok ? delta[0] + delta[1] : 0;
    const int64_t wait_until = NowNs() + 20000000000LL;
    while (ok && received[0] + received[1] < expected && NowNs() < wait_until) {
      ok = sub.Poll(100000000, on_match);
    }
    r->Check(ok, "wire latency pass: connection failed");
    record_check(received, delta, latency_in_process, latency_scan);
  };

  // Closed-loop passes at maximum rate: frames back to back, the
  // subscriber drained between frames, then a flush; a pass ends when
  // the subscriber holds every match.
  std::vector<double> eps, traced_eps;
  int64_t client_cpu = 0, server_cpu = 0, closed_events = 0;
  int pass = 0;
  std::vector<uint64_t> pass_in_process;
  while (NowNs() < deadline || pass < kMinPasses ||
         latency.Due(start, span)) {
    if (latency.Due(start, span)) {
      latency_pass();
      continue;
    }
    const bool traced = args.trace && pass % 2 == 1;
    const std::vector<EventPtr> events = next_input(pass_values);
    if (pass == 0) pass_in_process = InProcessCounts(events, r);
    std::vector<uint64_t> received(std::size(kQueries), 0);
    const auto on_match = [&](const net::NetMatch& m, int64_t) {
      const int q = QueryIndex(m.query);
      if (q >= 0) ++received[static_cast<size_t>(q)];
    };
    spans.set_enabled(traced);
    const int64_t c0 = ThreadCpuNs();
    const int64_t s0 = server.CpuNs();
    const int64_t t0 = NowNs();
    bool ok = true;
    std::vector<EventPtr> frame;
    for (size_t i = 0; ok && i < events.size(); i += kFrameEvents) {
      frame.assign(events.begin() + static_cast<ptrdiff_t>(i),
                   events.begin() + static_cast<ptrdiff_t>(
                                        std::min(events.size(), i + kFrameEvents)));
      {
        Scoped sp(&spans, "net.Client::Ingest");
        ok = ingest_batch(frame);
      }
      ok = ok && sub.Poll(0, on_match);
    }
    std::vector<uint64_t> delta;
    ok = ok && flush_delta(&delta);
    const uint64_t expected = ok ? delta[0] + delta[1] : 0;
    const int64_t wait_until = NowNs() + 20000000000LL;
    while (ok && received[0] + received[1] < expected && NowNs() < wait_until) {
      ok = sub.Poll(100000000, on_match);
    }
    const int64_t ns = NowNs() - t0;
    spans.set_enabled(false);
    r->Check(ok, "wire pass: connection failed");
    if (!ok) break;
    if (!traced) {
      client_cpu += ThreadCpuNs() - c0;
      server_cpu += server.CpuNs() - s0;
      closed_events += static_cast<int64_t>(events.size());
    }
    record_check(received, delta, pass_in_process, pass_scan);
    (traced ? traced_eps : eps).push_back(events.size() / (ns / 1e9));
    ++pass;
  }
  r->attempted = sent;
  const int64_t server_hwm = PeakRssBytes(server.pid());
  CheckWire(r, sent, acked, dropped, checks, latency.min());

  if (!args.trace) {
    server.Stop();
    r->Add("events_per_s", Median(eps), "events/s");
    r->Add("setup_s", setup_s, "s");
    r->Add("peak_rss_mb", server_hwm / 1048576.0, "MB");
    r->Add("detect_p50_ms", latency.Percentile(0.50), "ms");
    r->Add("detect_p99_ms", latency.Percentile(0.99), "ms");
    return;
  }

  // Protocol encode and decode of the pass input, in process.
  const std::vector<EventPtr> events = Materialize(pass_values, 0);
  std::vector<double> encode_ns, decode_ns;
  size_t bytes = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::string wire;
    const int64_t e0 = NowNs();
    for (size_t i = 0; i < events.size(); i += kFrameEvents) {
      std::string payload;
      net::AppendEventBatch(&payload, "stock", events, i,
                            std::min(kFrameEvents, events.size() - i));
      net::AppendFrame(&wire, net::MsgType::kEventBatch, 0, payload);
    }
    encode_ns.push_back(static_cast<double>(NowNs() - e0) / events.size());
    bytes = wire.size();
    const int64_t d0 = NowNs();
    net::FrameParser parser;
    parser.Append(wire.data(), wire.size());
    size_t decoded = 0;
    while (true) {
      auto next = parser.Next();
      if (!next.ok() || !next->has_value()) break;
      net::PayloadReader reader((*next)->payload);
      (void)reader.ReadString();
      (void)reader.ReadU64();
      auto count = reader.ReadU32();
      for (uint32_t k = 0; count.ok() && k < *count; ++k) {
        if (net::ReadEvent(&reader, zstream::StockSchema()).ok()) ++decoded;
      }
    }
    decode_ns.push_back(static_cast<double>(NowNs() - d0) / events.size());
    r->Check(decoded == events.size(), "wire: decode lost events");
  }
  // Analyze, plan and verify of the served queries, in process.
  for (int rep = 0; rep < 10; ++rep) {
    spans.set_enabled(true);
    for (const ServedQuery& q : kQueries) {
      zstream::PatternPtr pattern;
      {
        Scoped sp(&spans, "query.AnalyzeQuery");
        pattern = *zstream::AnalyzeQuery(q.text, zstream::StockSchema());
      }
      zstream::PhysicalPlan plan;
      {
        Scoped sp(&spans, "opt.BuildPlan");
        plan = *zstream::BuildPlan(pattern, {});
      }
      Scoped sp(&spans, "verify.VerifyPlan");
      r->Check(zstream::verify::VerifyPlan(*pattern, plan).ok(),
               "wire: plan verification failed");
    }
    spans.set_enabled(false);
  }
  server.Stop();

  const auto summary = spans.Summarize();
  const auto median_of = [&](const char* name, double scale) {
    auto it = summary.find(name);
    if (it == summary.end()) return 0.0;
    std::vector<double> d;
    for (int64_t ns : it->second.durations) d.push_back(ns / scale);
    return Median(d);
  };
  std::map<std::string, double> m;
  m["query.analyze_ms"] = median_of("query.AnalyzeQuery", 1e6);
  m["opt.plan_ms"] = median_of("opt.BuildPlan", 1e6);
  m["verify.plan_ms"] = median_of("verify.VerifyPlan", 1e6);
  m["exec.create_ms"] = Median(create_ms);
  m["net.encode_ns_per_event"] = Median(encode_ns);
  m["net.decode_ns_per_event"] = Median(decode_ns);
  m["net.bytes_per_event"] = static_cast<double>(bytes) / events.size();
  m["net.ingest_rtt_us"] = median_of("net.Client::Ingest", 1e3);
  m["net.flush_ms"] = median_of("net.Client::Flush", 1e6);
  m["net.server_cpu_ms_per_kevent"] =
      closed_events > 0 ? server_cpu / 1e6 / (closed_events / 1e3) : 0.0;
  m["net.client_cpu_ms_per_kevent"] =
      closed_events > 0 ? client_cpu / 1e6 / (closed_events / 1e3) : 0.0;
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
