// Copyright (c) endure-cpp authors. Licensed under the MIT license.
//
// perfbench: the repository benchmark. One process per run deploys an
// Endure-tuned, durable, 4-shard ShardedDB (file backend, block cache
// on) behind an in-process net::Server on loopback and drives a seeded
// *observed* mix through net::Client from 3 connections:
//
//   set-up   RobustTuner::Tune -> bridge::OpenTunedShardedDb (bulk load)
//            -> net::Server::Start -> warm-up; repeated, median reported
//   closed   rounds of fixed work in pipelined bursts of 16 per
//            connection; median round                  -> throughput
//   drain    WaitForMaintenance + syncfs, so the open loop does not pay
//            the closed loop's maintenance and I/O debt
//   open     rounds of one request at a time per connection on a fixed
//            schedule, timed from each request's due time -> latencies
//   recovery kill (CrashForTesting) -> reopen -> first correct GET; full
//            dump checked against every acked write; quiesce -> space
//            amplification; then timed kill cycles, median reported
//
// Every answer is checked by the oracle (oracle.h). `--trace 1` runs the
// same lifecycle with spans around each call into a layer, replays the
// trace directly against ShardedDB on an identically set-up deployment,
// runs the page-store and WAL probes, and reports per-layer metrics.
// README.md documents workloads, metrics and how to read the output.
//
// Usage: perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --dir SCRATCH_DIR [--out-dir DIR] [--commit SHA]

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bridge/tuned_db.h"
#include "core/cost_model.h"
#include "core/kl.h"
#include "core/robust_tuner.h"
#include "loadgen.h"
#include "lsm/page_store.h"
#include "lsm/sharded_db.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "spans.h"
#include "util/wal.h"

namespace perfbench {
namespace {

using endure::Status;
using endure::Tuning;
using endure::TuningResult;
using endure::Workload;
namespace fs = std::filesystem;

constexpr int kConns = 3;            // client connections, one thread each
constexpr int kShards = 4;           // ShardedDB shards
constexpr uint64_t kDepth = 16;      // closed-loop pipeline depth
constexpr int kSetupRepeats = 3;     // set-ups per run (median reported)
constexpr int kClosedRounds = 10;    // closed-loop windows (median reported)
constexpr int kOpenRounds = 5;       // open-loop windows (median reported)
constexpr double kClosedShare = 0.5; // share of --seconds in closed loop
constexpr int kRecoveryCycles = 15;  // kills after quiesce (median reported)
constexpr uint64_t kBurstOps = 512;  // acked PUTs before each of those kills
constexpr uint64_t kUserBytesPerEntry = 16;  // 8-byte key + 8-byte value

struct WorkloadSpec {
  const char* name;
  Workload expected;           ///< what the deployment is tuned for
  double rho;                  ///< KL radius of the robust tuning
  TrafficSpec closed;          ///< closed-loop traffic (before a switch)
  TrafficSpec open;            ///< open-loop traffic (after a switch)
  uint64_t entries;            ///< preloaded entries
  /// kPerBatch fsyncs inside every commit (zero loss on machine crash);
  /// kBackground fsyncs every 10 ms off the request path. Both lose no
  /// acked write on a process kill, which is what the oracle checks.
  endure::WalSyncMode sync_mode;
  uint64_t block_cache_bytes;
  uint64_t memory_budget_bytes;  ///< > cache turns the arbiter on
  double open_rate;            ///< open-loop ops/s across connections
  /// Nominal closed-loop ops/s on the reference machine (README.md); it
  /// sizes the closed loop's fixed work to about the closed share of
  /// --seconds there.
  double closed_rate;
  /// drift: closed loop switches from `closed` to `open` traffic at this
  /// op index per connection and sends one ApplyTuning for `retune`.
  uint64_t switch_ops = 0;
  Workload retune_expected = Workload();
  double retune_rho = 0;
};

const Workload kW11(0.33, 0.33, 0.33, 0.01);
const Workload kWriteExpected(0.25, 0.05, 0.05, 0.65);
const TrafficSpec kReadMixTraffic{Workload(0.20, 0.45, 0.30, 0.05), 0, false};
const TrafficSpec kWriteTraffic{Workload(0.15, 0.05, 0.05, 0.75), 0, true};

std::vector<WorkloadSpec> Workloads() {
  using endure::WalSyncMode;
  const TrafficSpec hot{Workload(0.05, 0.90, 0.0, 0.05), 0.99, false};
  return {
      {"read_mix_uncached", kW11, 1.0, kReadMixTraffic, kReadMixTraffic,
       1000000, WalSyncMode::kBackground, 3 << 19, 0, 8000, 70000},
      {"hot_read_cached", Workload(0.05, 0.85, 0.05, 0.05), 0.5, hot, hot,
       200000, WalSyncMode::kBackground, 32 << 20, 0, 12000, 130000},
      {"write_heavy_durable", kWriteExpected, 1.0, kWriteTraffic,
       kWriteTraffic, 500000, WalSyncMode::kPerBatch, 3 << 19, 0, 800,
       15000},
      {"drift_retune", kW11, 1.0, kReadMixTraffic, kWriteTraffic, 1000000,
       WalSyncMode::kBackground, 3 << 19, 4 << 20, 3000, 150000, 16 * 1024,
       kWriteExpected, 1.0},
  };
}

// ------------------------------------------------------------ utilities --

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string dir;
  std::string out_dir;
  std::string commit = "unknown";
};

/// Progress note on stderr: seconds since start and the phase reached.
void Phase(const char* what) {
  static const uint64_t start = NowNs();
  std::fprintf(stderr, "perfbench: [%6.2fs] %s\n",
               static_cast<double>(NowNs() - start) / 1e9, what);
}

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(2);
}

void CheckOk(const Status& st, const char* what) {
  if (!st.ok()) Die(std::string(what) + ": " + st.ToString());
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::atoi(v.c_str());
    } else if (flag == "--trace") {
      a.trace = v == "1";
    } else if (flag == "--dir") {
      a.dir = v;
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--commit") {
      a.commit = v;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (a.workload.empty() || a.dir.empty() || a.seconds < 1) {
    Die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "--dir SCRATCH_DIR [--out-dir DIR] [--commit SHA]");
  }
  return a;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Flushes the file system holding `dir` (data, journal and the discards
/// of deleted files), so the I/O debt of one phase is not paid inside
/// the next one's measurement.
void SyncFileSystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

uint64_t DirBytes(const std::string& dir) {
  uint64_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return bytes;
}

/// Keeps every CPU busy at idle priority while it lives. On a virtual
/// machine a vCPU with nothing to run halts, and waking it again costs
/// the hypervisor's scheduling latency, which would then dominate (and
/// randomise) every loopback round trip and thread hand-off the
/// benchmark times. SCHED_IDLE threads run only when no other thread
/// wants the CPU and are preempted at once when one does, so they take
/// no time from the program — they only stop the vCPUs from halting.
class IdleSpinners {
 public:
  IdleSpinners() {
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned i = 0; i < n; ++i) {
      threads_.emplace_back([this]() {
        sched_param param{};
        if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// Aggregate CPU time from /proc/stat, in clock ticks: all of it, and
/// the part the hypervisor gave to other guests (steal).
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0],
                  &v[1], &v[2], &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

double PeakRssMiB() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

uint64_t ReqId(int conn, uint64_t k) {
  return (static_cast<uint64_t>(conn + 1) << 40) | k;
}

const char* SpanName(OpKind k, bool client) {
  switch (k) {
    case OpKind::kGetEmpty:
    case OpKind::kGetHit:
      return client ? "client.get" : "lsm.get";
    case OpKind::kScan:
      return client ? "client.scan" : "lsm.scan";
    case OpKind::kPut:
      return client ? "client.put" : "lsm.put";
  }
  return "?";
}

// -------------------------------------------------------------- oracle --

/// Per-connection outcome tallies.
struct Tally {
  uint64_t attempted = 0;
  uint64_t acked = 0;
  uint64_t failed = 0;  ///< non-OK status or wrong answer
  uint64_t wrong = 0;   ///< wrong answers (also in failed)
  std::string first_wrong;

  void Add(const Tally& o) {
    attempted += o.attempted;
    acked += o.acked;
    failed += o.failed;
    wrong += o.wrong;
    if (first_wrong.empty()) first_wrong = o.first_wrong;
  }
};

/// Judges one op's outcome; returns true when it succeeded and was right.
bool Judge(Oracle* oracle, int conn, const Op& op, const Status& st,
           std::optional<uint64_t> value, const std::vector<KV>* entries,
           Tally* t) {
  ++t->attempted;
  if (!st.ok()) {
    ++t->failed;
    if (op.kind == OpKind::kPut) oracle->OnPutUnknown(conn, op.key);
    return false;
  }
  std::string why;
  bool right = true;
  switch (op.kind) {
    case OpKind::kPut:
      oracle->OnPutAck(conn, op.key, op.arg);
      break;
    case OpKind::kGetEmpty:
    case OpKind::kGetHit:
      right = oracle->CheckGet(conn, op.key, value, &why);
      break;
    case OpKind::kScan:
      right = oracle->CheckScan(conn, op.key, op.arg, *entries, &why);
      break;
  }
  if (!right) {
    ++t->failed;
    ++t->wrong;
    if (t->first_wrong.empty()) t->first_wrong = why;
    return false;
  }
  ++t->acked;
  return true;
}

/// Runs ops[begin, end) as one pipeline and judges every result.
void RunBurst(endure::net::Client* client, Oracle* oracle, int conn,
              const std::vector<Op>& ops, size_t begin, size_t end,
              Tally* t) {
  auto pipe = client->NewPipeline();
  for (size_t i = begin; i < end; ++i) {
    const Op& op = ops[i];
    switch (op.kind) {
      case OpKind::kGetEmpty:
      case OpKind::kGetHit:
        pipe.Get(op.key);
        break;
      case OpKind::kScan:
        pipe.Scan(op.key, op.arg);
        break;
      case OpKind::kPut:
        pipe.Put(op.key, op.arg);
        break;
    }
  }
  auto res = pipe.Execute();
  for (size_t i = begin; i < end; ++i) {
    if (!res.ok()) {
      Judge(oracle, conn, ops[i], res.status(), std::nullopt, nullptr, t);
      continue;
    }
    const endure::net::PipelineResult& r = (*res)[i - begin];
    Judge(oracle, conn, ops[i], r.status, r.value, &r.entries, t);
  }
}

/// One blocking client call for an open-loop op.
bool RunOne(endure::net::Client* client, Oracle* oracle, int conn,
            const Op& op, Tally* t) {
  switch (op.kind) {
    case OpKind::kGetEmpty:
    case OpKind::kGetHit: {
      auto r = client->Get(op.key);
      return Judge(oracle, conn, op, r.status(),
                   r.ok() ? *r : std::nullopt, nullptr, t);
    }
    case OpKind::kScan: {
      auto r = client->Scan(op.key, op.arg);
      const std::vector<KV> empty;
      return Judge(oracle, conn, op, r.status(), std::nullopt,
                   r.ok() ? &*r : &empty, t);
    }
    case OpKind::kPut:
      return Judge(oracle, conn, op, client->Put(op.key, op.arg),
                   std::nullopt, nullptr, t);
  }
  return false;
}

/// The same op applied directly to the engine (replica replay).
bool RunDirect(endure::lsm::ShardedDB* db, Oracle* oracle, int conn,
               const Op& op, Tally* t) {
  switch (op.kind) {
    case OpKind::kGetEmpty:
    case OpKind::kGetHit:
      return Judge(oracle, conn, op, Status::OK(), db->Get(op.key), nullptr,
                   t);
    case OpKind::kScan: {
      auto r = db->Scan(op.key, op.arg);
      std::vector<KV> kv;
      if (r.ok()) {
        for (const auto& e : *r) kv.emplace_back(e.key, e.value);
      }
      return Judge(oracle, conn, op, r.status(), std::nullopt, &kv, t);
    }
    case OpKind::kPut:
      return Judge(oracle, conn, op, db->Put(op.key, op.arg), std::nullopt,
                   nullptr, t);
  }
  return false;
}

/// Durability oracle over a full dump of the deployment.
void CheckDump(endure::lsm::ShardedDB* db, const Oracle& oracle,
               Tally* t) {
  auto all = db->Scan(0, UINT64_MAX);
  CheckOk(all.status(), "full-state scan");
  std::vector<KV> kv;
  kv.reserve(all->size());
  for (const auto& e : *all) kv.emplace_back(e.key, e.value);
  std::string why;
  if (!oracle.CheckFullState(kv, &why)) {
    ++t->failed;
    ++t->wrong;
    if (t->first_wrong.empty()) t->first_wrong = "after reopen: " + why;
  }
}

// ----------------------------------------------------------- deployment --

struct ConnTrace {
  std::vector<Op> closed;  ///< kClosedRounds equal slices
  std::vector<Op> open;    ///< kOpenRounds equal slices
  std::vector<Op> burst;   ///< PUTs before each recovery kill (conn 0)
};

endure::SystemConfig PaperConfig() { return endure::SystemConfig(); }

struct Deployment {
  std::string dir;
  Tuning tuning;
  int tune_evals = 0;
  std::unique_ptr<endure::lsm::ShardedDB> db;
  std::unique_ptr<endure::net::Server> server;  // null for the replica
};

endure::StatusOr<std::unique_ptr<endure::lsm::ShardedDB>> OpenDb(
    const WorkloadSpec& spec, const Tuning& t, const std::string& dir) {
  return endure::bridge::OpenTunedShardedDb(
      PaperConfig(), t, spec.entries, kShards,
      /*background_maintenance=*/true, endure::lsm::StorageBackend::kFile,
      dir, spec.sync_mode, spec.block_cache_bytes, spec.memory_budget_bytes);
}

std::unique_ptr<endure::net::Server> StartServer(endure::lsm::ShardedDB* db) {
  auto server_or = endure::net::Server::Start(db, endure::net::ServerOptions());
  CheckOk(server_or.status(), "Server::Start");
  return std::move(server_or).value();
}

std::unique_ptr<endure::net::Client> Connect(uint16_t port) {
  endure::net::ClientOptions opts;
  opts.port = port;
  auto client_or = endure::net::Client::Connect(opts);
  CheckOk(client_or.status(), "Client::Connect");
  return std::move(client_or).value();
}

/// Keys read by the warm-up: every key of the cache-resident (Zipfian)
/// workload, so its cache starts full rather than filling through the
/// measurement; else an evenly spaced sample of 8192.
std::vector<uint64_t> WarmupKeys(const WorkloadSpec& spec) {
  const bool zipf = spec.closed.zipf_s > 0;
  const uint64_t n = zipf ? spec.entries : std::min<uint64_t>(8192, spec.entries);
  const uint64_t stride = spec.entries / n;
  std::vector<uint64_t> keys;
  keys.reserve(n);
  for (uint64_t i = 0; i < n; ++i) keys.push_back(2 * i * stride);
  return keys;
}

/// One full set-up: tune, open + bulk load, start the server (unless
/// `replica`), warm up with GETs through the path the traffic takes,
/// answers judged by `oracle`. Returns the set-up's wall time in seconds.
double SetUp(const WorkloadSpec& spec, const std::string& dir, bool replica,
             SpanLog* log, Deployment* d, Oracle* oracle) {
  fs::remove_all(dir);
  d->dir = dir;
  const uint64_t t0 = NowNs();
  ScopedSpan setup_span(log, "bench.setup");
  {
    ScopedSpan s(log, "core.tune");
    const endure::SystemConfig cfg = PaperConfig();
    const endure::CostModel model(cfg);
    const TuningResult r = endure::RobustTuner(model).Tune(spec.expected,
                                                           spec.rho);
    d->tuning = r.tuning;
    d->tune_evals = r.evaluations;
  }
  {
    ScopedSpan s(log, "bridge.open_load");
    auto db_or = OpenDb(spec, d->tuning, dir);
    CheckOk(db_or.status(), "OpenTunedShardedDb");
    d->db = std::move(db_or).value();
  }
  if (!replica) {
    ScopedSpan s(log, "net.server_start");
    d->server = StartServer(d->db.get());
  }
  {
    ScopedSpan s(log, "bench.warmup");
    std::vector<Op> reads;
    for (uint64_t k : WarmupKeys(spec)) reads.push_back({k, 0, OpKind::kGetHit});
    Tally tally;
    std::unique_ptr<endure::net::Client> client;
    if (!replica) client = Connect(d->server->port());
    for (size_t i = 0; i < reads.size(); i += 64) {
      const size_t end = std::min(reads.size(), i + 64);
      if (!replica) {
        RunBurst(client.get(), oracle, 0, reads, i, end, &tally);
        continue;
      }
      for (size_t j = i; j < end; ++j) {
        RunDirect(d->db.get(), oracle, 0, reads[j], &tally);
      }
    }
    if (tally.failed > 0) Die("warm-up read a wrong value: " + tally.first_wrong);
  }
  return static_cast<double>(NowNs() - t0) / 1e9;
}

void TearDown(Deployment* d) {
  if (d->server != nullptr) d->server->Shutdown();
  d->server.reset();
  d->db.reset();
  fs::remove_all(d->dir);
}

endure::net::TuningWire WireFor(const WorkloadSpec& spec, const Tuning& t) {
  const endure::lsm::Options o = endure::bridge::MakeOptions(
      PaperConfig(), t, spec.entries, endure::lsm::StorageBackend::kFile,
      kShards, true);
  endure::net::TuningWire w;
  w.size_ratio = static_cast<uint32_t>(o.size_ratio);
  w.policy = static_cast<uint8_t>(o.policy);
  w.filter_allocation = static_cast<uint8_t>(o.filter_allocation);
  w.buffer_entries = o.buffer_entries;
  w.filter_bits_per_entry = o.filter_bits_per_entry;
  return w;
}

// --------------------------------------------------------------- traces --

/// Closed-loop ops per connection per round, a whole number of bursts.
uint64_t ClosedOpsPerRound(const WorkloadSpec& spec, int seconds) {
  const double ops = spec.closed_rate * seconds * kClosedShare /
                     kClosedRounds / kConns;
  return std::max<uint64_t>(1, static_cast<uint64_t>(ops / kDepth)) * kDepth;
}

/// Open-loop ops per connection per round: the rate times the round's
/// share of the run, but at least enough that the p99 over all rounds is
/// defined for GET and PUT (>= 1000 samples each, with margin).
uint64_t OpenOpsPerRound(const WorkloadSpec& spec, int seconds) {
  const Workload& m = spec.open.mix;
  const double rarest = std::min(m.z0 + m.z1, m.w);
  const double needed = 1300.0 / rarest / kOpenRounds;
  const double by_time =
      spec.open_rate * seconds * (1 - kClosedShare) / kOpenRounds;
  const uint64_t total =
      static_cast<uint64_t>(std::ceil(std::max(needed, by_time)));
  return (total + kConns - 1) / kConns;
}

std::vector<ConnTrace> GenerateTraces(const WorkloadSpec& spec,
                                      const KeySpace& ks, uint64_t seed,
                                      int seconds) {
  std::unique_ptr<ZipfSampler> zipf;
  if (spec.closed.zipf_s > 0) {
    zipf = std::make_unique<ZipfSampler>(spec.entries, spec.closed.zipf_s);
  }
  const uint64_t closed_per_conn =
      ClosedOpsPerRound(spec, seconds) * kClosedRounds;
  const uint64_t open_per_conn = OpenOpsPerRound(spec, seconds) * kOpenRounds;
  std::vector<ConnTrace> traces(kConns);
  Phase("generating traces");
  for (int c = 0; c < kConns; ++c) {
    SplitMix64 rng(seed * 0x100000001b3ull + static_cast<uint64_t>(c) + 1);
    ConnCursor cursor;
    ConnTrace& t = traces[c];
    if (spec.switch_ops > 0) {
      GenerateOps(spec.closed, ks, c, spec.switch_ops, zipf.get(), &rng,
                  &cursor, &t.closed);
      GenerateOps(spec.open, ks, c,
                  std::max(closed_per_conn, spec.switch_ops) - spec.switch_ops,
                  zipf.get(), &rng, &cursor, &t.closed);
    } else {
      GenerateOps(spec.closed, ks, c, closed_per_conn, zipf.get(), &rng,
                  &cursor, &t.closed);
    }
    GenerateOps(spec.open, ks, c, open_per_conn, zipf.get(), &rng, &cursor,
                &t.open);
    if (c == 0) {
      TrafficSpec writes = spec.open;
      writes.mix = Workload(0, 0, 0, 1);
      GenerateOps(writes, ks, c, kRecoveryCycles * kBurstOps, zipf.get(),
                  &rng, &cursor, &t.burst);
    }
  }
  return traces;
}

// --------------------------------------------------------------- phases --

struct ClosedResult {
  Tally tally;
  double seconds = 0;
  /// Traced runs: ops and busy time of traced and of untraced bursts.
  uint64_t traced_ops = 0, traced_ns = 0, untraced_ops = 0, untraced_ns = 0;
};

/// One closed-loop round: each connection sends the next `count` ops of
/// its closed trace, from (*next)[c] on, in pipelined bursts (for drift,
/// connection 0 first sends the ApplyTuning when it reaches the switch
/// index and stores the time of its ack in *apply_ack). A round is a
/// fixed amount of work; its throughput is that work over its duration.
ClosedResult RunClosed(const WorkloadSpec& spec,
                       std::vector<std::unique_ptr<endure::net::Client>>* clients,
                       const std::vector<ConnTrace>& traces, Oracle* oracle,
                       size_t count, std::vector<size_t>* next,
                       const endure::net::TuningWire* retune,
                       std::atomic<uint64_t>* apply_ack,
                       const std::vector<SpanLog*>& logs) {
  ClosedResult out;
  std::vector<Tally> tallies(kConns);
  std::vector<uint64_t> tr_ns(kConns), tr_ops(kConns), un_ns(kConns),
      un_ops(kConns);
  std::atomic<bool> apply_failed{false};
  const uint64_t start = NowNs();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c]() {
      SpanLog* log = logs[c];
      endure::net::Client* client = (*clients)[c].get();
      const std::vector<Op>& ops = traces[c].closed;
      size_t i = (*next)[c];
      const size_t end = i + count;
      for (uint64_t burst = 0; i < end; ++burst) {
        if (c == 0 && retune != nullptr && i == spec.switch_ops) {
          ScopedSpan s(log, "client.apply_tuning");
          if (!client->ApplyTuning(*retune).ok()) apply_failed = true;
          *apply_ack = NowNs();
        }
        // Traced runs alternate traced and untraced bursts: the ratio of
        // their rates is the tracing overhead.
        const bool traced = log != nullptr && burst % 2 == 0;
        const uint64_t t0 = NowNs();
        {
          ScopedSpan s(traced ? log : nullptr, "client.pipeline",
                       ReqId(c, i));
          RunBurst(client, oracle, c, ops, i, i + kDepth, &tallies[c]);
        }
        const uint64_t dt = NowNs() - t0;
        (traced ? tr_ns : un_ns)[c] += dt;
        (traced ? tr_ops : un_ops)[c] += kDepth;
        i += kDepth;
      }
      (*next)[c] = i;
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = static_cast<double>(NowNs() - start) / 1e9;
  if (apply_failed) Die("ApplyTuning failed");
  for (int c = 0; c < kConns; ++c) {
    out.tally.Add(tallies[c]);
    out.traced_ns += tr_ns[c];
    out.traced_ops += tr_ops[c];
    out.untraced_ns += un_ns[c];
    out.untraced_ops += un_ops[c];
  }
  return out;
}

struct OpenResult {
  Tally tally;
  std::vector<double> lat[kNumOpKinds];  ///< per op kind, us from due
  std::vector<double> lag_us;
};

/// One open-loop window: each connection sends open ops [begin,
/// begin+count) of its trace one request at a time on a fixed schedule
/// (rate/conns per connection, staggered across connections).
/// `execute(conn, op, k, tally)` runs op k and returns whether it
/// succeeded and was right; a failed op counts as missing every limit.
OpenResult RunOpen(const WorkloadSpec& spec,
                   const std::vector<ConnTrace>& traces, size_t begin,
                   size_t count,
                   const std::function<bool(int, const Op&, uint64_t,
                                            Tally*)>& execute) {
  OpenResult out;
  const uint64_t interval =
      static_cast<uint64_t>(1e9 * kConns / spec.open_rate);
  const uint64_t start = NowNs() + 1000000;  // 1 ms to line up threads
  std::vector<Tally> tallies(kConns);
  std::vector<OpenLoopResult> results(kConns);
  std::vector<std::vector<char>> ok(kConns);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConns; ++c) {
    threads.emplace_back([&, c]() {
      const Op* ops = traces[c].open.data() + begin;
      ok[c].assign(count, 0);
      results[c] = RunOpenLoop(
          count, start + c * interval / kConns, interval, NowNs,
          [](uint64_t t) {
            const uint64_t now = NowNs();
            if (t > now) {
              std::this_thread::sleep_for(std::chrono::nanoseconds(t - now));
            }
          },
          [&](uint64_t k) {
            ok[c][k] = execute(c, ops[k], begin + k, &tallies[c]);
          });
    });
  }
  for (auto& t : threads) t.join();
  for (int c = 0; c < kConns; ++c) {
    out.tally.Add(tallies[c]);
    const Op* ops = traces[c].open.data() + begin;
    for (size_t k = 0; k < count; ++k) {
      const double us = ok[c][k] ? results[c].latency_us[k] : INFINITY;
      OpKind kind = ops[k].kind;
      if (kind == OpKind::kGetEmpty) kind = OpKind::kGetHit;
      out.lat[static_cast<int>(kind)].push_back(us);
    }
    out.lag_us.insert(out.lag_us.end(), results[c].lag_us.begin(),
                      results[c].lag_us.end());
  }
  return out;
}

// --------------------------------------------------------------- probes --

struct Probes {
  LatencySummary read_page;
  uint64_t checksum_failures = 0;
  LatencySummary commit_sync;
};

/// Page-store probe: a FilePageStore at the deployed page size, one
/// segment written then read back at random pages (checksums verified,
/// contents checked); WAL probe: Append + Commit + Sync on a scratch log
/// in the deployment's sync mode.
Probes RunProbes(const std::string& dir, uint64_t seed,
                 endure::WalSyncMode sync_mode, SpanLog* log) {
  Probes p;
  fs::create_directories(dir);
  const uint64_t epp =
      static_cast<uint64_t>(PaperConfig().entries_per_page);
  endure::lsm::Statistics stats;
  {
    endure::lsm::FilePageStore store(epp, &stats, dir + "/pages");
    store.set_verify_checksums(true);
    constexpr uint64_t kPages = 16384;
    auto writer = store.NewSegmentWriter(endure::lsm::IoContext::kFlush);
    std::vector<endure::lsm::Entry> page(epp);
    for (uint64_t pg = 0; pg < kPages; ++pg) {
      for (uint64_t j = 0; j < epp; ++j) {
        page[j].key = pg * epp + j;
        page[j].value = ~page[j].key;
        page[j].seq = 1;
      }
      CheckOk(writer->AppendPage(page.data(), epp), "probe AppendPage");
    }
    auto seg = writer->Seal();
    CheckOk(seg.status(), "probe Seal");
    endure::lsm::PageBuffer scratch(epp);
    SplitMix64 rng(seed);
    std::vector<double> us;
    for (int i = 0; i < 20000; ++i) {
      const uint64_t pg = rng.Uniform(kPages);
      const uint64_t t0 = NowNs();
      endure::StatusOr<endure::lsm::PageView> v = [&]() {
        ScopedSpan s(log, "page_store.read_page");
        return store.ReadPageView(*seg, pg,
                                  endure::lsm::IoContext::kPointQuery,
                                  &scratch);
      }();
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      CheckOk(v.status(), "probe ReadPageView");
      if (v->size != epp || (*v)[0].key != pg * epp ||
          (*v)[0].value != ~(pg * epp)) {
        Die("page-store probe read back wrong contents");
      }
    }
    p.read_page = Summarize(&us);
    store.FreeSegment(*seg);
  }
  p.checksum_failures = stats.checksum_failures;
  {
    auto wal = endure::WalWriter::Open(dir + "/probe.wal", sync_mode);
    CheckOk(wal.status(), "probe WalWriter::Open");
    char payload[16] = {};
    std::vector<double> us;
    for (int i = 0; i < 300; ++i) {
      std::memcpy(payload, &i, sizeof(i));
      const uint64_t t0 = NowNs();
      {
        ScopedSpan s(log, "wal.append_commit_sync");
        (*wal)->Append(1, payload, sizeof(payload));
        CheckOk((*wal)->Commit(), "probe Commit");
        CheckOk((*wal)->Sync(), "probe Sync");
      }
      us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    }
    p.commit_sync = Summarize(&us);
  }
  fs::remove_all(dir);
  return p;
}

// --------------------------------------------------------------- output --

struct Metric {
  std::string name;
  double value;
  const char* unit;
  uint64_t samples;  ///< 0 = not a sampled statistic
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string o = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return o + "\"";
}

// ----------------------------------------------------------------- main --

int Run(const Args& args) {
  const std::vector<WorkloadSpec> specs = Workloads();
  const auto spec_it =
      std::find_if(specs.begin(), specs.end(), [&](const WorkloadSpec& s) {
        return args.workload == s.name;
      });
  if (spec_it == specs.end()) Die("unknown workload " + args.workload);
  const WorkloadSpec& spec = *spec_it;
  const bool drift = spec.switch_ops > 0;

  // The observed mixes must sit inside the tuning's KL ball; drift's
  // second mix must lie outside it (that is what forces the retune).
  const double kl = endure::KlDivergence(spec.closed.mix, spec.expected);
  if (kl > spec.rho) Die("observed mix outside the rho ball");
  double kl_second = 0;
  if (drift) {
    kl_second = endure::KlDivergence(spec.open.mix, spec.expected);
    if (kl_second <= spec.rho) Die("drift mix inside the rho ball");
    if (endure::KlDivergence(spec.open.mix, spec.retune_expected) >
        spec.retune_rho) {
      Die("drift mix outside the retuned rho ball");
    }
  }

  const KeySpace ks{spec.entries, kConns};
  const std::vector<ConnTrace> traces =
      GenerateTraces(spec, ks, args.seed, args.seconds);
  const size_t open_per_round = OpenOpsPerRound(spec, args.seconds);
  // Timer slack defaults to 50 us, which would make every open-loop
  // sleep overshoot its due time by that much (threads inherit it).
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::unique_ptr<SpanRecorder> rec;
  if (args.trace) rec = std::make_unique<SpanRecorder>();
  SpanLog* main_log = rec != nullptr ? rec->NewLog() : nullptr;
  std::vector<SpanLog*> conn_logs(kConns, nullptr);
  if (rec != nullptr) {
    for (auto& l : conn_logs) l = rec->NewLog();
  }
  fs::create_directories(args.dir);
  const std::string deploy_dir = args.dir + "/deploy";

  // ---- set-up, repeated; the last deployment serves the run.
  std::optional<IdleSpinners> spinners;
  spinners.emplace();
  Deployment dep;
  Oracle oracle(ks);
  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    if (r > 0) TearDown(&dep);
    setup_s.push_back(SetUp(spec, deploy_dir, false, main_log, &dep, &oracle));
  }
  std::optional<endure::net::TuningWire> retune;
  Tuning retuned;
  if (drift) {
    const endure::CostModel model(PaperConfig());
    retuned = endure::RobustTuner(model)
                  .Tune(spec.retune_expected, spec.retune_rho)
                  .tuning;
    retune = WireFor(spec, retuned);
  }
  const endure::lsm::Options deployed_opts = dep.db->options();
  {
    ScopedSpan s(main_log, "bench.settle");
    SyncFileSystem(args.dir);
  }

  Phase("set-up done");
  // ---- closed-loop rounds, backlog drain, open-loop rounds.
  std::vector<std::unique_ptr<endure::net::Client>> clients;
  for (int c = 0; c < kConns; ++c) clients.push_back(Connect(dep.server->port()));
  const endure::lsm::Statistics stats0 = dep.db->TotalStats();
  const endure::net::ServerCounters srv0 = dep.server->counters();

  std::atomic<bool> monitor_stop{false};
  std::atomic<uint64_t> conform_ns{0};
  std::atomic<uint64_t> apply_ack{0};
  std::thread monitor;
  if (args.trace && drift) {
    // Traced drift runs poll migration progress to time the retune.
    monitor = std::thread([&]() {
      while (!monitor_stop.load()) {
        if (apply_ack.load() != 0 &&
            dep.db->Progress().structure_conforming()) {
          conform_ns = NowNs();
          return;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
  const CpuTimes cpu0 = ReadCpuTimes();
  Tally run_tally;
  std::vector<size_t> next(kConns, 0);
  // closed_ranges[r][c]: closed ops connection c issued in round r.
  std::vector<std::vector<std::pair<size_t, size_t>>> closed_ranges;
  std::vector<double> round_tput;
  std::vector<LatencySummary> round_lat[kNumOpKinds];
  std::vector<double> all_lat[kNumOpKinds];
  std::vector<double> lag_us;
  uint64_t traced_ops = 0, traced_ns = 0, untraced_ops = 0, untraced_ns = 0;
  for (int r = 0; r < kClosedRounds; ++r) {
    const std::vector<size_t> from = next;
    const ClosedResult closed =
        RunClosed(spec, &clients, traces, &oracle,
                  ClosedOpsPerRound(spec, args.seconds), &next,
                  retune ? &*retune : nullptr, &apply_ack, conn_logs);
    closed_ranges.emplace_back();
    for (int c = 0; c < kConns; ++c) {
      closed_ranges.back().emplace_back(from[c], next[c]);
    }
    run_tally.Add(closed.tally);
    round_tput.push_back(
        Ratio(static_cast<double>(closed.tally.acked), closed.seconds));
    traced_ops += closed.traced_ops;
    traced_ns += closed.traced_ns;
    untraced_ops += closed.untraced_ops;
    untraced_ns += closed.untraced_ns;
  }
  // Barrier between the phases: the closed loop's maintenance backlog
  // drains before the open loop starts, so open-loop latency reflects
  // the open-loop load (and a drift retune has converged).
  const uint64_t b0 = NowNs();
  {
    ScopedSpan s(main_log, "lsm.backlog");
    dep.db->WaitForMaintenance();
  }
  const double backlog_ms = static_cast<double>(NowNs() - b0) / 1e6;
  {
    ScopedSpan s(main_log, "bench.settle");
    SyncFileSystem(args.dir);
  }
  Phase("closed loop done");
  for (int r = 0; r < kOpenRounds; ++r) {
    OpenResult open = RunOpen(
        spec, traces, r * open_per_round, open_per_round,
        [&](int c, const Op& op, uint64_t k, Tally* t) {
          ScopedSpan s(conn_logs[c], SpanName(op.kind, true), ReqId(c, k));
          return RunOne(clients[c].get(), &oracle, c, op, t);
        });
    run_tally.Add(open.tally);
    for (int k = 0; k < kNumOpKinds; ++k) {
      all_lat[k].insert(all_lat[k].end(), open.lat[k].begin(),
                        open.lat[k].end());
      round_lat[k].push_back(Summarize(&open.lat[k]));
    }
    lag_us.insert(lag_us.end(), open.lag_us.begin(), open.lag_us.end());
  }
  monitor_stop = true;
  if (monitor.joinable()) monitor.join();
  Phase("open loop done");
  const CpuTimes cpu1 = ReadCpuTimes();
  // A run that lost much CPU to other guests measured a contended
  // machine, not the program.
  const double steal_ratio =
      Ratio(static_cast<double>(cpu1.steal - cpu0.steal),
            static_cast<double>(cpu1.total - cpu0.total));
  double migration_ms = 0;
  bool conformed_in_run = false;
  if (apply_ack.load() != 0) {
    conformed_in_run = conform_ns.load() != 0;
    if (!conformed_in_run) {
      dep.db->WaitForMaintenance();
      conform_ns = NowNs();
    }
    migration_ms =
        static_cast<double>(conform_ns.load() - apply_ack.load()) / 1e6;
  }
  const endure::lsm::Statistics sd = dep.db->TotalStats().Delta(stats0);
  const uint64_t sched_queue_peak = dep.db->TotalStats().sched_queue_peak;
  const endure::net::ServerCounters srv1 = dep.server->counters();
  uint64_t reconnects = 0, throttle_retries = 0;
  for (auto& cl : clients) {
    reconnects += cl->reconnects();
    throttle_retries += cl->throttle_retries();
  }
  clients.clear();

  // ---- kill / reopen, durability oracle, quiesce. The first kill comes
  // straight after the traffic (WAL tail and maintenance backlog of the
  // run); the timed ones follow a quiesce and a fixed burst of acked PUTs
  // each, so every timed cycle recovers the same shape of state.
  Tally recovery_tally;
  std::vector<double> recover_s;
  double after_run_recover_s = 0;
  uint64_t replayed = 0, recovery_pages = 0;
  double quiesce_ms = 0, space_amp = 0;
  for (int cycle = 0; cycle <= kRecoveryCycles; ++cycle) {
    if (cycle > 0) {
      auto client = Connect(dep.server->port());
      const std::vector<Op>& burst = traces[0].burst;
      for (uint64_t i = (cycle - 1) * kBurstOps; i < cycle * kBurstOps;
           i += kDepth) {
        RunBurst(client.get(), &oracle, 0, burst, i, i + kDepth,
                 &recovery_tally);
      }
    }
    ScopedSpan cycle_span(main_log, "bench.kill_reopen");
    dep.server->Shutdown();
    dep.server.reset();
    dep.db->CrashForTesting();
    dep.db.reset();
    const uint64_t t0 = NowNs();
    {
      ScopedSpan s(main_log, "lsm.open_recover");
      auto db_or = OpenDb(spec, dep.tuning, deploy_dir);
      CheckOk(db_or.status(), "reopen after kill");
      dep.db = std::move(db_or).value();
    }
    {
      ScopedSpan s(main_log, "net.server_start");
      dep.server = StartServer(dep.db.get());
    }
    {
      ScopedSpan s(main_log, "client.get");
      auto client = Connect(dep.server->port());
      const auto [key, want] = oracle.ProbeKey(0);
      auto got = client->Get(key);
      if (!got.ok() || *got != want) {
        ++recovery_tally.failed;
        ++recovery_tally.wrong;
        recovery_tally.first_wrong = "first GET after reopen was wrong";
      }
    }
    const double secs = static_cast<double>(NowNs() - t0) / 1e9;
    // The full-state check runs after the first and the last kill; the
    // last one covers every burst acked in between.
    if (cycle == 0 || cycle == kRecoveryCycles) {
      CheckDump(dep.db.get(), oracle, &recovery_tally);
    }
    if (cycle > 0) {
      recover_s.push_back(secs);
      continue;
    }
    after_run_recover_s = secs;
    const endure::lsm::Statistics rs = dep.db->TotalStats();
    replayed = rs.wal_replayed_entries;
    recovery_pages = rs.recovery_pages_read;
    const uint64_t q0 = NowNs();
    {
      ScopedSpan s(main_log, "lsm.quiesce");
      CheckOk(dep.db->Flush(), "Flush");
      dep.db->WaitForMaintenance();
    }
    quiesce_ms = static_cast<double>(NowNs() - q0) / 1e6;
    space_amp = Ratio(static_cast<double>(DirBytes(deploy_dir)),
                      static_cast<double>(oracle.LiveEntries() *
                                          kUserBytesPerEntry));
  }
  Phase("recovery cycles done");
  TearDown(&dep);
  const double peak_rss = PeakRssMiB();

  Tally total;
  total.Add(run_tally);
  total.Add(recovery_tally);

  // ---- traced run extras: replica replay and probes.
  std::map<std::string, double> replica_p50, replica_p99;
  std::map<std::string, uint64_t> replica_n;
  std::map<std::string, double> net_self;
  std::map<std::string, uint64_t> net_self_n;
  Probes probes;
  if (rec != nullptr) {
    // Replay the same trace directly against ShardedDB on an identically
    // set-up deployment: the closed-loop ops each connection issued,
    // round by round (a burst's PUT run grouped into one PutBatch, like
    // the server's coalescing), the drain, then the open rounds on the
    // same schedule with spans carrying the client ops' request ids.
    Deployment rep;
    Oracle rep_oracle(ks);
    SetUp(spec, args.dir + "/replica", true, nullptr, &rep, &rep_oracle);
    std::vector<SpanLog*> rep_logs(kConns);
    for (auto& l : rep_logs) l = rec->NewLog();
    for (int r = 0; r < kClosedRounds; ++r) {
      std::vector<std::thread> threads;
      std::vector<Tally> tallies(kConns);
      for (int c = 0; c < kConns; ++c) {
        threads.emplace_back([&, c]() {
          const std::vector<Op>& ops = traces[c].closed;
          const auto [from, to] = closed_ranges[r][c];
          std::vector<std::pair<uint64_t, uint64_t>> puts;
          std::vector<const Op*> put_ops;
          auto flush_puts = [&]() {
            if (puts.empty()) return;
            const Status st = rep.db->PutBatch(puts);
            for (const Op* op : put_ops) {
              Judge(&rep_oracle, c, *op, st, std::nullopt, nullptr,
                    &tallies[c]);
            }
            puts.clear();
            put_ops.clear();
          };
          for (size_t i = from; i < to; i += kDepth) {
            if (c == 0 && drift && i == spec.switch_ops) {
              CheckOk(endure::bridge::ApplyTuning(rep.db.get(), PaperConfig(),
                                                  retuned, spec.entries),
                      "replica ApplyTuning");
            }
            for (size_t j = i; j < i + kDepth; ++j) {
              if (ops[j].kind == OpKind::kPut) {
                puts.emplace_back(ops[j].key, ops[j].arg);
                put_ops.push_back(&ops[j]);
                continue;
              }
              flush_puts();
              RunDirect(rep.db.get(), &rep_oracle, c, ops[j], &tallies[c]);
            }
            flush_puts();
          }
        });
      }
      for (auto& t : threads) t.join();
      for (auto& t : tallies) total.Add(t);
    }
    rep.db->WaitForMaintenance();
    for (int r = 0; r < kOpenRounds; ++r) {
      const OpenResult rep_open = RunOpen(
          spec, traces, r * open_per_round, open_per_round,
          [&](int c, const Op& op, uint64_t k, Tally* t) {
            ScopedSpan s(rep_logs[c], SpanName(op.kind, false), ReqId(c, k));
            return RunDirect(rep.db.get(), &rep_oracle, c, op, t);
          });
      total.Add(rep_open.tally);
    }
    TearDown(&rep);

    const std::vector<Span> spans = rec->All();
    std::unordered_map<uint64_t, double> client_us;
    for (const Span& s : spans) {
      // Open-loop client ops only (pipelined bursts carry no per-op id).
      if (std::strncmp(s.name, "client.", 7) == 0 &&
          std::strcmp(s.name, "client.pipeline") != 0 && s.request_id != 0) {
        client_us[s.request_id] =
            static_cast<double>(s.end_ns - s.start_ns) / 1e3;
      }
    }
    for (const char* op : {"get", "put", "scan"}) {
      const std::string lsm_name = std::string("lsm.") + op;
      std::vector<double> d = DurationsUs(spans, lsm_name.c_str());
      const LatencySummary ls = Summarize(&d);
      replica_p50[op] = ls.p50;
      replica_p99[op] = ls.p99;
      replica_n[op] = ls.count;
      std::vector<double> self;
      for (const Span& s : spans) {
        if (lsm_name != s.name) continue;
        const auto it = client_us.find(s.request_id);
        if (it == client_us.end()) continue;
        self.push_back(it->second -
                       static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
      net_self[op] = Median(self);
      net_self_n[op] = self.size();
    }
    Phase("replica replay done");
    probes = RunProbes(args.dir + "/probe", args.seed, spec.sync_mode,
                       main_log);
  }
  spinners.reset();
  fs::remove_all(args.dir);
  Phase("done");

  // ---- report.
  const endure::SystemConfig cfg = PaperConfig();
  std::printf(
      "env {\"hardware_threads\":%u,\"build_type\":%s,\"compiler\":%s,"
      "\"commit\":%s,\"seed\":%llu,\"workload\":%s,\"seconds\":%d,"
      "\"traced\":%s,\"tuning\":{\"policy\":%s,\"size_ratio\":%d,"
      "\"filter_bits_per_entry\":%s,\"buffer_entries\":%llu,"
      "\"shards\":%d},\"expected\":%s,\"rho\":%s,\"observed\":%s,"
      "\"kl_observed_expected\":%s,\"kl_second_mix\":%s,"
      "\"data_bytes\":%llu,\"block_cache_bytes\":%llu,"
      "\"memory_budget_bytes\":%llu,\"sync_mode\":%s,"
      "\"connections\":%d,\"pipeline_depth\":%llu,"
      "\"open_loop_rate_ops_s\":%s}\n",
      std::thread::hardware_concurrency(), JsonString(PERFBENCH_BUILD_TYPE).c_str(),
      JsonString(__VERSION__).c_str(), JsonString(args.commit).c_str(),
      static_cast<unsigned long long>(args.seed), JsonString(spec.name).c_str(),
      args.seconds, args.trace ? "true" : "false",
      JsonString(endure::PolicyName(dep.tuning.policy)).c_str(),
      deployed_opts.size_ratio,
      JsonNumber(deployed_opts.filter_bits_per_entry).c_str(),
      static_cast<unsigned long long>(deployed_opts.buffer_entries), kShards,
      JsonString(spec.expected.ToString()).c_str(), JsonNumber(spec.rho).c_str(),
      JsonString(spec.closed.mix.ToString()).c_str(), JsonNumber(kl).c_str(),
      JsonNumber(kl_second).c_str(),
      static_cast<unsigned long long>(spec.entries * kUserBytesPerEntry),
      static_cast<unsigned long long>(spec.block_cache_bytes),
      static_cast<unsigned long long>(spec.memory_budget_bytes),
      spec.sync_mode == endure::WalSyncMode::kPerBatch ? "\"per_batch\""
                                                       : "\"background\"",
      kConns,
      static_cast<unsigned long long>(kDepth),
      JsonNumber(spec.open_rate).c_str());

  // End-to-end figures are medians over the rounds; sample counts are
  // the totals over all rounds.
  const int kGet = static_cast<int>(OpKind::kGetHit);
  const int kPut = static_cast<int>(OpKind::kPut);
  const int kScan = static_cast<int>(OpKind::kScan);
  auto round_median = [&](int kind, double LatencySummary::*pct) {
    std::vector<double> v;
    for (const LatencySummary& ls : round_lat[kind]) v.push_back(ls.*pct);
    return Median(v);
  };
  const auto p50 = &LatencySummary::p50;
  const auto p90 = &LatencySummary::p90;
  for (int r = 0; r < kClosedRounds; ++r) {
    std::printf("closed round %d throughput_ops_s=%.1f\n", r, round_tput[r]);
  }
  std::printf("host steal ratio during the traffic %.4f\n", steal_ratio);
  std::printf("recover_s after the run %.4f, after each burst:",
              after_run_recover_s);
  for (double v : recover_s) std::printf(" %.4f", v);
  std::printf("\n");
  bool percentiles_ok = true;
  for (int r = 0; r < kOpenRounds; ++r) {
    const LatencySummary& g = round_lat[kGet][r];
    const LatencySummary& w = round_lat[kPut][r];
    percentiles_ok = percentiles_ok && g.p90_valid && w.p90_valid;
    std::printf("open round %d (n get=%llu put=%llu) get_us p50=%.1f "
                "p90=%.1f p99=%.1f put_us p50=%.1f p90=%.1f p99=%.1f\n",
                r, static_cast<unsigned long long>(g.count),
                static_cast<unsigned long long>(w.count), g.p50, g.p90,
                g.p99, w.p50, w.p90, w.p99);
  }
  // p99 pools every round's samples (a round alone is too small).
  const LatencySummary get_all = Summarize(&all_lat[kGet]);
  const LatencySummary put_all = Summarize(&all_lat[kPut]);
  const LatencySummary scan_all = Summarize(&all_lat[kScan]);
  percentiles_ok = percentiles_ok && get_all.p99_valid && put_all.p99_valid;
  const uint64_t n_get = get_all.count;
  const uint64_t n_put = put_all.count;
  const uint64_t n_scan = scan_all.count;
  const double failed_ratio = Ratio(static_cast<double>(total.failed),
                                    static_cast<double>(total.attempted));

  std::vector<Metric> e2e = {
      {"throughput_ops_s", Median(round_tput), "ops/s", run_tally.attempted},
      {"setup_s", Median(setup_s), "s", setup_s.size()},
      {"space_amp", space_amp, "ratio", 0},
      {"peak_rss_mib", peak_rss, "MiB", 0},
  };
  // Printed, not gated (README.md): latencies and recovery time spread
  // between runs wider than any usable bound on some workload, not every
  // workload scans, and failures are gated through "failed" and the exit
  // code.
  std::vector<Metric> info = {
      {"get_p50_us", round_median(kGet, p50), "us", n_get},
      {"put_p50_us", round_median(kPut, p50), "us", n_put},
      {"recover_s", Median(recover_s), "s", recover_s.size()},
      {"get_p90_us", round_median(kGet, p90), "us", n_get},
      {"put_p90_us", round_median(kPut, p90), "us", n_put},
      {"get_p99_us", get_all.p99, "us", n_get},
      {"put_p99_us", put_all.p99, "us", n_put},
      {"scan_p50_us", round_median(kScan, p50), "us", n_scan},
      {"scan_p99_us", scan_all.p99, "us", n_scan},
      {"failed_ratio", failed_ratio, "ratio", total.attempted},
  };

  std::vector<Metric> layer;
  if (args.trace) {
    const std::vector<Span> spans = rec->All();
    auto median_ms = [&](const char* name) {
      return Median(DurationsUs(spans, name)) / 1e3;
    };
    const double reads = static_cast<double>(sd.gets + sd.range_queries);
    const double writes = static_cast<double>(sd.writes);
    const double ops = static_cast<double>(run_tally.attempted);
    const double a_rw = cfg.read_write_asymmetry;
    const double logical_pages =
        static_cast<double>(sd.point_pages_read + sd.range_pages_read +
                            sd.cache_hits + sd.compaction_pages_read) +
        a_rw * static_cast<double>(sd.compaction_pages_written +
                                   sd.flush_pages_written);
    // Model cost of the deployed tuning under the executed op mix (the
    // OpKind order is the paper's z0, z1, q, w).
    std::array<double, endure::kNumQueryClasses> counts = {0, 0, 0, 0};
    for (int c = 0; c < kConns; ++c) {
      const ConnTrace& t = traces[c];
      for (size_t i = 0; i < next[c]; ++i) {
        counts[static_cast<int>(t.closed[i].kind)] += 1;
      }
      for (const Op& op : t.open) counts[static_cast<int>(op.kind)] += 1;
    }
    Tuning deployed = dep.tuning;
    deployed.size_ratio = std::ceil(deployed.size_ratio - 1e-9);
    const endure::CostModel scaled(
        endure::bridge::ScaledConfig(cfg, spec.entries));
    const double model_io =
        scaled.Cost(endure::WorkloadFromCounts(counts), deployed);
    const uint64_t cache_lookups = sd.cache_hits + sd.cache_misses;
    const LatencySummary lag_s = Summarize(&lag_us);

    layer = {
        {"core.tune_ms", median_ms("core.tune"), "ms", 0},
        {"core.tune_evals", static_cast<double>(dep.tune_evals), "count", 0},
        {"core.model_io_per_op", model_io, "pages/op", 0},
        {"bridge.open_load_ms", median_ms("bridge.open_load"), "ms", 0},
        {"net.server_start_ms", median_ms("net.server_start"), "ms", 0},
        {"bench.warmup_ms", median_ms("bench.warmup"), "ms", 0},
        {"net.get_self_us", net_self["get"], "us", net_self_n["get"]},
        {"net.put_self_us", net_self["put"], "us", net_self_n["put"]},
        {"net.scan_self_us", net_self["scan"], "us", net_self_n["scan"]},
        {"net.puts_per_commit",
         Ratio(static_cast<double>(srv1.puts_coalesced - srv0.puts_coalesced),
               static_cast<double>(srv1.coalesced_batches -
                                   srv0.coalesced_batches)),
         "puts/commit", 0},
        {"net.bytes_per_op",
         Ratio(static_cast<double>(srv1.bytes_read - srv0.bytes_read +
                                   srv1.bytes_written - srv0.bytes_written),
               static_cast<double>(srv1.requests_served -
                                   srv0.requests_served)),
         "B/op", 0},
        {"net.admission_rejects",
         static_cast<double>(srv1.admission_rejects - srv0.admission_rejects),
         "count", 0},
        {"client.reconnects", static_cast<double>(reconnects), "count", 0},
        {"client.throttle_retries", static_cast<double>(throttle_retries),
         "count", 0},
        {"lsm.get_p50_us", replica_p50["get"], "us", replica_n["get"]},
        {"lsm.get_p99_us", replica_p99["get"], "us", replica_n["get"]},
        {"lsm.put_p50_us", replica_p50["put"], "us", replica_n["put"]},
        {"lsm.put_p99_us", replica_p99["put"], "us", replica_n["put"]},
        {"lsm.scan_p50_us", replica_p50["scan"], "us", replica_n["scan"]},
        {"lsm.scan_p99_us", replica_p99["scan"], "us", replica_n["scan"]},
        {"lsm.pages_per_op", Ratio(logical_pages, ops), "pages/op", 0},
        {"lsm.pages_per_get",
         Ratio(static_cast<double>(sd.point_pages_read),
               static_cast<double>(sd.gets)),
         "pages/get", 0},
        {"lsm.pages_per_scan",
         Ratio(static_cast<double>(sd.range_pages_read),
               static_cast<double>(sd.range_queries)),
         "pages/scan", 0},
        {"lsm.seeks_per_scan",
         Ratio(static_cast<double>(sd.range_seeks),
               static_cast<double>(sd.range_queries)),
         "runs/scan", 0},
        {"lsm.bloom_fp_ratio",
         Ratio(static_cast<double>(sd.bloom_false_positives),
               static_cast<double>(sd.bloom_probes)),
         "ratio", 0},
        {"lsm.bloom_skip_ratio",
         Ratio(static_cast<double>(sd.bloom_negatives),
               static_cast<double>(sd.bloom_probes)),
         "ratio", 0},
        {"lsm.fence_skips_per_read",
         Ratio(static_cast<double>(sd.fence_skips), reads), "runs/read", 0},
        {"lsm.write_amp",
         Ratio(static_cast<double>(sd.flush_pages_written +
                                   sd.compaction_pages_written) *
                   static_cast<double>(deployed_opts.entries_per_page),
               writes),
         "ratio", 0},
        {"lsm.compaction_pages_per_put",
         Ratio(static_cast<double>(sd.compaction_pages_read +
                                   sd.compaction_pages_written),
               writes),
         "pages/put", 0},
        {"lsm.flushes", static_cast<double>(sd.flushes), "count", 0},
        {"lsm.compactions", static_cast<double>(sd.compactions), "count", 0},
        {"lsm.write_stalls", static_cast<double>(sd.write_stalls), "count", 0},
        {"lsm.stall_ms", static_cast<double>(sd.compaction_stall_ms), "ms", 0},
        {"lsm.sched_queue_peak", static_cast<double>(sched_queue_peak),
         "jobs", 0},
        {"lsm.backlog_ms", backlog_ms, "ms", 0},
        {"lsm.quiesce_ms", quiesce_ms, "ms", 0},
        {"net.apply_tuning_ms", median_ms("client.apply_tuning"), "ms", 0},
        {"lsm.migration_ms", migration_ms, "ms", 0},
        {"lsm.migration_steps", static_cast<double>(sd.migration_steps),
         "count", 0},
        {"cache.hit_ratio",
         Ratio(static_cast<double>(sd.cache_hits),
               static_cast<double>(cache_lookups)),
         "ratio", cache_lookups},
        {"cache.evictions_per_read",
         Ratio(static_cast<double>(sd.cache_evictions), reads), "pages/read",
         0},
        {"cache.arbiter_shifts", static_cast<double>(sd.arbiter_shifts),
         "count", 0},
        {"page_store.read_page_p50_us", probes.read_page.p50, "us",
         probes.read_page.count},
        {"page_store.read_page_p99_us", probes.read_page.p99, "us",
         probes.read_page.count},
        {"page_store.checksum_failures",
         static_cast<double>(probes.checksum_failures + sd.checksum_failures),
         "count", 0},
        {"wal.syncs_per_put",
         Ratio(static_cast<double>(sd.wal_syncs), writes), "syncs/put", 0},
        {"wal.bytes_per_put",
         Ratio(static_cast<double>(sd.wal_bytes), writes), "B/put", 0},
        {"wal.commit_sync_us", probes.commit_sync.p50, "us",
         probes.commit_sync.count},
        {"recovery.after_run_ms", after_run_recover_s * 1e3, "ms", 0},
        {"recovery.replayed_entries", static_cast<double>(replayed), "count",
         0},
        {"recovery.pages_read", static_cast<double>(recovery_pages), "count",
         0},
        {"loadgen.lag_p99_us", lag_s.p99, "us", lag_s.count},
        {"loadgen.get_samples", static_cast<double>(n_get), "count", 0},
        {"loadgen.put_samples", static_cast<double>(n_put), "count", 0},
        {"loadgen.scan_samples", static_cast<double>(n_scan), "count", 0},
        {"host.steal_ratio", steal_ratio, "ratio", 0},
        {"trace.overhead_ratio",
         Ratio(Ratio(static_cast<double>(traced_ops), traced_ns / 1e9),
               Ratio(static_cast<double>(untraced_ops), untraced_ns / 1e9)),
         "ratio",
         0},
    };
    std::printf("migration %s\n",
                apply_ack.load() == 0 ? "none (no retune in this workload)"
                : conformed_in_run       ? "structure_conforming within the run"
                                         : "NOT conforming within the run");
    for (const SelfTime& s : ComputeSelfTimes(spans)) {
      std::printf("self %-28s count=%-8llu total_us=%-14.1f self_us=%.1f\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count),
                  s.total_us, s.self_us);
    }
    if (!args.out_dir.empty()) {
      fs::create_directories(args.out_dir);
      const std::string path = args.out_dir + "/spans-" + spec.name + "-" +
                               std::to_string(args.seed) + ".tsv";
      if (WriteSpans(spans, path)) {
        std::printf("spans written to %s\n", path.c_str());
      }
    }
  }

  auto print_metric = [](const Metric& m) {
    std::printf("metric %-30s = %s\n", m.name.c_str(),
                m.samples > 0
                    ? FormatWithCount(m.value, m.unit, m.samples).c_str()
                    : (JsonNumber(m.value) + " " + m.unit).c_str());
  };
  for (const Metric& m : e2e) print_metric(m);
  for (const Metric& m : info) print_metric(m);
  for (const Metric& m : layer) print_metric(m);
  if (!total.first_wrong.empty()) {
    std::printf("wrong answer: %s\n", total.first_wrong.c_str());
  }
  if (!percentiles_ok) {
    std::printf("error: too few open-loop samples for a percentile\n");
  }

  const bool correct = total.wrong == 0 && percentiles_ok;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(total.attempted);
  json += ", \"failed\": " + std::to_string(total.failed);
  json += ", \"metrics\": {";
  const std::vector<Metric>& reported = args.trace ? layer : e2e;
  for (size_t i = 0; i < reported.size(); ++i) {
    if (i > 0) json += ", ";
    json += JsonString(reported[i].name) + ": {\"value\": " +
            JsonNumber(reported[i].value) + ", \"unit\": " +
            JsonString(reported[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct && total.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::Run(perfbench::ParseArgs(argc, argv));
}
