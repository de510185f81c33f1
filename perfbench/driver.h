// Shared machinery of the untraced and the traced run: cluster set-up,
// the closed-loop operation streams, counter snapshots, exact latency
// percentiles, and the final read-back pass.
#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "checker.h"
#include "coord/cluster.h"
#include "spec.h"
#include "util/random.h"
#include "util/zipfian.h"

namespace nova {
namespace client {
class NovaClient;
}  // namespace client
}  // namespace nova

namespace perfbench {

double NowSeconds();
int64_t NowNs();

/// One named metric of the final JSON line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Exact percentile over raw samples (nearest rank). `beyond` is the
/// number of samples above the percentile's rank; a percentile is only
/// reported when at least 10 samples lie beyond it.
struct Percentile {
  double value = 0;
  uint64_t samples = 0;
  uint64_t beyond = 0;
  bool supported = false;
};
/// Sorts *samples in place.
Percentile ExactPercentile(std::vector<uint64_t>* samples, double p);

/// Key-choice and operation-mix stream of one client thread, derived
/// from the run seed only. Keys come from the store's YCSB generators
/// (unscrambled Zipfian, or uniform).
class OpStream {
 public:
  OpStream(const Workload& w, uint64_t seed, int thread);
  struct Next {
    Op op;
    uint64_t key;
  };
  Next Draw();

 private:
  const Workload& w_;
  nova::Random rng_;
  std::unique_ptr<nova::KeyGenerator> keys_;
  nova::UniformGenerator scan_keys_;
};

/// Resident set size of this process (/proc/self/statm), in MB.
double RssMb();

/// Counters read before and after a window; their differences are the
/// per-layer counts of that window.
enum Counter {
  kPuts,
  kStallUs,
  kStallEvents,
  kFlushes,
  kMerges,
  kBytesFlushed,
  kLookupHits,
  kLookupMisses,
  kCompactions,
  kCompactionBytesWritten,
  kCompactionQueueUs,
  kReadaheadIssued,
  kReadaheadHits,
  kHotHits,
  kHotMisses,
  kCompressedHits,
  kCompressedMisses,
  kWireBytes,
  kHedgedIssued,
  kHedgedWon,
  kStocReads,  // ReadBlock RPCs of the LTC's StoC client
  kDeviceReads,
  kDeviceWrites,
  kDeviceBytesWritten,
  kMinorReorgs,  // Drange reorganizations
  kMajorReorgs,
  kCpuUs,  // process CPU time, all threads
  kCtxSwitches,
  kNumCounters
};
using Counters = std::array<double, kNumCounters>;

/// The cluster under test plus the bookkeeping every check needs.
class Harness {
 public:
  Harness(const Workload& w, uint64_t seed);
  ~Harness();

  /// Start a fresh cluster, load every key (version 1), flush every
  /// memtable and wait for quiescence on every range. Returns seconds.
  double Setup();
  void Teardown();

  /// Flush everything and wait until no flush or compaction is pending.
  void Quiesce();
  /// Read every key back through the client and check it.
  void ReadBack();

  Counters ReadCounters();

  /// Count one checked operation; `error` non-empty marks it failed.
  void Record(const std::string& error);

  nova::coord::Cluster* cluster() { return cluster_.get(); }
  nova::ltc::RangeEngine* engine();
  const Workload& workload() const { return w_; }
  uint64_t seed() const { return seed_; }
  KeyStates* states() { return states_.get(); }
  const Checker& checker() const { return checker_; }
  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  /// First few failures, for the human-readable report.
  std::vector<std::string> errors();

 private:
  const Workload& w_;
  uint64_t seed_;
  Checker checker_;
  std::unique_ptr<nova::coord::Cluster> cluster_;
  std::unique_ptr<KeyStates> states_;
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::mutex errors_mu_;
  std::vector<std::string> errors_;
};

/// Prints each metric on its own line, then the result as the last line:
/// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
void PrintResult(Harness* h, const std::vector<Metric>& metrics);

/// The timed window is cut into kSlices equal slices. End-to-end figures
/// are medians over slices, so a transient disturbance of the host (another
/// process, page-cache writeback) moves only the slices it overlaps.
constexpr int kSlices = 30;

/// One closed-loop window: kWarmupSeconds of checked but untimed
/// operations, then `seconds` of timed ones.
struct WindowResult {
  double seconds = 0;
  /// Timed operations and their latency samples (ns), by the slice the
  /// operation ended in and by Op.
  uint64_t ops[kSlices][3] = {};
  std::vector<uint64_t> latency_ns[kSlices][3];
  /// Counter deltas over the timed window (printed, not gated).
  Counters counters{};
  double rss_mb = 0;
};

/// kClientThreads clients, each with its own NovaClient.
WindowResult RunClientWindow(Harness* h, double seconds);

/// One checked operation through the client library; returns its latency.
uint64_t RunClientOp(Harness* h, nova::client::NovaClient* client,
                     const OpStream::Next& next, std::string* scratch);

/// Executes one checked operation through `do_*` callables supplied by
/// the caller (the client library in the untraced run, the layer entry
/// points in the traced run) and returns its latency in ns.
/// Only the do_* call is timed; value generation and checking are not.
template <typename GetFn, typename PutFn, typename ScanFn>
uint64_t RunCheckedOp(Harness* h, const OpStream::Next& next,
                      std::string* scratch, GetFn do_get, PutFn do_put,
                      ScanFn do_scan) {
  const Checker& checker = h->checker();
  KeyStates* states = h->states();
  const std::string key = MakeKey(next.key);
  std::string err;
  int64_t start = 0;
  int64_t end = 0;
  nova::Status s;
  switch (next.op) {
    case Op::kGet: {
      uint64_t floor = states->Floor(next.key);
      start = NowNs();
      s = do_get(key, scratch);
      end = NowNs();
      if (s.ok()) {
        err = checker.CheckGet(*states, next.key, floor, *scratch);
      }
      break;
    }
    case Op::kPut: {
      KeyStates::PutTicket ticket = states->BeginPut(next.key);
      EncodeValue(checker.seed(), next.key, ticket.version,
                  checker.value_size(), scratch);
      start = NowNs();
      s = do_put(key, *scratch);
      end = NowNs();
      states->EndPut(ticket, s.ok());
      break;
    }
    case Op::kScan: {
      uint64_t n = std::min<uint64_t>(checker.scan_length(),
                                      states->num_keys() - next.key);
      std::vector<uint64_t> floors(n);
      for (uint64_t i = 0; i < n; i++) {
        floors[i] = states->Floor(next.key + i);
      }
      std::vector<std::pair<std::string, std::string>> records;
      start = NowNs();
      s = do_scan(key, checker.scan_length(), &records);
      end = NowNs();
      if (s.ok()) {
        err = checker.CheckScan(*states, next.key, floors, records);
      }
      break;
    }
  }
  static const char* kOpNames[] = {"get", "put", "scan"};
  if (!s.ok()) {
    err = s.ToString();
  }
  if (!err.empty()) {
    err = std::string(kOpNames[static_cast<int>(next.op)]) + " " + key +
          ": " + err;
  }
  h->Record(err);
  return static_cast<uint64_t>(end - start);
}

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
