// The benchmark's workloads and the cluster each one runs against. Every
// option that defines a workload is set here explicitly — nothing is
// inherited from the store's defaults or from the paper-figure benches —
// and the effective options are echoed in every run's output, so a
// default changed in the store shows up as a changed workload, not as a
// gain or a loss.
#ifndef PERFBENCH_SPEC_H_
#define PERFBENCH_SPEC_H_

#include <cstdint>
#include <string>

#include "coord/cluster.h"

namespace perfbench {

enum class Op { kGet, kPut, kScan };

struct Workload {
  const char* name;
  /// Share of operations that are reads; the rest are puts.
  double read_fraction;
  /// The read operation: point gets or scan_length-record scans.
  Op read_op;
  uint64_t num_keys;
  /// Zipfian constant over key ranks (unscrambled, so hot keys cluster
  /// in one Drange); 0 = uniform.
  double zipf_theta;
  /// In-memory log replicated to 3 StoCs (otherwise logging is off).
  bool logged;

  /// The operation whose latency is gated: the read operation, or put
  /// for a workload that only writes.
  Op timed_op() const { return read_fraction > 0 ? read_op : Op::kPut; }
};

constexpr int kClientThreads = 4;
constexpr size_t kValueSize = 1024;
constexpr int kScanLength = 10;
/// Closed-loop warm-up before each timed window; its operations are
/// checked but not timed. Set-up leaves memtables empty and L0 below its
/// compaction trigger; on scan-write the first ~3 s after it run faster than the rest (δ
/// memtables and L0 fill up), so the window starts after them.
constexpr double kWarmupSeconds = 5.0;
/// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

/// nullptr when `name` is not a workload.
const Workload* FindWorkload(const std::string& name);
/// Comma-separated workload names (usage text).
std::string WorkloadNames();

nova::coord::ClusterOptions PinnedClusterOptions(const Workload& w);

/// One line per option group, read back from the running cluster (the
/// range engine's options are the resolved ones the engine uses).
std::string EchoOptions(nova::coord::Cluster* cluster);

}  // namespace perfbench

#endif  // PERFBENCH_SPEC_H_
