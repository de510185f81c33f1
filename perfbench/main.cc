// perfbench: one workload of the Nova-LSM benchmark against an
// in-process cluster (1 LTC, 3 StoCs, host time). Every operation and a
// final read-back of every key are checked.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-dir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md). The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// Exit status is non-zero when any check failed.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "driver.h"
#include "traced.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string trace_dir = ".bench_build/perfbench/traces";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; i++) {
    std::string a = argv[i];
    if (i + 1 >= argc) {
      fprintf(stderr, "missing value for %s\n", a.c_str());
      return false;
    }
    const char* v = argv[++i];
    if (a == "--workload") {
      args->workload = v;
    } else if (a == "--seed") {
      args->seed = strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = atof(v);
    } else if (a == "--trace") {
      args->trace = atoi(v);
    } else if (a == "--trace-dir") {
      args->trace_dir = v;
    } else {
      fprintf(stderr, "unknown argument %s\n", a.c_str());
      return false;
    }
  }
  return true;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

int RunUntraced(Harness* h, double seconds) {
  const Workload& w = h->workload();
  // The window runs on the first set-up's cluster; the other set-ups are
  // timed after it, so the process hosts one cluster when rss_mb is taken.
  std::vector<double> setups = {h->Setup()};
  fputs(EchoOptions(h->cluster()).c_str(), stdout);
  nova::lsm::VersionRef v = h->engine()->versions()->current();
  printf("lsm after set-up: files per level");
  for (int level = 0; level < v->num_levels(); level++) {
    printf(" %zu", v->files(level).size());
  }
  printf("\n");

  WindowResult r = RunClientWindow(h, seconds);
  h->Quiesce();
  uint64_t stored = 0;
  for (int i = 0; i < h->cluster()->num_stocs(); i++) {
    stored += h->cluster()->block_store(i)->TotalBytes();
  }
  double live = static_cast<double>(w.num_keys) * (kKeySize + kValueSize);
  h->ReadBack();
  while (setups.size() < static_cast<size_t>(kSetupRepeats)) {
    setups.push_back(h->Setup());
  }
  for (size_t i = 0; i < setups.size(); i++) {
    printf("setup %zu: %.3f s\n", i + 1, setups[i]);
  }

  // Whole-window figures, for the report.
  static const char* kOpNames[] = {"get", "put", "scan"};
  uint64_t total[3] = {0, 0, 0};
  for (int op = 0; op < 3; op++) {
    std::vector<uint64_t> all;
    for (int s = 0; s < kSlices; s++) {
      total[op] += r.ops[s][op];
      all.insert(all.end(), r.latency_ns[s][op].begin(),
                 r.latency_ns[s][op].end());
    }
    if (all.empty()) {
      continue;
    }
    for (double p : {0.50, 0.99}) {
      Percentile pc = ExactPercentile(&all, p);
      printf("window %s_p%d_us: %.3f us (samples=%llu, beyond=%llu%s)\n",
             kOpNames[op], static_cast<int>(p * 100 + 0.5), pc.value / 1e3,
             static_cast<unsigned long long>(pc.samples),
             static_cast<unsigned long long>(pc.beyond),
             pc.supported ? "" : ", unsupported: <10 samples beyond");
    }
  }
  printf("window: %.3f s, ops get=%llu put=%llu scan=%llu\n", r.seconds,
         static_cast<unsigned long long>(total[0]),
         static_cast<unsigned long long>(total[1]),
         static_cast<unsigned long long>(total[2]));
  const Counters& c = r.counters;
  const double ops = std::max<double>(1, total[0] + total[1] + total[2]);
  printf("window counters: cpu %.1f us/op, %.2f ctx switches/op, %.0f "
         "flushes, %.0f compactions, %.0f minor + %.0f major Drange "
         "reorganizations, stall %.2f us/put, %.2f stoc reads/op\n",
         c[kCpuUs] / ops, c[kCtxSwitches] / ops, c[kFlushes], c[kCompactions],
         c[kMinorReorgs], c[kMajorReorgs],
         c[kStallUs] / std::max<double>(1, c[kPuts]), c[kStocReads] / ops);

  // Gated figures: medians over slices of the window.
  const int timed_op = static_cast<int>(w.timed_op());
  const double slice_s = r.seconds / kSlices;
  std::vector<double> tput, p50, p99;
  for (int s = 0; s < kSlices; s++) {
    tput.push_back((r.ops[s][0] + r.ops[s][1] + r.ops[s][2]) / slice_s);
    Percentile lo = ExactPercentile(&r.latency_ns[s][timed_op], 0.50);
    Percentile hi = ExactPercentile(&r.latency_ns[s][timed_op], 0.99);
    printf("slice %d: %.1f ops/s, %s p50 %.3f us, p99 %.3f us "
           "(samples=%llu, beyond p99=%llu)\n",
           s, tput.back(), kOpNames[timed_op], lo.value / 1e3, hi.value / 1e3,
           static_cast<unsigned long long>(hi.samples),
           static_cast<unsigned long long>(hi.beyond));
    if (lo.samples > 0) {
      p50.push_back(lo.value / 1e3);
    }
    if (hi.supported) {
      p99.push_back(hi.value / 1e3);
    }
  }
  printf("error_ratio: %.6g (%llu failed of %llu attempted)\n",
         h->attempted() ? static_cast<double>(h->failed()) / h->attempted() : 0,
         static_cast<unsigned long long>(h->failed()),
         static_cast<unsigned long long>(h->attempted()));
  for (const std::string& e : h->errors()) {
    printf("FAILED: %s\n", e.c_str());
  }
  // A window too slow for per-slice p99s (most slices with fewer than 10
  // samples beyond it) reports the whole window's p99 instead, as long as
  // that one has 10 samples beyond it.
  double op_p99_us = 0;
  if (p99.size() * 2 > static_cast<size_t>(kSlices)) {
    op_p99_us = Median(p99);
  } else {
    std::vector<uint64_t> all;
    for (int s = 0; s < kSlices; s++) {
      all.insert(all.end(), r.latency_ns[s][timed_op].begin(),
                 r.latency_ns[s][timed_op].end());
    }
    Percentile pc = ExactPercentile(&all, 0.99);
    printf("op_p99_us: only %zu of %d slices have 10 samples beyond their "
           "p99; reporting the whole window's\n", p99.size(), kSlices);
    if (!pc.supported) {
      fprintf(stderr, "op p99 has fewer than 10 samples beyond it\n");
      return 1;
    }
    op_p99_us = pc.value / 1e3;
  }
  std::vector<Metric> metrics;
  metrics.push_back({"setup_s", Median(setups), "s"});
  metrics.push_back({"throughput_ops_s", Median(tput), "ops/s"});
  metrics.push_back({"op_p50_us", Median(p50), "us"});
  metrics.push_back({"op_p99_us", op_p99_us, "us"});
  metrics.push_back({"space_amp", stored / live, "x"});
  metrics.push_back({"rss_mb", r.rss_mb, "MB"});
  PrintResult(h, metrics);
  return h->failed() == 0 ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return 2;
  }
  std::string self_test = CheckerSelfTest();
  if (!self_test.empty()) {
    fprintf(stderr, "checker self-test FAILED: %s\n", self_test.c_str());
    return 1;
  }
  printf("checker self-test: ok (flipped byte, wrong key, missing key, "
         "stale version and bad scans are caught)\n");
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr || args.seconds <= 0 || (args.trace != 0 && args.trace != 1)) {
    fprintf(stderr, "usage: perfbench --workload <%s> --seed N --seconds S "
            "--trace 0|1\n", WorkloadNames().c_str());
    return 2;
  }
  printf("workload %s seed=%llu seconds=%g trace=%d threads=%d keys=%llu "
         "value=%zu read_fraction=%g zipf=%g logged=%d\n",
         w->name, static_cast<unsigned long long>(args.seed), args.seconds,
         args.trace, kClientThreads,
         static_cast<unsigned long long>(w->num_keys), kValueSize,
         w->read_fraction, w->zipf_theta, w->logged);
  Harness h(*w, args.seed);
  int rc = args.trace == 0 ? RunUntraced(&h, args.seconds)
                           : RunTraced(&h, args.seconds, args.trace_dir);
  h.Teardown();
  return rc;
}
