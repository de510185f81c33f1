#include "driver.h"

#include <malloc.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <cstdio>
#include <thread>

#include "client/nova_client.h"

namespace perfbench {

double NowSeconds() { return NowNs() / 1e9; }

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Percentile ExactPercentile(std::vector<uint64_t>* samples, double p) {
  Percentile out;
  out.samples = samples->size();
  if (samples->empty()) {
    return out;
  }
  std::sort(samples->begin(), samples->end());
  uint64_t rank = static_cast<uint64_t>(std::ceil(p * samples->size()));
  rank = std::max<uint64_t>(rank, 1);
  out.value = static_cast<double>((*samples)[rank - 1]);
  out.beyond = samples->size() - rank;
  out.supported = out.beyond >= 10;
  return out;
}

OpStream::OpStream(const Workload& w, uint64_t seed, int thread)
    : w_(w),
      rng_(seed * 0x2545f4914f6cdd1dULL + thread + 1),
      scan_keys_(w.num_keys) {
  if (w.zipf_theta > 0) {
    keys_ = std::make_unique<nova::ZipfianGenerator>(w.num_keys, w.zipf_theta);
  } else {
    keys_ = std::make_unique<nova::UniformGenerator>(w.num_keys);
  }
}

OpStream::Next OpStream::Draw() {
  Next next;
  next.op = rng_.NextDouble() < w_.read_fraction ? w_.read_op : Op::kPut;
  // Scan start keys are uniform: a Zipfian start would rescan one hot run.
  nova::KeyGenerator* keys =
      next.op == Op::kScan ? &scan_keys_ : keys_.get();
  next.key = keys->Next(&rng_);
  return next;
}

double RssMb() {
  FILE* f = fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long size = 0;
  unsigned long long resident = 0;
  int n = fscanf(f, "%llu %llu", &size, &resident);
  fclose(f);
  if (n != 2) {
    return 0;
  }
  return resident * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

Harness::Harness(const Workload& w, uint64_t seed)
    : w_(w),
      seed_(seed),
      checker_(seed, w.num_keys, kValueSize, kScanLength) {}

Harness::~Harness() { Teardown(); }

nova::ltc::RangeEngine* Harness::engine() {
  return cluster_->ltc(0)->ranges().front();
}

double Harness::Setup() {
  Teardown();
  double start = NowSeconds();
  cluster_ = std::make_unique<nova::coord::Cluster>(PinnedClusterOptions(w_));
  cluster_->Start();
  states_ = std::make_unique<KeyStates>(w_.num_keys);
  std::vector<std::thread> loaders;
  for (int t = 0; t < kClientThreads; t++) {
    loaders.emplace_back([this, t] {
      nova::client::NovaClient client(cluster_.get());
      std::string value;
      uint64_t begin = w_.num_keys * t / kClientThreads;
      uint64_t end = w_.num_keys * (t + 1) / kClientThreads;
      for (uint64_t k = begin; k < end; k++) {
        EncodeValue(seed_, k, 1, kValueSize, &value);
        nova::Status s = client.Put(MakeKey(k), value);
        Record(s.ok() ? "" : "load put " + MakeKey(k) + ": " + s.ToString());
      }
    });
  }
  for (std::thread& t : loaders) {
    t.join();
  }
  Quiesce();
  return NowSeconds() - start;
}

void Harness::Teardown() {
  if (cluster_ != nullptr) {
    cluster_->Stop();
    cluster_.reset();
  }
}

void Harness::Quiesce() {
  for (nova::ltc::RangeEngine* e : cluster_->ltc(0)->ranges()) {
    e->FlushAllMemtables();
  }
  for (nova::ltc::RangeEngine* e : cluster_->ltc(0)->ranges()) {
    e->WaitForQuiescence(/*flush_all=*/true);
  }
}

void Harness::ReadBack() {
  std::vector<std::thread> readers;
  for (int t = 0; t < kClientThreads; t++) {
    readers.emplace_back([this, t] {
      nova::client::NovaClient client(cluster_.get());
      std::string value;
      uint64_t begin = w_.num_keys * t / kClientThreads;
      uint64_t end = w_.num_keys * (t + 1) / kClientThreads;
      for (uint64_t k = begin; k < end; k++) {
        nova::Status s = client.Get(MakeKey(k), &value);
        std::string err =
            s.ok() ? checker_.CheckGet(*states_, k, states_->Floor(k), value)
                   : s.ToString();
        Record(err.empty() ? "" : "read-back " + MakeKey(k) + ": " + err);
      }
    });
  }
  for (std::thread& t : readers) {
    t.join();
  }
}

Counters Harness::ReadCounters() {
  nova::ltc::RangeStats st = cluster_->TotalStats();
  Counters c{};
  c[kPuts] = st.puts;
  c[kStallUs] = st.stall_us;
  c[kStallEvents] = st.stall_events;
  c[kFlushes] = st.flushes;
  c[kMerges] = st.memtable_merges;
  c[kBytesFlushed] = st.bytes_flushed;
  c[kLookupHits] = st.lookup_index_hits;
  c[kLookupMisses] = st.lookup_index_misses;
  c[kCompactions] = st.compactions;
  c[kCompactionBytesWritten] = st.compaction_bytes_written;
  c[kCompactionQueueUs] = st.compaction_queue_us;
  c[kReadaheadIssued] = st.readahead_issued;
  c[kReadaheadHits] = st.readahead_hits;
  c[kHotHits] = st.block_cache_hits;
  c[kHotMisses] = st.block_cache_misses;
  c[kCompressedHits] = st.block_cache_compressed_hits;
  c[kCompressedMisses] = st.block_cache_compressed_misses;
  c[kWireBytes] = st.bytes_over_wire;
  c[kHedgedIssued] = st.hedged_issued;
  c[kHedgedWon] = st.hedged_won;
  c[kStocReads] = cluster_->ltc(0)->stoc_client()->read_block_calls();
  for (int i = 0; i < cluster_->num_stocs(); i++) {
    nova::SimulatedDevice* d = cluster_->device(i);
    c[kDeviceReads] += d->num_reads();
    c[kDeviceWrites] += d->num_writes();
    c[kDeviceBytesWritten] += d->bytes_written();
  }
  for (nova::ltc::RangeEngine* e : cluster_->ltc(0)->ranges()) {
    c[kMinorReorgs] += e->dranges()->num_minor_reorgs();
    c[kMajorReorgs] += e->dranges()->num_major_reorgs();
  }
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  c[kCpuUs] = ts.tv_sec * 1e6 + ts.tv_nsec / 1e3;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  c[kCtxSwitches] = ru.ru_nvcsw + ru.ru_nivcsw;
  return c;
}

void Harness::Record(const std::string& error) {
  attempted_.fetch_add(1, std::memory_order_relaxed);
  if (error.empty()) {
    return;
  }
  failed_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> l(errors_mu_);
  if (errors_.size() < 10) {
    errors_.push_back(error);
  }
}

std::vector<std::string> Harness::errors() {
  std::lock_guard<std::mutex> l(errors_mu_);
  return errors_;
}

void PrintResult(Harness* h, const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    printf("metric %s = %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += h->failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(h->attempted());
  json += ", \"failed\": " + std::to_string(h->failed());
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); i++) {
    char buf[256];
    snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
             metrics[i].unit.c_str());
    json += buf;
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
}

uint64_t RunClientOp(Harness* h, nova::client::NovaClient* client,
                     const OpStream::Next& next, std::string* scratch) {
  return RunCheckedOp(
      h, next, scratch,
      [client](const std::string& k, std::string* v) {
        return client->Get(k, v);
      },
      [client](const std::string& k, const std::string& v) {
        return client->Put(k, v);
      },
      [client](const std::string& k, int n,
               std::vector<std::pair<std::string, std::string>>* out) {
        return client->Scan(k, n, out);
      });
}

WindowResult RunClientWindow(Harness* h, double seconds) {
  WindowResult result;
  // 0 = warm-up, 1 = timed, 2 = stop. An op counts as timed when it both
  // started and finished in phase 1.
  std::atomic<int> phase{0};
  std::atomic<int64_t> start_ns{0};
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9);
  std::vector<WindowResult> per_thread(kClientThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; t++) {
    threads.emplace_back([h, t, window_ns, &phase, &start_ns, &per_thread] {
      nova::client::NovaClient client(h->cluster());
      OpStream stream(h->workload(), h->seed(), t);
      WindowResult& mine = per_thread[t];
      std::string scratch;
      int ph;
      while ((ph = phase.load(std::memory_order_acquire)) != 2) {
        OpStream::Next next = stream.Draw();
        uint64_t ns = RunClientOp(h, &client, next, &scratch);
        if (ph == 1 && phase.load(std::memory_order_acquire) == 1) {
          int64_t into = NowNs() - start_ns.load(std::memory_order_acquire);
          int slice = static_cast<int>(
              std::min<int64_t>(kSlices - 1, into * kSlices / window_ns));
          int op = static_cast<int>(next.op);
          mine.ops[slice][op]++;
          mine.latency_ns[slice][op].push_back(ns);
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  Counters before = h->ReadCounters();
  double start = NowSeconds();
  start_ns.store(NowNs(), std::memory_order_release);
  phase.store(1, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  phase.store(2, std::memory_order_release);
  result.seconds = NowSeconds() - start;
  Counters after = h->ReadCounters();
  for (int c = 0; c < kNumCounters; c++) {
    result.counters[c] = after[c] - before[c];
  }
  // Free heap pages go back to the OS first, so rss_mb counts memory the
  // store holds rather than what the allocator happened to keep cached.
  malloc_trim(0);
  result.rss_mb = RssMb();
  for (std::thread& t : threads) {
    t.join();
  }
  for (WindowResult& r : per_thread) {
    for (int s = 0; s < kSlices; s++) {
      for (int op = 0; op < 3; op++) {
        result.ops[s][op] += r.ops[s][op];
        std::vector<uint64_t>& dst = result.latency_ns[s][op];
        dst.insert(dst.end(), r.latency_ns[s][op].begin(),
                   r.latency_ns[s][op].end());
      }
    }
  }
  return result;
}

}  // namespace perfbench
