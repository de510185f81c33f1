#include "traced.h"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include "client/nova_client.h"
#include "logc/log_client.h"
#include "sstable/block.h"
#include "sstable/format.h"

namespace perfbench {

namespace {

using nova::Status;

enum SpanKind : uint8_t {
  kOpGet,
  kOpPut,
  kOpScan,
  kRoute,
  kEngineGet,
  kEnginePut,
  kEngineScan,
  kNumSpanKinds
};
const char* const kSpanNames[kNumSpanKinds] = {
    "op.get",         "op.put",         "op.scan",        "client.route",
    "ltc.engine.get", "ltc.engine.put", "ltc.engine.scan"};

/// One span; spans of one operation share op_id. The root is op.<type>;
/// client.route and ltc.engine.<type> are its children.
struct Span {
  uint64_t op_id;
  int64_t start_ns;
  int64_t end_ns;
  SpanKind kind;
};

struct Gauge {
  double sum = 0;
  double max = 0;
  uint64_t n = 0;
  void Add(double v) {
    sum += v;
    max = std::max(max, v);
    n++;
  }
  double mean() const { return n ? sum / n : 0; }
};

/// The traced run's window: untraced and traced slices alternate, so a
/// workload whose speed drifts over a run (L0 growth, reorganizations)
/// drifts equally under both and trace.overhead_ratio compares like with
/// like.
struct TracedWindow {
  // Untraced slices: operations through NovaClient, counter deltas.
  double untraced_s = 0;
  uint64_t untraced_ops[3] = {0, 0, 0};
  Counters counters{};
  uint64_t config_refreshes = 0;
  // Traced slices: operations at the layer entry points, spans, gauges.
  double traced_s = 0;
  uint64_t traced_ops = 0;
  std::vector<std::vector<Span>> spans;  // per thread
  Gauge memtables, flush_queue, compaction_queue, l0_files, pending_waiters,
      storage_queue;

  uint64_t untraced_total() const {
    return untraced_ops[0] + untraced_ops[1] + untraced_ops[2];
  }
};

/// Routing exactly as the client library does it: the coordinator's
/// configuration names the LTC, the LTC names the range.
nova::ltc::RangeEngine* Route(nova::coord::Cluster* cluster,
                              const std::string& key) {
  int idx = cluster->coordinator()->config().LtcForKey(key);
  if (idx < 0) {
    return nullptr;
  }
  return cluster->ltc(idx)->RouteKey(key);
}

enum Mode { kWarmup, kUntraced, kTraced, kStop };
constexpr double kSliceSeconds = 0.5;

void SampleGauges(Harness* h, TracedWindow* w) {
  nova::coord::Cluster* cluster = h->cluster();
  nova::ltc::LtcServer* ltc = cluster->ltc(0);
  nova::ltc::RangeEngine* engine = h->engine();
  w->memtables.Add(engine->num_memtables());
  w->flush_queue.Add(ltc->flush_pool()->queue_depth());
  w->compaction_queue.Add(ltc->compaction_pool()->queue_depth());
  w->l0_files.Add(engine->versions()->current()->files(0).size());
  w->pending_waiters.Add(ltc->endpoint()->num_pending_waiters());
  int queue = 0;
  for (int i = 0; i < cluster->num_stocs(); i++) {
    queue = std::max(queue, cluster->device(i)->QueueDepth());
  }
  w->storage_queue.Add(queue);
}

TracedWindow RunTracedWindow(Harness* h, double seconds) {
  TracedWindow result;
  result.spans.resize(kClientThreads);
  std::vector<TracedWindow> per_thread(kClientThreads);
  std::atomic<int> mode{kWarmup};
  nova::coord::Cluster* cluster = h->cluster();
  std::vector<std::thread> threads;
  for (int t = 0; t < kClientThreads; t++) {
    threads.emplace_back([h, t, cluster, &mode, &result, &per_thread] {
      nova::client::NovaClient client(cluster);
      OpStream stream(h->workload(), h->seed(), t);
      std::vector<Span>& spans = result.spans[t];
      spans.reserve(1 << 20);
      TracedWindow& mine = per_thread[t];
      std::string scratch;
      uint64_t seq = 0;
      int m;
      while ((m = mode.load(std::memory_order_acquire)) != kStop) {
        OpStream::Next next = stream.Draw();
        if (m != kTraced) {
          RunClientOp(h, &client, next, &scratch);
          if (m == kUntraced && mode.load(std::memory_order_acquire) == m) {
            mine.untraced_ops[static_cast<int>(next.op)]++;
          }
          continue;
        }
        const uint64_t op_id = (static_cast<uint64_t>(t) << 48) | seq++;
        const SpanKind root = static_cast<SpanKind>(next.op);
        const SpanKind engine_kind =
            static_cast<SpanKind>(kEngineGet + static_cast<int>(next.op));
        // Root start = route start; route end = engine start.
        auto traced = [&](const std::string& key, auto&& call) {
          int64_t t0 = NowNs();
          nova::ltc::RangeEngine* engine = Route(cluster, key);
          int64_t t1 = NowNs();
          Status s = engine != nullptr
                         ? call(engine)
                         : Status::InvalidArgument("no range for key");
          int64_t t2 = NowNs();
          spans.push_back({op_id, t0, t1, kRoute});
          spans.push_back({op_id, t1, t2, engine_kind});
          spans.push_back({op_id, t0, NowNs(), root});
          return s;
        };
        RunCheckedOp(
            h, next, &scratch,
            [&](const std::string& k, std::string* v) {
              return traced(k, [&](nova::ltc::RangeEngine* e) {
                return e->Get(k, v);
              });
            },
            [&](const std::string& k, const std::string& v) {
              return traced(k, [&](nova::ltc::RangeEngine* e) {
                return e->Put(k, v);
              });
            },
            [&](const std::string& k, int n,
                std::vector<std::pair<std::string, std::string>>* out) {
              return traced(k, [&](nova::ltc::RangeEngine* e) {
                return e->Scan(k, n, out);
              });
            });
        if (mode.load(std::memory_order_acquire) == m) {
          mine.traced_ops++;
        }
      }
      mine.config_refreshes = client.config_refreshes();
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(kWarmupSeconds));
  // Both kinds of slice get seconds / 2 in total.
  const int slices = std::max(2, static_cast<int>(seconds / kSliceSeconds + 0.5));
  const double slice = seconds / slices;
  for (int i = 0; i < slices; i++) {
    const bool traced = i % 2 == 1;
    Counters before = h->ReadCounters();
    double start = NowSeconds();
    mode.store(traced ? kTraced : kUntraced, std::memory_order_release);
    if (traced) {
      while (NowSeconds() - start < slice) {
        SampleGauges(h, &result);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    } else {
      std::this_thread::sleep_for(std::chrono::duration<double>(slice));
    }
    double elapsed = NowSeconds() - start;
    if (traced) {
      result.traced_s += elapsed;
      continue;
    }
    // The next slice's mode is set right after this read.
    Counters after = h->ReadCounters();
    for (int c = 0; c < kNumCounters; c++) {
      result.counters[c] += after[c] - before[c];
    }
    result.untraced_s += elapsed;
  }
  mode.store(kStop, std::memory_order_release);
  for (std::thread& t : threads) {
    t.join();
  }
  for (const TracedWindow& r : per_thread) {
    for (int op = 0; op < 3; op++) {
      result.untraced_ops[op] += r.untraced_ops[op];
    }
    result.traced_ops += r.traced_ops;
    result.config_refreshes += r.config_refreshes;
  }
  return result;
}

struct StoredBlock {
  nova::lsm::BlockLocation location;
  uint64_t offset = 0;
  uint64_t size = 0;
};

/// Up to `limit` real data blocks of the live SSTables, spread over files
/// and replicas, located through each file's replicated metadata block.
std::vector<StoredBlock> CollectBlocks(Harness* h, size_t limit) {
  nova::stoc::StocClient* client = h->cluster()->ltc(0)->stoc_client();
  nova::lsm::VersionRef version = h->engine()->versions()->current();
  std::vector<StoredBlock> blocks;
  const size_t kPerFile = 64;
  for (int level = 0; level < version->num_levels(); level++) {
    for (const nova::lsm::FileMetaRef& file : version->files(level)) {
      if (blocks.size() >= limit) {
        return blocks;
      }
      std::vector<nova::stoc::GatherRead::Target> targets;
      for (const nova::lsm::BlockLocation& loc : file->meta_replicas) {
        targets.push_back({loc.stoc_id, loc.file_id});
      }
      std::string encoded;
      nova::SSTableMetadata meta;
      Status s = client->ReadReplicated(targets, 0, 0, &encoded);
      if (s.ok()) {
        s = meta.DecodeFrom(encoded);
      }
      if (!s.ok()) {
        h->Record("probe: metadata of file " + std::to_string(file->number) +
                  ": " + s.ToString());
        continue;
      }
      nova::Block index(meta.index_contents);
      nova::InternalKeyComparator icmp;
      std::unique_ptr<nova::Iterator> it(index.NewIterator(&icmp));
      size_t taken = 0;
      for (it->SeekToFirst(); it->Valid() && taken < kPerFile; it->Next()) {
        nova::Slice encoded_handle = it->value();
        nova::BlockHandle handle;
        int fragment = 0;
        uint64_t local = 0;
        if (!handle.DecodeFrom(&encoded_handle).ok() ||
            !meta.Locate(handle.offset, &fragment, &local) ||
            fragment >= static_cast<int>(file->fragments.size()) ||
            file->fragments[fragment].empty()) {
          h->Record("probe: bad index entry in file " +
                    std::to_string(file->number));
          break;
        }
        const auto& replicas = file->fragments[fragment];
        StoredBlock b;
        b.location = replicas[blocks.size() % replicas.size()];
        b.offset = local;
        b.size = handle.size;
        blocks.push_back(b);
        taken++;
      }
    }
  }
  return blocks;
}

struct Probes {
  std::vector<uint64_t> read_block_ns;
  std::vector<uint64_t> decode_block_ns;
  std::vector<uint64_t> log_append_ns;
  std::vector<uint64_t> device_io_ns;
};

/// Single-threaded, one call in flight, on the quiesced cluster: these
/// are unloaded per-call costs.
Probes RunProbes(Harness* h) {
  Probes p;
  nova::coord::Cluster* cluster = h->cluster();
  nova::stoc::StocClient* client = cluster->ltc(0)->stoc_client();

  std::vector<StoredBlock> blocks = CollectBlocks(h, 2000);
  std::vector<std::string> stored(blocks.size());
  for (size_t i = 0; i < blocks.size(); i++) {
    const StoredBlock& b = blocks[i];
    int64_t t0 = NowNs();
    Status s = client->ReadBlock(b.location.stoc_id, b.location.file_id,
                                 b.offset, b.size, &stored[i]);
    p.read_block_ns.push_back(NowNs() - t0);
    h->Record(s.ok() ? "" : "probe: ReadBlock: " + s.ToString());
  }
  std::string raw;
  for (const std::string& block : stored) {
    if (block.empty()) {
      continue;
    }
    int64_t t0 = NowNs();
    Status s = nova::DecodeBlock(block, &raw);
    p.decode_block_ns.push_back(NowNs() - t0);
    h->Record(s.ok() ? "" : "probe: DecodeBlock: " + s.ToString());
  }

  // A log file of its own (range id no range uses), 3 in-memory replicas.
  nova::logc::LogOptions log_options;
  log_options.mode = nova::logc::LogMode::kInMemory;
  log_options.num_replicas = 3;
  log_options.region_size = 1 << 20;
  log_options.use_nic_path = false;
  nova::logc::LogClient log(client, 0xffff, log_options);
  const uint64_t kMemtableId = 1;
  Status s = log.CreateLogFile(kMemtableId, cluster->AliveStocNodes());
  h->Record(s.ok() ? "" : "probe: CreateLogFile: " + s.ToString());
  if (s.ok()) {
    nova::logc::LogRecord rec;
    rec.memtable_id = kMemtableId;
    rec.type = nova::kTypeValue;
    for (uint64_t i = 0; i < 2000; i++) {
      rec.sequence = i + 1;
      rec.key = MakeKey(i);
      EncodeValue(h->seed(), i, 1, kValueSize, &rec.value);
      int64_t t0 = NowNs();
      s = log.Append(kMemtableId, rec);
      p.log_append_ns.push_back(NowNs() - t0);
      h->Record(s.ok() ? "" : "probe: LogClient::Append: " + s.ToString());
    }
    s = log.DeleteLogFile(kMemtableId);
    h->Record(s.ok() ? "" : "probe: DeleteLogFile: " + s.ToString());
  }

  for (int i = 0; i < 2000; i++) {
    nova::SimulatedDevice* device = cluster->device(i % cluster->num_stocs());
    int64_t t0 = NowNs();
    device->BlockingIo(nova::SimulatedDevice::IoKind::kRead, 4096, 0);
    p.device_io_ns.push_back(NowNs() - t0);
  }
  return p;
}

/// p50 or p99 in microseconds; 0 when there are no samples, and for a p99
/// with fewer than 10 samples beyond it (flagged in the report).
double PercentileUs(std::vector<uint64_t> samples, double p,
                    const std::string& name) {
  Percentile pc = ExactPercentile(&samples, p);
  printf("percentile %s: %.3f us (samples=%llu, beyond=%llu)%s\n",
         name.c_str(), pc.value / 1e3,
         static_cast<unsigned long long>(pc.samples),
         static_cast<unsigned long long>(pc.beyond),
         pc.samples > 0 && !pc.supported && p > 0.5
             ? " unsupported, reported as 0"
             : "");
  if (pc.samples == 0 || (p > 0.5 && !pc.supported)) {
    return 0;
  }
  return pc.value / 1e3;
}

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// CSV, one span per line; a child's parent is its operation's root span
/// (same op_id).
void WriteSpans(const TracedWindow& t, const std::string& path) {
  FILE* f = fopen(path.c_str(), "w");
  if (f == nullptr) {
    fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  fprintf(f, "op_id,span,parent,start_ns,end_ns\n");
  for (const std::vector<Span>& spans : t.spans) {
    // Each operation appended route, engine, root, in that order.
    for (size_t i = 0; i + 2 < spans.size(); i += 3) {
      const char* root = kSpanNames[spans[i + 2].kind];
      for (size_t j = i; j < i + 3; j++) {
        const Span& s = spans[j];
        fprintf(f, "%llu,%s,%s,%lld,%lld\n",
                static_cast<unsigned long long>(s.op_id), kSpanNames[s.kind],
                j == i + 2 ? "-" : root, static_cast<long long>(s.start_ns),
                static_cast<long long>(s.end_ns));
      }
    }
  }
  fclose(f);
}

}  // namespace

int RunTraced(Harness* h, double seconds, const std::string& trace_dir) {
  const Workload& w = h->workload();
  printf("setup: %.3f s\n", h->Setup());
  fputs(EchoOptions(h->cluster()).c_str(), stdout);

  TracedWindow t = RunTracedWindow(h, seconds);
  nova::ltc::RangeStats totals = h->cluster()->TotalStats();
  h->Quiesce();
  uint64_t stored_bytes = 0;
  for (int i = 0; i < h->cluster()->num_stocs(); i++) {
    stored_bytes += h->cluster()->block_store(i)->TotalBytes();
  }
  Probes probes = RunProbes(h);
  h->ReadBack();

  // Span durations by name, and the root's self time (span - children).
  std::vector<uint64_t> dur[kNumSpanKinds];
  std::vector<uint64_t> root_self[3];
  for (const std::vector<Span>& spans : t.spans) {
    for (size_t i = 0; i + 2 < spans.size(); i += 3) {
      const Span& route = spans[i];
      const Span& eng = spans[i + 1];
      const Span& root = spans[i + 2];
      for (const Span* s : {&route, &eng, &root}) {
        dur[s->kind].push_back(s->end_ns - s->start_ns);
      }
      int64_t children = (route.end_ns - route.start_ns) +
                         (eng.end_ns - eng.start_ns);
      root_self[root.kind].push_back(root.end_ns - root.start_ns - children);
    }
  }
  std::error_code ec;
  std::filesystem::create_directories(trace_dir, ec);
  // One file per workload, replaced by each run, so disk use stays bounded.
  std::string span_path = trace_dir + "/spans-" + w.name + ".csv";
  WriteSpans(t, span_path);
  uint64_t num_spans = 0;
  for (const auto& s : t.spans) {
    num_spans += s.size();
  }
  printf("spans: %llu written to %s\n",
         static_cast<unsigned long long>(num_spans), span_path.c_str());
  for (int k = kOpGet; k <= kOpScan; k++) {
    if (!root_self[k].empty()) {
      PercentileUs(root_self[k], 0.5,
                   std::string(kSpanNames[k]) + ".self_us.p50");
    }
  }

  const Counters& c = t.counters;
  const double window = t.untraced_s;
  const double ops = t.untraced_total();
  const double puts = c[kPuts];
  const double user_bytes_put = puts * (kKeySize + kValueSize);
  const double untraced_tput = ops / t.untraced_s;
  const double traced_tput = t.traced_ops / t.traced_s;

  std::vector<Metric> m;
  m.push_back({"client.route_us.p50",
               PercentileUs(dur[kRoute], 0.5, "client.route_us.p50"), "us"});
  m.push_back({"client.config_refreshes",
               static_cast<double>(t.config_refreshes), "count"});
  const char* kEngineNames[] = {"get", "put", "scan"};
  for (int op = 0; op < 3; op++) {
    for (double p : {0.5, 0.99}) {
      std::string name = std::string("ltc.engine_") + kEngineNames[op] +
                         (p < 0.9 ? "_us.p50" : "_us.p99");
      m.push_back({name, PercentileUs(dur[kEngineGet + op], p, name), "us"});
    }
  }
  m.push_back({"ltc.stall_us_per_put", Ratio(c[kStallUs], puts), "us/put"});
  m.push_back({"ltc.stall_events_per_kput",
               Ratio(1000 * c[kStallEvents], puts), "count/kput"});
  m.push_back({"ltc.flushes_per_s", c[kFlushes] / window, "1/s"});
  m.push_back({"ltc.merges_per_s", c[kMerges] / window, "1/s"});
  m.push_back({"ltc.bytes_per_flush",
               Ratio(c[kBytesFlushed], c[kFlushes]), "B"});
  m.push_back({"ltc.lookup_index_hit_ratio",
               Ratio(c[kLookupHits], c[kLookupHits] + c[kLookupMisses]),
               "ratio"});
  m.push_back({"ltc.memtables.mean", t.memtables.mean(), "count"});
  m.push_back({"ltc.memtables.max", t.memtables.max, "count"});
  m.push_back({"ltc.flush_queue.max", t.flush_queue.max, "count"});
  m.push_back({"ltc.compaction_queue.max", t.compaction_queue.max, "count"});
  m.push_back({"logc.append_us.p50",
               PercentileUs(probes.log_append_ns, 0.5, "logc.append_us.p50"),
               "us"});
  m.push_back({"logc.append_us.p99",
               PercentileUs(probes.log_append_ns, 0.99, "logc.append_us.p99"),
               "us"});
  m.push_back({"lsm.write_amp",
               Ratio(c[kBytesFlushed] + c[kCompactionBytesWritten],
                     user_bytes_put),
               "ratio"});
  m.push_back({"lsm.compactions_per_s", c[kCompactions] / window, "1/s"});
  m.push_back({"lsm.compaction_queue_us",
               Ratio(c[kCompactionQueueUs], c[kCompactions]), "us"});
  m.push_back({"lsm.l0_files.mean", t.l0_files.mean(), "count"});
  m.push_back({"lsm.l0_files.max", t.l0_files.max, "count"});
  m.push_back({"sstable.compression_ratio",
               Ratio(totals.sstable_raw_bytes, totals.sstable_stored_bytes), "ratio"});
  m.push_back({"sstable.readahead_hit_ratio",
               Ratio(c[kReadaheadHits], c[kReadaheadIssued]),
               "ratio"});
  m.push_back({"sstable.decode_block_us.p50",
               PercentileUs(probes.decode_block_ns, 0.5,
                            "sstable.decode_block_us.p50"),
               "us"});
  m.push_back({"cache.hot_hit_ratio",
               Ratio(c[kHotHits], c[kHotHits] + c[kHotMisses]),
               "ratio"});
  m.push_back({"cache.compressed_hit_ratio",
               Ratio(c[kCompressedHits], c[kCompressedHits] + c[kCompressedMisses]),
               "ratio"});
  m.push_back({"cache.hot_bytes", static_cast<double>(totals.block_cache_bytes), "B"});
  m.push_back({"cache.compressed_bytes",
               static_cast<double>(totals.block_cache_compressed_bytes), "B"});
  m.push_back({"stoc.reads_per_get", Ratio(c[kStocReads], t.untraced_ops[0]), "count/op"});
  m.push_back({"stoc.reads_per_scan", Ratio(c[kStocReads], t.untraced_ops[2]), "count/op"});
  m.push_back({"stoc.wire_bytes_per_op", Ratio(c[kWireBytes], ops),
               "B/op"});
  m.push_back({"stoc.hedged_per_kread",
               Ratio(1000 * c[kHedgedIssued], c[kStocReads]), "count/kread"});
  m.push_back({"stoc.hedge_win_ratio",
               Ratio(c[kHedgedWon], c[kHedgedIssued]), "ratio"});
  m.push_back({"stoc.read_block_us.p50",
               PercentileUs(probes.read_block_ns, 0.5, "stoc.read_block_us.p50"),
               "us"});
  m.push_back({"stoc.read_block_us.p99",
               PercentileUs(probes.read_block_ns, 0.99, "stoc.read_block_us.p99"),
               "us"});
  m.push_back({"rdma.pending_waiters.max", t.pending_waiters.max, "count"});
  m.push_back({"storage.reads_per_op",
               Ratio(c[kDeviceReads], ops),
               "count/op"});
  m.push_back({"storage.writes_per_op",
               Ratio(c[kDeviceWrites], ops),
               "count/op"});
  m.push_back({"storage.bytes_written_per_user_byte",
               Ratio(c[kDeviceBytesWritten], user_bytes_put),
               "ratio"});
  m.push_back({"storage.stored_bytes", static_cast<double>(stored_bytes), "B"});
  m.push_back({"storage.queue.max", t.storage_queue.max, "count"});
  m.push_back({"storage.device_io_us.p50",
               PercentileUs(probes.device_io_ns, 0.5, "storage.device_io_us.p50"),
               "us"});
  m.push_back({"host.cpu_us_per_op",
               Ratio(c[kCpuUs], ops),
               "us/op"});
  m.push_back({"host.ctx_switches_per_op",
               Ratio(c[kCtxSwitches], ops),
               "count/op"});
  m.push_back({"trace.overhead_ratio", Ratio(untraced_tput, traced_tput),
               "ratio"});

  printf("untraced slices: %.3f s, %.0f ops (%.1f ops/s); traced slices: "
         "%.3f s, %llu ops (%.1f ops/s)\n",
         t.untraced_s, ops, untraced_tput, t.traced_s,
         static_cast<unsigned long long>(t.traced_ops), traced_tput);
  // Lower-layer share of an operation = unloaded per-call probe cost x
  // calls per op. Not a bound either way: under load a call queues longer,
  // but an unloaded call also wakes idle threads at every hop, so a probe
  // can cost more than the same call under load.
  auto value = [&](const std::string& name) {
    for (const Metric& x : m) {
      if (x.name == name) {
        return x.value;
      }
    }
    return 0.0;
  };
  if (w.read_fraction > 0) {
    const int read_op = static_cast<int>(w.read_op);
    const double engine_read_us =
        value(std::string("ltc.engine_") + kEngineNames[read_op] + "_us.p50");
    const double reads_per_read_op =
        Ratio(c[kStocReads], t.untraced_ops[read_op]);
    const double stoc_share =
        reads_per_read_op * value("stoc.read_block_us.p50");
    const double decode_share =
        reads_per_read_op * value("sstable.decode_block_us.p50");
    printf("estimate (unloaded probes) per %s: engine p50 %.1f "
           "us; stoc %.2f reads x %.1f us = %.1f us (%.0f%%); decode of "
           "fetched blocks %.1f us (%.0f%%)\n",
           kEngineNames[read_op], engine_read_us, reads_per_read_op,
           value("stoc.read_block_us.p50"), stoc_share,
           100 * Ratio(stoc_share, engine_read_us), decode_share,
           100 * Ratio(decode_share, engine_read_us));
  }
  if (w.logged) {
    const double log_share = value("logc.append_us.p50");
    printf("estimate (unloaded probe) per put: engine p50 %.1f "
           "us; logc append %.1f us (%.0f%%)\n",
           value("ltc.engine_put_us.p50"), log_share,
           100 * Ratio(log_share, value("ltc.engine_put_us.p50")));
  }
  printf("error_ratio: %.6g (%llu failed of %llu attempted)\n",
         h->attempted() ? static_cast<double>(h->failed()) / h->attempted() : 0,
         static_cast<unsigned long long>(h->failed()),
         static_cast<unsigned long long>(h->attempted()));
  for (const std::string& e : h->errors()) {
    printf("FAILED: %s\n", e.c_str());
  }
  PrintResult(h, m);
  return h->failed() == 0 ? 0 : 1;
}

}  // namespace perfbench
