#include "spec.h"

#include <cstdio>

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json and
// perfbench/README.md. BENCHMARK.json lists write-logged, read-cold and
// scan-cold; the three mixed workloads run by name only while they fail
// their checks.
//   write-logged       write path alone: range lock, LogC append, rotation,
//                      flush, L0 compaction, lookup index upkeep. 64k keys:
//                      with 16k, what L0 and L1 hold after quiescence is a
//                      large share of the live data and space_amp swings.
//   read-cold          read path below the engine: cache tiers, block
//                      decode, StoC power-of-d fan-out, RPC, device queue.
//                      64k keys are several times the LTC cache; nothing is
//                      written.
//   scan-cold          the same quiesced data read by 10-record scans:
//                      range index, merging iterator, readahead, and the
//                      StoC reads of a sequential pass.
//   skew-rw-logged     write path under skew, with gets: adds Drange
//                      reorganization and the small-memtable merge. 16k
//                      keys fit the 12 MB of LTC cache.
//   uniform-rw-logged  gets racing the write path, without the skew.
//   scan-write         range index, merging iterator, readahead, plus flush
//                      and L0->L1 compaction cycling, with the log off.
const Workload kWorkloads[] = {
    {"skew-rw-logged", 0.5, Op::kGet, 16000, 0.99, true},
    {"uniform-rw-logged", 0.5, Op::kGet, 16000, 0.0, true},
    {"write-logged", 0.0, Op::kGet, 64000, 0.0, true},
    {"read-cold", 1.0, Op::kGet, 64000, 0.0, false},
    {"scan-cold", 1.0, Op::kScan, 64000, 0.0, false},
    {"scan-write", 0.5, Op::kScan, 64000, 0.0, false},
};

}  // namespace

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const Workload& w : kWorkloads) {
    out += out.empty() ? "" : ",";
    out += w.name;
  }
  return out;
}

nova::coord::ClusterOptions PinnedClusterOptions(const Workload& w) {
  using nova::logc::LogMode;
  nova::coord::ClusterOptions o;
  o.num_ltcs = 1;
  o.num_stocs = 3;
  o.split_points.clear();  // one range

  // Host time, not modeled time: devices complete without a modeled
  // service time, but every request still passes the device queue.
  o.device.bandwidth_bytes_per_sec = 2.0 * 1024 * 1024;
  o.device.seek_latency_us = 1500;
  o.device.time_scale = 0;
  o.device.sequential_optimization = true;

  o.stoc.num_xchg_threads = 2;
  o.stoc.num_storage_threads = 2;
  o.stoc.num_compaction_threads = 2;
  o.stoc.cpu_rate_us_per_sec = 0;  // throttle off
  o.stoc.page_cache_bytes = 0;     // every block read reaches the device
  o.stoc.slab_bytes = 128 << 20;
  o.stoc.slab_page_bytes = 2 << 20;

  o.ltc.cpu_rate_us_per_sec = 0;  // throttle off
  o.ltc.num_xchg_threads = 2;
  o.ltc.num_flush_threads = 4;
  o.ltc.num_compaction_threads = 4;
  o.ltc.maintenance_interval_us = 1000;
  o.ltc.block_cache_bytes = 4 << 20;       // hot tier
  o.ltc.compressed_cache_bytes = 8 << 20;  // compressed tier
  o.ltc.cache_hot_fraction = 0.75;
  o.ltc.compression_codec = nova::kNovaLzCompression;
  o.ltc.readahead_blocks = 2;
  o.ltc.compaction_readahead_blocks = 2;
  o.ltc.max_compaction_jobs = 2;
  o.ltc.read_replica_d = 2;
  o.ltc.read_hedging = true;
  o.ltc.repair.enabled = true;
  o.ltc.repair.bandwidth_bytes_per_sec = 0;
  o.ltc.repair.scan_interval_ms = 50;

  o.membership.failure_threshold = 3;
  o.membership.dead_after_ms = 2000;
  o.membership.rejoin_probes = 2;
  o.membership.probe_interval_ms = 100;

  nova::ltc::RangeEngineOptions& r = o.range;
  r.drange.theta = 8;  // θ
  r.drange.gamma = 4;
  r.drange.epsilon = 0.04;
  r.drange.major_factor = 2.0;
  r.drange.sample_rate = 8;
  r.drange.reservoir_size = 4096;
  r.drange.warmup_writes = 2000;
  r.drange.static_after_first_major = false;
  r.enable_dranges = true;
  r.enable_lookup_index = true;
  r.enable_range_index = true;
  r.enable_memtable_merge = true;
  r.unique_key_threshold = 100;
  r.memtable_size = 256 << 10;  // τ
  r.max_memtables = 32;         // δ
  r.num_active_memtables = 8;
  r.lsm.num_levels = 5;
  r.lsm.l0_compaction_trigger_bytes = 4 << 20;
  r.lsm.l0_stop_bytes = 32 << 20;
  r.lsm.base_level_bytes = 16 << 20;
  r.lsm.max_sstable_size = 256 << 10;
  r.log.mode = w.logged ? LogMode::kInMemory : LogMode::kNone;
  r.log.num_replicas = 3;
  r.log.region_size = 512 << 10;
  r.log.use_nic_path = false;
  // Per-range cache budgets stay 0: the range shares the LTC-wide tiers.
  r.block_cache_bytes = 0;
  r.compressed_cache_bytes = 0;
  r.compression_codec = nova::kNovaLzCompression;
  r.cache_hot_fraction = 0.75;
  r.readahead_blocks = 2;
  r.max_sstable_size = 256 << 10;
  r.max_parallel_compactions = 4;
  r.offload_compaction = false;
  r.max_compaction_jobs = 2;
  r.compaction_readahead_blocks = 2;
  r.manifest_replicas = 1;
  r.read_replica_d = 2;
  r.read_hedging = 1;

  // SSTables scattered over ρ=3 StoCs, each fragment on 2 of them, so a
  // block read has a choice of replica (the power-of-d fan-out path).
  o.placement.rho = 3;
  o.placement.power_of_d = true;
  o.placement.num_data_replicas = 2;
  o.placement.num_meta_replicas = 2;
  o.placement.use_parity = false;
  o.placement.adjust_rho_by_size = true;
  o.placement.max_sstable_size = 256 << 10;
  return o;
}

std::string EchoOptions(nova::coord::Cluster* cluster) {
  const nova::coord::ClusterOptions& c = cluster->options();
  char buf[2048];
  std::string out;
  snprintf(buf, sizeof(buf),
           "options cluster: ltcs=%d stocs=%d ranges=%zu "
           "device.time_scale=%g device.bw=%g device.seek_us=%g "
           "device.seq_opt=%d\n",
           c.num_ltcs, c.num_stocs, c.split_points.size() + 1,
           c.device.time_scale, c.device.bandwidth_bytes_per_sec,
           c.device.seek_latency_us, c.device.sequential_optimization);
  out += buf;
  snprintf(buf, sizeof(buf),
           "options stoc: xchg=%d storage=%d compaction=%d cpu_rate=%g "
           "page_cache=%llu slab=%zu slab_page=%zu\n",
           c.stoc.num_xchg_threads, c.stoc.num_storage_threads,
           c.stoc.num_compaction_threads, c.stoc.cpu_rate_us_per_sec,
           static_cast<unsigned long long>(c.stoc.page_cache_bytes),
           c.stoc.slab_bytes, c.stoc.slab_page_bytes);
  out += buf;
  snprintf(buf, sizeof(buf),
           "options ltc: cpu_rate=%g xchg=%d flush=%d compaction=%d "
           "maint_us=%d hot_cache=%zu compressed_cache=%zu hot_fraction=%g "
           "repair=%d membership.threshold=%d membership.dead_ms=%d\n",
           c.ltc.cpu_rate_us_per_sec, c.ltc.num_xchg_threads,
           c.ltc.num_flush_threads, c.ltc.num_compaction_threads,
           c.ltc.maintenance_interval_us, c.ltc.block_cache_bytes,
           c.ltc.compressed_cache_bytes, c.ltc.cache_hot_fraction,
           c.ltc.repair.enabled, c.membership.failure_threshold,
           c.membership.dead_after_ms);
  out += buf;
  for (nova::ltc::RangeEngine* engine : cluster->ltc(0)->ranges()) {
    const nova::ltc::RangeEngineOptions& r = engine->options();
    snprintf(buf, sizeof(buf),
             "options range %u: tau=%zu delta=%d theta=%d gamma=%d "
             "alpha=%d dranges=%d lookup_index=%d range_index=%d merge=%d "
             "unique_keys=%d warmup_writes=%llu log.mode=%d "
             "log.replicas=%d log.region=%llu codec=%d readahead=%d "
             "compaction_readahead=%d max_compaction_jobs=%d "
             "parallel_compactions=%d offload=%d sstable=%llu "
             "l0_trigger=%llu l0_stop=%llu base_level=%llu levels=%d "
             "read_d=%d hedging=%d manifest_replicas=%d\n",
             r.range_id, r.memtable_size, r.max_memtables, r.drange.theta,
             r.drange.gamma, r.num_active_memtables, r.enable_dranges,
             r.enable_lookup_index, r.enable_range_index,
             r.enable_memtable_merge, r.unique_key_threshold,
             static_cast<unsigned long long>(r.drange.warmup_writes),
             static_cast<int>(r.log.mode), r.log.num_replicas,
             static_cast<unsigned long long>(r.log.region_size),
             r.compression_codec, r.readahead_blocks,
             r.compaction_readahead_blocks, r.max_compaction_jobs,
             r.max_parallel_compactions, r.offload_compaction,
             static_cast<unsigned long long>(r.max_sstable_size),
             static_cast<unsigned long long>(r.lsm.l0_compaction_trigger_bytes),
             static_cast<unsigned long long>(r.lsm.l0_stop_bytes),
             static_cast<unsigned long long>(r.lsm.base_level_bytes),
             r.lsm.num_levels, r.read_replica_d, r.read_hedging,
             r.manifest_replicas);
    out += buf;
    nova::lsm::PlacementOptions p = engine->placer()->options();
    snprintf(buf, sizeof(buf),
             "options placement %u: rho=%d power_of_d=%d data_replicas=%d "
             "meta_replicas=%d parity=%d adjust_rho=%d stocs=%zu\n",
             r.range_id, p.rho, p.power_of_d, p.num_data_replicas,
             p.num_meta_replicas, p.use_parity, p.adjust_rho_by_size,
             p.stocs.size());
    out += buf;
  }
  return out;
}

}  // namespace perfbench
