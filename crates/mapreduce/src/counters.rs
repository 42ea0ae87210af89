//! Job counters (Hadoop-style), deterministic to report.

use std::collections::BTreeMap;

/// Named additive counters collected over a job run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    values: BTreeMap<&'static str, f64>,
}

/// Counter names used by the engine.
pub mod keys {
    pub const MAP_TASKS: &str = "map_tasks";
    pub const REDUCE_TASKS: &str = "reduce_tasks";
    pub const INPUT_BYTES: &str = "input_bytes";
    pub const MAP_OUTPUT_BYTES: &str = "map_output_bytes";
    pub const SHUFFLE_BYTES: &str = "shuffle_bytes";
    pub const HDFS_WRITE_BYTES: &str = "hdfs_write_bytes";
    /// Part-file bytes written to the PFS (`output_to_pfs` jobs).
    pub const PFS_WRITE_BYTES: &str = "pfs_write_bytes";
    pub const LOCAL_MAPS: &str = "data_local_maps";
    pub const REMOTE_MAPS: &str = "rack_remote_maps";
    /// Maps over location-less splits (PFS dummy blocks) — neither local
    /// nor remote, locality is simply not a concept for them.
    pub const ANY_MAPS: &str = "any_locality_maps";
    pub const RECORDS_EMITTED: &str = "records_emitted";
    /// Map attempts launched (≥ `map_tasks` under retries/speculation).
    pub const MAP_ATTEMPTS: &str = "map_attempts";
    /// Reduce attempts launched.
    pub const REDUCE_ATTEMPTS: &str = "reduce_attempts";
    /// Attempts re-queued after a failure (I/O error or node death).
    pub const TASK_RETRIES: &str = "task_retries";
    /// Speculative duplicate attempts launched for straggling maps.
    pub const SPECULATIVE_LAUNCHED: &str = "speculative_launched";
    /// Speculative attempts that committed before the original.
    pub const SPECULATIVE_WON: &str = "speculative_won";
    /// Decompressed chunks served from the job-wide chunk cache.
    pub const CHUNK_CACHE_HITS: &str = "chunk_cache_hits";
    /// Chunks that had to be read from the PFS and decompressed.
    pub const CHUNK_CACHE_MISSES: &str = "chunk_cache_misses";
    /// Real (wall-clock) seconds spent in the chunk codec during fetches.
    pub const CODEC_DECODE_S: &str = "codec_decode_s";
    /// Payload bytes that passed CRC-32C verification on delivery (HDFS
    /// replica reads and SNC chunk frames).
    pub const CHECKSUM_VERIFIED_BYTES: &str = "checksum_verified_bytes";
    /// Deliveries whose bytes failed checksum verification.
    pub const CORRUPTION_DETECTED: &str = "corruption_detected";
    /// Corrupt deliveries recovered (a clean re-read, or replica fallback).
    pub const CORRUPTION_REPAIRED: &str = "corruption_repaired";
    /// SNC chunks that failed verification twice and were quarantined.
    pub const CHUNKS_QUARANTINED: &str = "chunks_quarantined";
    /// Data Mapper source files revalidated against the PFS at job launch.
    pub const MAPPING_REVALIDATIONS: &str = "mapping_revalidations";
    /// Virtual seconds the streaming input pipeline saved vs running the
    /// same reads and compute back-to-back (Σ over committed map tasks).
    pub const OVERLAP_SAVED_S: &str = "overlap_saved_s";
    /// Virtual seconds of reduce start-up and shuffle pulls that ran before
    /// the last map committed, on slots no map wanted, plus the merge
    /// seconds that ran while later pulls were still being copied (Σ over
    /// committed pulling tasks) — what a reduce phase opened only at the
    /// map-phase close, sorting only behind its last pull, would have added
    /// to the tail.
    pub const SHUFFLE_OVERLAP_SAVED_S: &str = "shuffle_overlap_saved_s";
    /// Virtual seconds of part-file write that ran while the task was still
    /// computing (Σ over committed tasks that wrote a part file) — what
    /// writing the file only once the compute had ended would have added.
    pub const WRITE_OVERLAP_SAVED_S: &str = "write_overlap_saved_s";
    /// Idle waiting attempts — a classic job's reducers, a post-shuffle DAG
    /// stage's tasks — that gave their slot to a blocked task with all its
    /// input (a pending map or source task, a retry, a speculative twin)
    /// and were requeued uncharged. The key keeps its historical name.
    pub const REDUCES_PREEMPTED: &str = "reduces_preempted";
    /// Stream pieces that were already resident when the compute pipeline
    /// was ready for them (i.e. the prefetch fully hid their read).
    pub const PIECES_PREFETCHED: &str = "pieces_prefetched";
    /// Configured decompressed-chunk cache capacity of the job's reader
    /// (bytes; recorded once per run alongside hit/miss counters).
    pub const CHUNK_CACHE_CAPACITY_BYTES: &str = "chunk_cache_capacity_bytes";
    /// SNC chunks skipped by zone-map pruning before any PFS read or
    /// decompression was attempted.
    pub const CHUNKS_SKIPPED_ZONEMAP: &str = "chunks_skipped_zonemap";
    /// Serialized zone-map header bytes across the job's input variables
    /// (the metadata cost of pushdown; recorded once per run).
    pub const ZONE_MAP_BYTES: &str = "zone_map_bytes";
    /// Compressed PFS bytes whose simulated reads were never issued thanks
    /// to zone-map pruning.
    pub const PUSHDOWN_BYTES_AVOIDED: &str = "pushdown_bytes_avoided";
    /// Rows delivered to the vectorised columnar filter (pre-filter row
    /// count of pushdown batches).
    pub const VECTORISED_ROWS: &str = "vectorised_rows";
    /// Stage jobs submitted by the DAG scheduler, including lineage-driven
    /// re-runs (one per `submit_job_env` of a stage).
    pub const STAGES_RUN: &str = "stages_run";
    /// Tasks re-executed because a lost shuffle/result partition forced its
    /// upstream lineage chain to be recomputed.
    pub const LINEAGE_RECOMPUTES: &str = "lineage_recomputes";
    /// Registered shuffle/result partitions invalidated by node deaths.
    pub const SHUFFLE_PARTITIONS_LOST: &str = "shuffle_partitions_lost";
    /// Committed map tasks that asked for the streaming fetch path but fell
    /// back to a batch fetch (sum of the per-reason fallback counters).
    pub const STREAM_FALLBACKS: &str = "stream_fallbacks";
    /// Fallbacks because the split's fetcher has no streaming support.
    pub const STREAM_FALLBACK_UNSUPPORTED: &str = "stream_fallback_unsupported";
    /// Heartbeats a node failed to deliver on time (hung, partitioned, or
    /// dead nodes miss every tick until declared dead or reinstated).
    pub const HEARTBEATS_MISSED: &str = "heartbeats_missed";
    /// Attempts killed by the per-attempt hang deadline (the operation
    /// never completed — unlike a straggler, which merely finishes late).
    pub const TASKS_HANG_DETECTED: &str = "tasks_hang_detected";
    /// Alternate-replica HDFS transfers launched because the primary
    /// stalled past the hedge deadline.
    pub const HEDGED_READS: &str = "hedged_reads";
    /// Block reads won by a hedge launch (the alternate delivered first).
    pub const HEDGED_READ_WINS: &str = "hedged_read_wins";
    /// Nodes escalated from healthy to suspected by the failure detector.
    pub const NODES_SUSPECTED: &str = "nodes_suspected";
    /// Suspected/declared-dead nodes restored to service after their
    /// heartbeats resumed (e.g. a healed partition).
    pub const NODES_REINSTATED: &str = "nodes_reinstated";
    /// Network partitions whose onset fell inside the job's run.
    pub const PARTITIONS_OBSERVED: &str = "partitions_observed";
    /// Quarantined SNC chunk entries evicted from the bounded quarantine
    /// set (LRU) to keep a long-lived process from growing it unboundedly.
    pub const CHUNKS_QUARANTINED_EVICTED: &str = "chunks_quarantined_evicted";
    /// SNC chunks served decompressed from the cluster cache tier (the
    /// chunk was resident on the executing node from an earlier job or
    /// stage — no PFS read, no codec work).
    pub const CLUSTER_CACHE_HITS: &str = "cluster_cache_hits";
    /// SNC chunks the cluster cache tier did not hold on the executing
    /// node (full PFS read + decompress paid).
    pub const CLUSTER_CACHE_MISSES: &str = "cluster_cache_misses";
    /// Cluster-cache entries evicted during this job (per-job delta of the
    /// registry's lifetime eviction count; LRU).
    pub const CLUSTER_CACHE_EVICTIONS: &str = "cluster_cache_evictions";
    /// Committed maps the scheduler placed on a node *because* it held the
    /// split's chunks in the cluster cache (dynamic cache locality — the
    /// preference tier above static split locality).
    pub const CACHE_LOCALITY_MAPS: &str = "cache_locality_maps";
    /// Compressed PFS bytes whose reads were never issued because the
    /// decompressed chunk was served from the cluster cache tier.
    pub const PFS_BYTES_AVOIDED: &str = "pfs_bytes_avoided";
}

impl Counters {
    pub fn new() -> Counters {
        Counters::default()
    }

    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_insert(0.0) += v;
    }

    pub fn get(&self, key: &str) -> f64 {
        self.values.get(key).copied().unwrap_or(0.0)
    }

    /// All counters, sorted by name.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.values.iter().map(|(k, v)| (*k, *v))
    }

    pub fn merge(&mut self, other: &Counters) {
        for (k, v) in other.iter() {
            self.add(k, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_merge() {
        let mut a = Counters::new();
        a.add(keys::MAP_TASKS, 3.0);
        a.add(keys::MAP_TASKS, 2.0);
        assert_eq!(a.get(keys::MAP_TASKS), 5.0);
        assert_eq!(a.get("missing"), 0.0);
        let mut b = Counters::new();
        b.add(keys::MAP_TASKS, 1.0);
        b.add(keys::INPUT_BYTES, 10.0);
        a.merge(&b);
        assert_eq!(a.get(keys::MAP_TASKS), 6.0);
        assert_eq!(a.get(keys::INPUT_BYTES), 10.0);
        let names: Vec<&str> = a.iter().map(|(k, _)| k).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "iteration is deterministic");
    }
}
