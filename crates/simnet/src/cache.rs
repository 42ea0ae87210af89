//! Cluster-wide tiered chunk-cache registry.
//!
//! The per-process [`scifmt`-level] decompressed-chunk LRU only helps within
//! one job: every new job (or DAG stage) starts cold and re-pays the full
//! PFS read + decompress cost for chunks a node decoded seconds earlier.
//! This module promotes that cache to a simulated **cluster tier**: one
//! registry per [`crate::Sim`] world records, per compute node, which hot
//! SNC chunks that node holds decompressed in memory. Jobs and DAG stages
//! sharing the world share the registry, so stage N+1 of an iterative
//! pipeline can (a) be *scheduled* onto the nodes that decoded stage N's
//! chunks and (b) serve those chunks at memory speed instead of re-reading
//! the PFS.
//!
//! Design rules (all enforced here, relied on by `mapreduce`/`scidp`):
//!
//! * **Determinism** — every map is a `BTreeMap` and recency is
//!   [`scirng::lru`]'s monotonic tick, never wall-clock. Same program ⇒
//!   same evictions.
//! * **Byte-fidelity** — entries store the *verified decompressed bytes*
//!   admitted by the reader, so a hit returns exactly what a cold
//!   read-verify-decompress would have produced.
//! * **Size-aware admission** — an entry larger than
//!   `admit_max_fraction × per-node capacity` is refused, so one giant
//!   cold scan cannot flush a node's hot set.
//! * **Quarantine fidelity** — a chunk quarantined by the integrity layer
//!   is purged from every node and never admitted again.
//! * **Failure fidelity** — a killed node's entries are invalidated just
//!   like its shuffle outputs (memory dies with the process).
//!
//! The registry is *disabled by default* (zero per-node capacity): with no
//! capacity nothing is ever admitted, `lookup` always misses, and every
//! existing workload's timing is bit-for-bit unchanged.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use scirng::lru::{Lru, Quarantine};

use crate::topology::NodeId;

/// Identity of a cached chunk: `(content-derived file key, chunk offset)`.
/// The file key is content-derived (not path-derived), so re-opens and
/// re-mapped datasets share entries and a rewritten file never aliases.
pub type ChunkKey = (u64, u64);

/// Default ceiling on a single entry as a fraction of per-node capacity.
/// Entries above it are refused admission (streaming-scan flush guard).
const DEFAULT_ADMIT_MAX_FRACTION: f64 = 0.125;

/// Bound on the never-admit quarantine set (mirrors the reader's own
/// bounded quarantine LRU; prevents unbounded growth in long worlds).
const QUARANTINE_CAP: usize = 4096;

/// Aggregate registry statistics, monotonic over the world's lifetime.
/// Per-job deltas are taken by snapshotting before/after a job.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClusterCacheStats {
    /// Lookups that found the chunk resident on the asking node.
    pub hits: u64,
    /// Lookups that missed on the asking node.
    pub misses: u64,
    /// Entries evicted to make room (LRU).
    pub evictions: u64,
    /// Entries admitted.
    pub inserts: u64,
    /// Admissions refused by the size-aware filter or quarantine.
    pub rejected: u64,
    /// Entries dropped by node-kill invalidation.
    pub invalidated: u64,
}

#[derive(Debug)]
struct Inner {
    per_node_capacity: u64,
    admit_max_fraction: f64,
    /// Each node's resident chunks.
    nodes: BTreeMap<NodeId, Lru<ChunkKey, Arc<Vec<u8>>>>,
    /// Never-admit set (bounded touch-LRU).
    quarantined: Quarantine<ChunkKey>,
    stats: ClusterCacheStats,
}

/// The cluster cache registry. One per simulated world, shared (via
/// `Rc`) by every job and DAG stage running in it. Interior-mutable —
/// the sim is single-threaded and callbacks only hold `&self`.
#[derive(Debug)]
pub struct ClusterCache {
    inner: RefCell<Inner>,
}

impl Default for ClusterCache {
    /// A disabled registry (zero per-node capacity).
    fn default() -> ClusterCache {
        ClusterCache::new(0)
    }
}

impl ClusterCache {
    /// A registry with `per_node_capacity` bytes of chunk memory per
    /// compute node. Zero capacity = disabled (all lookups miss, no
    /// admissions, no timing impact).
    pub fn new(per_node_capacity: u64) -> ClusterCache {
        ClusterCache {
            inner: RefCell::new(Inner {
                per_node_capacity,
                admit_max_fraction: DEFAULT_ADMIT_MAX_FRACTION,
                nodes: BTreeMap::new(),
                quarantined: Quarantine::new(QUARANTINE_CAP),
                stats: ClusterCacheStats::default(),
            }),
        }
    }

    /// Is the tier on at all? Callers use this to skip work (hint
    /// precomputation, scheduler scans) when the cache cannot matter.
    pub fn enabled(&self) -> bool {
        self.inner.borrow().per_node_capacity > 0
    }

    /// Per-node capacity in bytes.
    pub fn per_node_capacity(&self) -> u64 {
        self.inner.borrow().per_node_capacity
    }

    /// Resize the per-node capacity (shrinking evicts LRU-first on each
    /// node until resident bytes fit).
    pub fn set_per_node_capacity(&self, bytes: u64) {
        let mut g = self.inner.borrow_mut();
        let g = &mut *g;
        g.per_node_capacity = bytes;
        for shard in g.nodes.values_mut() {
            let before = shard.evictions();
            shard.shrink_to(bytes);
            g.stats.evictions += shard.evictions() - before;
        }
    }

    /// Override the size-aware admission ceiling (fraction of per-node
    /// capacity a single entry may occupy).
    pub fn set_admit_max_fraction(&self, f: f64) {
        self.inner.borrow_mut().admit_max_fraction = f;
    }

    /// Look up `key` on `node`, bumping recency on a hit. Counts a hit or
    /// miss in the registry stats. Only *node-local* residency is a hit:
    /// remote holders influence scheduling, not data service.
    pub fn lookup(&self, node: NodeId, key: ChunkKey) -> Option<Arc<Vec<u8>>> {
        let mut g = self.inner.borrow_mut();
        if g.per_node_capacity == 0 {
            return None;
        }
        let hit = g
            .nodes
            .get_mut(&node)
            .and_then(|shard| shard.get(&key))
            .map(Arc::clone);
        if hit.is_some() {
            g.stats.hits += 1;
        } else {
            g.stats.misses += 1;
        }
        hit
    }

    /// Non-counting, non-bumping residency probe — the scheduler's view.
    pub fn holds(&self, node: NodeId, key: ChunkKey) -> bool {
        let g = self.inner.borrow();
        g.nodes.get(&node).is_some_and(|s| s.contains(&key))
    }

    /// Admit `data` for `key` on `node`. Refused (counted in
    /// `stats.rejected`) when the tier is disabled, the chunk is
    /// quarantined, or the entry exceeds the size-aware ceiling.
    /// Evicts LRU entries until the entry fits; re-admission refreshes.
    pub fn insert(&self, node: NodeId, key: ChunkKey, data: Arc<Vec<u8>>) -> bool {
        let mut g = self.inner.borrow_mut();
        let g = &mut *g;
        let cap = g.per_node_capacity;
        if cap == 0 {
            return false;
        }
        let len = data.len() as u64;
        let ceiling = ((g.admit_max_fraction * cap as f64) as u64).clamp(1, cap);
        if g.quarantined.contains(&key) || len == 0 || len > ceiling {
            g.stats.rejected += 1;
            return false;
        }
        let shard = g.nodes.entry(node).or_insert_with(|| Lru::new(cap));
        let before = shard.evictions();
        shard.insert(key, data, len);
        g.stats.evictions += shard.evictions() - before;
        g.stats.inserts += 1;
        true
    }

    /// Purge `key` from every node and never admit it again (bounded
    /// never-admit set). Called when the integrity layer quarantines a
    /// chunk — cached copies of a suspect chunk must not outlive it.
    pub fn quarantine(&self, key: ChunkKey) {
        let mut g = self.inner.borrow_mut();
        for shard in g.nodes.values_mut() {
            shard.remove(&key);
        }
        g.quarantined.touch(key);
    }

    /// Is `key` on the never-admit list? (A hit counts as a touch.)
    pub fn is_quarantined(&self, key: ChunkKey) -> bool {
        self.inner.borrow_mut().quarantined.contains(&key)
    }

    /// Drop every entry `node` holds — its memory died with it. Mirrors
    /// shuffle-output invalidation on node kill.
    pub fn invalidate_node(&self, node: NodeId) {
        let mut g = self.inner.borrow_mut();
        if let Some(shard) = g.nodes.remove(&node) {
            g.stats.invalidated += shard.len() as u64;
        }
    }

    /// Resident bytes on `node`.
    pub fn resident_bytes(&self, node: NodeId) -> u64 {
        let g = self.inner.borrow();
        g.nodes.get(&node).map_or(0, |s| s.weight())
    }

    /// Total entries resident across the cluster.
    pub fn resident_entries(&self) -> u64 {
        let g = self.inner.borrow();
        g.nodes.values().map(|s| s.len() as u64).sum()
    }

    /// Lifetime statistics snapshot.
    pub fn stats(&self) -> ClusterCacheStats {
        self.inner.borrow().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes(n: usize) -> Arc<Vec<u8>> {
        Arc::new(vec![7u8; n])
    }

    #[test]
    fn disabled_registry_never_hits_or_admits() {
        let c = ClusterCache::new(0);
        assert!(!c.enabled());
        assert!(!c.insert(NodeId(0), (1, 0), bytes(10)));
        assert!(c.lookup(NodeId(0), (1, 0)).is_none());
        assert_eq!(c.stats(), ClusterCacheStats::default());
    }

    #[test]
    fn hit_returns_admitted_bytes_node_locally_only() {
        let c = ClusterCache::new(1 << 20);
        let data = bytes(100);
        assert!(c.insert(NodeId(1), (42, 0), Arc::clone(&data)));
        assert_eq!(c.lookup(NodeId(1), (42, 0)).as_deref(), Some(&*data));
        // Remote node: residency visible to the scheduler, not a data hit.
        assert!(c.lookup(NodeId(0), (42, 0)).is_none());
        assert!(c.holds(NodeId(1), (42, 0)));
        assert!(!c.holds(NodeId(0), (42, 0)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 1, 1));
    }

    #[test]
    fn lru_eviction_is_deterministic_and_counted() {
        let c = ClusterCache::new(1000);
        c.set_admit_max_fraction(1.0);
        assert!(c.insert(NodeId(0), (1, 0), bytes(400)));
        assert!(c.insert(NodeId(0), (1, 1), bytes(400)));
        // Touch (1,0) so (1,1) becomes LRU.
        assert!(c.lookup(NodeId(0), (1, 0)).is_some());
        assert!(c.insert(NodeId(0), (1, 2), bytes(400)));
        assert!(c.holds(NodeId(0), (1, 0)));
        assert!(!c.holds(NodeId(0), (1, 1)), "LRU entry evicted");
        assert!(c.holds(NodeId(0), (1, 2)));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn size_aware_admission_refuses_giant_entries() {
        let c = ClusterCache::new(1000); // ceiling = 125 bytes
        assert!(c.insert(NodeId(0), (1, 0), bytes(100)));
        assert!(!c.insert(NodeId(0), (1, 1), bytes(500)));
        assert!(c.holds(NodeId(0), (1, 0)), "hot set survives the refusal");
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn quarantine_purges_and_blocks_admission() {
        let c = ClusterCache::new(1 << 20);
        assert!(c.insert(NodeId(0), (9, 0), bytes(10)));
        assert!(c.insert(NodeId(3), (9, 0), bytes(10)));
        c.quarantine((9, 0));
        assert!(!c.holds(NodeId(0), (9, 0)));
        assert!(!c.holds(NodeId(3), (9, 0)));
        assert!(c.is_quarantined((9, 0)));
        assert!(!c.insert(NodeId(0), (9, 0), bytes(10)));
        assert_eq!(c.stats().rejected, 1);
    }

    #[test]
    fn never_admit_set_is_touch_lru_past_its_bound() {
        // Same policy as the reader's own quarantine set: a key readers
        // keep tripping over outlives older, untouched ones (this set used
        // to be FIFO and would have dropped key 0 here).
        let c = ClusterCache::new(1 << 20);
        for k in 0..QUARANTINE_CAP as u64 {
            c.quarantine((k, 0));
        }
        assert!(c.is_quarantined((0, 0)), "touch the oldest key");
        c.quarantine((u64::MAX, 0));
        assert!(c.is_quarantined((0, 0)), "recently touched key survives");
        assert!(!c.is_quarantined((1, 0)), "least recently touched key goes");
        assert!(c.is_quarantined((u64::MAX, 0)));
    }

    #[test]
    fn node_kill_invalidates_only_that_node() {
        let c = ClusterCache::new(1 << 20);
        assert!(c.insert(NodeId(0), (1, 0), bytes(10)));
        assert!(c.insert(NodeId(1), (1, 0), bytes(10)));
        c.invalidate_node(NodeId(0));
        assert!(!c.holds(NodeId(0), (1, 0)));
        assert!(c.holds(NodeId(1), (1, 0)));
        assert_eq!(c.stats().invalidated, 1);
        assert_eq!(c.resident_bytes(NodeId(0)), 0);
        assert_eq!(c.resident_bytes(NodeId(1)), 10);
    }

    #[test]
    fn shrinking_capacity_evicts_to_fit() {
        let c = ClusterCache::new(1000);
        c.set_admit_max_fraction(1.0);
        assert!(c.insert(NodeId(0), (1, 0), bytes(400)));
        assert!(c.insert(NodeId(0), (1, 1), bytes(400)));
        c.set_per_node_capacity(500);
        assert_eq!(c.resident_bytes(NodeId(0)), 400);
        assert!(!c.holds(NodeId(0), (1, 0)), "older entry evicted");
        assert!(c.holds(NodeId(0), (1, 1)));
    }
}
