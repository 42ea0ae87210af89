//! Deterministic fault injection.
//!
//! A [`FaultPlan`] declares, up front and in full, every fault one run will
//! experience: nodes killed at fixed virtual times, specific reads that
//! fail, straggler nodes, and a seeded per-read failure probability. The
//! plan is interpreted by a [`FaultInjector`] owned by the [`crate::Sim`],
//! so every layer (PFS client, HDFS client, the MapReduce driver) consults
//! the *same* state. Because the plan is data and the probabilistic
//! failures are drawn from a [`scirng::Rng`] seeded from the plan, the same
//! seed + the same plan reproduce bit-identical fault sequences — and,
//! since the simulator itself is deterministic, bit-identical timings.

use std::collections::HashMap;

/// A declarative, seeded description of the faults to inject into one run.
///
/// The default plan is empty (no faults); [`FaultInjector::take_read_outcome`]
/// short-circuits in that case so fault-free runs pay nothing.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// `(node, at_s)`: kill compute node `node` at virtual time `at_s`.
    /// A dead node loses its task slots, its running attempts, and its
    /// HDFS replicas.
    pub node_kills: Vec<(u32, f64)>,
    /// `(path, nth)`: fail the `nth` (1-based) timed read of `path`.
    pub read_faults: Vec<(String, u64)>,
    /// `(node, factor)`: multiply compute time on `node` by `factor`
    /// (a straggler; speculation exists to absorb these).
    pub slow_nodes: Vec<(u32, f64)>,
    /// Independently fail each timed read with this probability.
    pub read_fail_prob: f64,
    /// Seeded byte-flip corruptions (see [`CorruptSpec`]).
    pub corrupt_reads: Vec<CorruptSpec>,
    /// `(node, at_s)`: from virtual time `at_s`, compute started on `node`
    /// never completes. Unlike [`FaultPlan::slow_node`] the operation does
    /// not finish late — it never finishes, so only a deadline can catch it.
    pub node_hangs: Vec<(u32, f64)>,
    /// `(path, nth)`: the `nth` (1-based) timed read of `path` hangs —
    /// the completion callback is never invoked.
    pub read_hangs: Vec<(String, u64)>,
    /// Network partitions: each spec isolates a node group from the rest of
    /// the cluster over a virtual-time window (see [`PartitionSpec`]).
    pub partitions: Vec<PartitionSpec>,
    /// `(a, b, factor)`: multiply transfer time on the undirected link
    /// between nodes `a` and `b` by `factor` (> 1 = degraded link).
    pub slow_links: Vec<(u32, u32, f64)>,
    /// Seed for the probabilistic read failures and the corruption byte
    /// patterns.
    pub seed: u64,
}

/// One network partition: `nodes` become unreachable from the rest of the
/// cluster (including the driver) at `from_s`, healing at `heal_at_s`
/// (`f64::INFINITY` = never heals). Nodes inside the group can still reach
/// each other.
#[derive(Clone, Debug, PartialEq)]
pub struct PartitionSpec {
    /// The isolated node group.
    pub nodes: Vec<u32>,
    /// Virtual time the partition starts.
    pub from_s: f64,
    /// Virtual time the partition heals (exclusive; `INFINITY` = never).
    pub heal_at_s: f64,
}

impl PartitionSpec {
    /// Whether this partition is in effect at virtual time `now`.
    pub fn active(&self, now: f64) -> bool {
        self.from_s <= now && now < self.heal_at_s
    }
}

/// A structurally invalid [`FaultPlan`] entry, reported by
/// [`FaultPlan::validate`]. Builders accept the raw values (so plans stay
/// plain data); [`FaultInjector::install`] debug-asserts validity and clamps
/// invalid entries to no-ops in release builds.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultPlanError {
    /// `slow_node` factor is NaN, zero, or negative.
    BadSlowFactor { node: u32, factor: f64 },
    /// `slow_link` factor is NaN, zero, or negative.
    BadLinkFactor { a: u32, b: u32, factor: f64 },
    /// A `kill_node`/`hang_node` time is negative or NaN (virtual time
    /// starts at zero and is monotonic).
    BadTime { what: &'static str, at_s: f64 },
    /// A partition window is empty or runs backwards (`heal_at_s` must be
    /// strictly after `from_s`), or starts at a negative/NaN time.
    BadPartitionWindow { from_s: f64, heal_at_s: f64 },
    /// A partition isolates no nodes at all.
    EmptyPartitionGroup,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultPlanError::BadSlowFactor { node, factor } => {
                write!(
                    f,
                    "slow_node({node}): factor {factor} must be finite and > 0"
                )
            }
            FaultPlanError::BadLinkFactor { a, b, factor } => {
                write!(
                    f,
                    "slow_link({a}, {b}): factor {factor} must be finite and > 0"
                )
            }
            FaultPlanError::BadTime { what, at_s } => {
                write!(f, "{what}: time {at_s} must be finite and >= 0")
            }
            FaultPlanError::BadPartitionWindow { from_s, heal_at_s } => write!(
                f,
                "partition: window [{from_s}, {heal_at_s}) is empty or non-monotonic"
            ),
            FaultPlanError::EmptyPartitionGroup => {
                write!(f, "partition: node group is empty")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// One seeded byte-flip corruption fault.
///
/// `path` names what gets corrupted: a PFS path for stripe reads, or an
/// HDFS block key (see `hdfs::block_fault_key`) for replica reads. The
/// corrupted byte position and XOR mask are derived deterministically from
/// `(plan seed, path, nth)` — never from the live PRNG stream — so adding a
/// corruption fault does not perturb the probabilistic-failure sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct CorruptSpec {
    /// PFS path or HDFS block key the corruption applies to.
    pub path: String,
    /// 1-based timed read of `path` at which the corruption (first)
    /// appears.
    pub nth: u64,
    /// `true`: the storage layer's own checksum does *not* catch it — the
    /// flipped bytes are delivered as if valid and only an end-to-end
    /// checksum (the SNC chunk CRC) can detect them. `false`: the storage
    /// layer detects the mismatch itself and surfaces a typed error.
    pub silent: bool,
    /// `true`: every read from `nth` onward is corrupt (media corruption —
    /// re-reading cannot repair it). `false`: only the `nth` read is
    /// corrupt (a transient flip — the re-read fetches clean bytes).
    pub persistent: bool,
    /// HDFS replica scope: corrupt only the copy served by this node
    /// (single-replica — alternate replicas stay clean). `None` corrupts
    /// whichever copy serves the read (PFS reads, or all-replica HDFS
    /// corruption).
    pub replica: Option<u32>,
}

impl CorruptSpec {
    /// Whether this spec corrupts the `nth` read of `path`.
    fn matches(&self, path: &str, nth: u64) -> bool {
        self.path == path && (nth == self.nth || (self.persistent && nth > self.nth))
    }
}

/// Verdict for one timed read, combining failure and corruption faults.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Deliver the true bytes.
    Clean,
    /// Fail this read (the `nth` of its path) with an injected I/O error.
    Fail { nth: u64 },
    /// Deliver byte-flipped data for this read (the `nth` of its path).
    /// When `silent`, the storage layer must pass the bad bytes through;
    /// otherwise its own checksum detects the flip.
    Corrupt { nth: u64, silent: bool },
    /// This read (the `nth` of its path) never completes: the storage layer
    /// must drop its completion callback without scheduling anything, so
    /// only a caller-side deadline can recover.
    Hang { nth: u64 },
}

impl FaultPlan {
    /// The empty plan (no faults).
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// True when the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.node_kills.is_empty()
            && self.read_faults.is_empty()
            && self.slow_nodes.is_empty()
            && self.read_fail_prob == 0.0
            && self.corrupt_reads.is_empty()
            && self.node_hangs.is_empty()
            && self.read_hangs.is_empty()
            && self.partitions.is_empty()
            && self.slow_links.is_empty()
    }

    /// Check the plan for structurally invalid entries (bad straggler and
    /// link factors, negative times, empty or backwards partition windows).
    /// Returns the first problem found. [`FaultInjector::install`]
    /// debug-asserts this and clamps offenders to no-ops in release.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        for &(node, factor) in &self.slow_nodes {
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(FaultPlanError::BadSlowFactor { node, factor });
            }
        }
        for &(a, b, factor) in &self.slow_links {
            if !(factor > 0.0 && factor.is_finite()) {
                return Err(FaultPlanError::BadLinkFactor { a, b, factor });
            }
        }
        for (what, events) in [
            ("kill_node", &self.node_kills),
            ("hang_node", &self.node_hangs),
        ] {
            if let Some(&(_, at_s)) = events.iter().find(|(_, t)| !(*t >= 0.0 && t.is_finite())) {
                return Err(FaultPlanError::BadTime { what, at_s });
            }
        }
        for p in &self.partitions {
            if p.nodes.is_empty() {
                return Err(FaultPlanError::EmptyPartitionGroup);
            }
            // `heal_at_s` may be +inf (never heals) but must come strictly
            // after a finite, non-negative start.
            if !(p.from_s >= 0.0 && p.from_s.is_finite() && p.heal_at_s > p.from_s) {
                return Err(FaultPlanError::BadPartitionWindow {
                    from_s: p.from_s,
                    heal_at_s: p.heal_at_s,
                });
            }
        }
        Ok(())
    }

    /// Kill `node` at virtual time `at_s`.
    pub fn kill_node(mut self, node: u32, at_s: f64) -> FaultPlan {
        self.node_kills.push((node, at_s));
        self
    }

    /// Set the seed driving probabilistic read failures and the corruption
    /// byte patterns (which byte flips, and with what mask).
    pub fn with_seed(mut self, seed: u64) -> FaultPlan {
        self.seed = seed;
        self
    }

    /// The plan seed CI's fault-seed matrix selects: `SCIDP_FAULT_SEED`
    /// when it is set to a `u64`, else `default`.
    pub fn env_seed(default: u64) -> u64 {
        std::env::var("SCIDP_FAULT_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(default)
    }

    /// Fail the `nth` (1-based) timed read of `path`.
    pub fn fail_read(mut self, path: impl Into<String>, nth: u64) -> FaultPlan {
        self.read_faults.push((path.into(), nth));
        self
    }

    /// Slow compute on `node` by `factor` (> 1 = straggler). A NaN, zero,
    /// or negative factor is rejected by [`FaultPlan::validate`] when the
    /// plan is installed, not silently accepted here.
    pub fn slow_node(mut self, node: u32, factor: f64) -> FaultPlan {
        self.slow_nodes.push((node, factor));
        self
    }

    /// Hang compute on `node` from virtual time `at_s`: attempts running
    /// there never complete (unlike a straggler, which finishes late), and
    /// bytes another node asks it for never arrive ([`crate::Sim::link`]).
    pub fn hang_node(mut self, node: u32, at_s: f64) -> FaultPlan {
        self.node_hangs.push((node, at_s));
        self
    }

    /// Hang the `nth` (1-based) timed read of `path`: its completion
    /// callback is never invoked.
    pub fn hang_nth_read(mut self, path: impl Into<String>, nth: u64) -> FaultPlan {
        self.read_hangs.push((path.into(), nth));
        self
    }

    /// Partition `nodes` away from the rest of the cluster (and the driver)
    /// over `[from_s, heal_at_s)`. Pass `f64::INFINITY` to never heal.
    pub fn partition(mut self, nodes: &[u32], from_s: f64, heal_at_s: f64) -> FaultPlan {
        self.partitions.push(PartitionSpec {
            nodes: nodes.to_vec(),
            from_s,
            heal_at_s,
        });
        self
    }

    /// Degrade the undirected link between nodes `a` and `b`: every
    /// [`crate::Sim::net_transfer`] crossing it takes `factor`× as long
    /// (> 1 = slow link). `a == b` names no link and does nothing.
    pub fn slow_link(mut self, a: u32, b: u32, factor: f64) -> FaultPlan {
        self.slow_links.push((a, b, factor));
        self
    }

    /// Fail each timed read independently with probability `prob`, drawn
    /// from a PRNG seeded with `seed`.
    pub fn with_random_read_failures(mut self, seed: u64, prob: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "probability out of range");
        self.seed = seed;
        self.read_fail_prob = prob;
        self
    }

    /// Silently flip one byte of the `nth` (1-based) timed read of `path`.
    /// A transient flip: the re-read fetches clean bytes, so an end-to-end
    /// checksum can detect *and repair* it.
    pub fn corrupt_read(mut self, path: impl Into<String>, nth: u64) -> FaultPlan {
        self.corrupt_reads.push(CorruptSpec {
            path: path.into(),
            nth,
            silent: true,
            persistent: false,
            replica: None,
        });
        self
    }

    /// Flip one byte of the `nth` timed read of `path`, caught by the
    /// storage layer's own checksum (a detected stripe-read corruption —
    /// surfaces as a typed error instead of bad bytes).
    pub fn corrupt_read_detected(mut self, path: impl Into<String>, nth: u64) -> FaultPlan {
        self.corrupt_reads.push(CorruptSpec {
            path: path.into(),
            nth,
            silent: false,
            persistent: false,
            replica: None,
        });
        self
    }

    /// Silently corrupt *every* read of `path` from the `nth` onward (media
    /// corruption: re-reading cannot repair it, so integrity handling must
    /// quarantine and fail rather than return wrong data).
    pub fn corrupt_read_persistent(mut self, path: impl Into<String>, nth: u64) -> FaultPlan {
        self.corrupt_reads.push(CorruptSpec {
            path: path.into(),
            nth,
            silent: true,
            persistent: true,
            replica: None,
        });
        self
    }

    /// Corrupt, at rest, the copy of HDFS block `block_key` held by
    /// `node` (single-replica corruption — reads served by other replicas
    /// stay clean, so replica fallback repairs the read).
    pub fn corrupt_replica(mut self, block_key: impl Into<String>, node: u32) -> FaultPlan {
        self.corrupt_reads.push(CorruptSpec {
            path: block_key.into(),
            nth: 1,
            silent: true,
            persistent: true,
            replica: Some(node),
        });
        self
    }

    /// Corrupt every replica of HDFS block `block_key` — no clean copy
    /// remains, so the read must fail with an integrity error.
    pub fn corrupt_all_replicas(mut self, block_key: impl Into<String>) -> FaultPlan {
        self.corrupt_reads.push(CorruptSpec {
            path: block_key.into(),
            nth: 1,
            silent: true,
            persistent: true,
            replica: None,
        });
        self
    }
}

/// Runtime interpreter of a [`FaultPlan`], owned by the simulator.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    read_counts: HashMap<String, u64>,
    rng: scirng::Rng,
    injected: u64,
    corrupted: u64,
    hung: u64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector {
            plan: FaultPlan::none(),
            read_counts: HashMap::new(),
            rng: scirng::Rng::seed_from_u64(0),
            injected: 0,
            corrupted: 0,
            hung: 0,
        }
    }
}

impl FaultInjector {
    /// Install a plan, resetting all per-run state (read counters, PRNG).
    ///
    /// Invalid entries ([`FaultPlan::validate`]) are a caller bug: debug
    /// builds panic with the typed error; release builds clamp each
    /// offender to a no-op (factor → 1.0, negative time → 0.0, empty or
    /// backwards partition window → dropped) rather than inject garbage.
    pub fn install(&mut self, plan: FaultPlan) {
        debug_assert!(
            plan.validate().is_ok(),
            "invalid fault plan: {}",
            plan.validate().unwrap_err()
        );
        let plan = Self::clamp(plan);
        self.rng = scirng::Rng::seed_from_u64(plan.seed);
        self.read_counts.clear();
        self.injected = 0;
        self.corrupted = 0;
        self.hung = 0;
        self.plan = plan;
    }

    /// Release-build defence for invalid plan entries (see
    /// [`FaultInjector::install`]).
    fn clamp(mut plan: FaultPlan) -> FaultPlan {
        for (_, f) in &mut plan.slow_nodes {
            if !(*f > 0.0 && f.is_finite()) {
                *f = 1.0;
            }
        }
        for (_, _, f) in &mut plan.slow_links {
            if !(*f > 0.0 && f.is_finite()) {
                *f = 1.0;
            }
        }
        for (_, t) in plan.node_kills.iter_mut().chain(plan.node_hangs.iter_mut()) {
            if !(*t >= 0.0 && t.is_finite()) {
                *t = 0.0;
            }
        }
        plan.partitions.retain(|p| {
            !p.nodes.is_empty() && p.from_s >= 0.0 && p.from_s.is_finite() && p.heal_at_s > p.from_s
        });
        plan
    }

    /// The installed plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Total read failures injected so far (diagnostics).
    pub fn injected_read_failures(&self) -> u64 {
        self.injected
    }

    /// Record one timed read of `path` and return its full verdict —
    /// failure, hang, corruption, or clean delivery. Called by the storage
    /// clients at the top of every timed read. Fault precedence:
    /// planned nth-read failures, then hangs, then corruption specs, then
    /// probabilistic failures (which draw from the seeded PRNG exactly as
    /// in plans without corruption, preserving their fault sequences).
    pub fn take_read_outcome(&mut self, path: &str) -> ReadOutcome {
        if self.plan.is_empty() {
            return ReadOutcome::Clean;
        }
        let n = self.read_counts.entry(path.to_string()).or_insert(0);
        *n += 1;
        let nth = *n;
        if self
            .plan
            .read_faults
            .iter()
            .any(|(p, k)| *k == nth && p == path)
        {
            self.injected += 1;
            return ReadOutcome::Fail { nth };
        }
        if self
            .plan
            .read_hangs
            .iter()
            .any(|(p, k)| *k == nth && p == path)
        {
            self.hung += 1;
            return ReadOutcome::Hang { nth };
        }
        if let Some(spec) = self
            .plan
            .corrupt_reads
            .iter()
            .find(|s| s.replica.is_none() && s.matches(path, nth))
        {
            let silent = spec.silent;
            self.corrupted += 1;
            return ReadOutcome::Corrupt { nth, silent };
        }
        if self.plan.read_fail_prob > 0.0 && self.rng.f64() < self.plan.read_fail_prob {
            self.injected += 1;
            return ReadOutcome::Fail { nth };
        }
        ReadOutcome::Clean
    }

    /// Record one logical HDFS block read of `block_key`, returning its
    /// 1-based sequence number. Replica attempts within the read then query
    /// [`FaultInjector::replica_corrupt`] with this number. Deliberately
    /// does not consult failure faults or the PRNG — block-level failure
    /// injection stays at the path level where PR 2 put it.
    pub fn begin_block_read(&mut self, block_key: &str) -> u64 {
        if self.plan.corrupt_reads.is_empty() {
            return 0;
        }
        let n = self.read_counts.entry(block_key.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// Whether the copy of `block_key` served by `node` arrives corrupted
    /// on the `nth` logical read (from [`FaultInjector::begin_block_read`]).
    pub fn replica_corrupt(&mut self, block_key: &str, nth: u64, node: u32) -> bool {
        let hit =
            self.plan.corrupt_reads.iter().any(|s| {
                (s.replica.is_none() || s.replica == Some(node)) && s.matches(block_key, nth)
            });
        if hit {
            self.corrupted += 1;
        }
        hit
    }

    /// Deterministic byte-flip pattern for a corrupt delivery of `path`'s
    /// `nth` read: `(position selector, xor mask)`, applied by
    /// [`FaultInjector::corrupt`]. Derived purely from the plan
    /// seed, the path, and `nth` — not from the live PRNG stream — so the
    /// same plan corrupts the same byte on every run.
    pub fn corruption_pattern(&self, path: &str, nth: u64) -> (u64, u8) {
        let mut s = self
            .plan
            .seed
            .wrapping_add(scirng::hash64(path.as_bytes()))
            .wrapping_add(nth.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let selector = scirng::splitmix64(&mut s);
        let mask = (scirng::splitmix64(&mut s) as u8) | 1;
        (selector, mask)
    }

    /// The one corruption flip: `data[selector % len] ^= mask` on the
    /// *delivered* copy of `path`'s `nth` read (the stored bytes stay clean,
    /// so a transient flip re-reads clean). Empty data has nothing to flip.
    pub fn corrupt(&self, path: &str, nth: u64, data: &mut [u8]) {
        let (selector, mask) = self.corruption_pattern(path, nth);
        let pos = selector.checked_rem(data.len() as u64).unwrap_or(0);
        if let Some(byte) = data.get_mut(pos as usize) {
            *byte ^= mask;
        }
    }

    /// When (if ever) `node` is scheduled to die. With duplicate entries the
    /// earliest kill wins.
    fn kill_time(&self, node: u32) -> Option<f64> {
        earliest(&self.plan.node_kills, node)
    }

    /// Whether `node` is dead at virtual time `now`.
    pub fn node_dead(&self, node: u32, now: f64) -> bool {
        self.kill_time(node).is_some_and(|t| t <= now)
    }

    /// Compute slowdown factor for `node` (1.0 = healthy).
    pub fn slow_factor(&self, node: u32) -> f64 {
        self.plan
            .slow_nodes
            .iter()
            .filter(|(n, _)| *n == node)
            .map(|(_, f)| *f)
            .fold(1.0, |acc, f| acc * f)
    }

    /// When (if ever) `node` starts hanging. With duplicate entries the
    /// earliest hang wins.
    fn hang_time(&self, node: u32) -> Option<f64> {
        earliest(&self.plan.node_hangs, node)
    }

    /// Whether `node` is hung at virtual time `now` (work started on it
    /// never completes; the node still exists, unlike a killed node).
    pub fn node_hung(&self, node: u32, now: f64) -> bool {
        self.hang_time(node).is_some_and(|t| t <= now)
    }

    /// Whether nodes `a` and `b` are on opposite sides of an active
    /// partition at virtual time `now` (exactly one of them is inside an
    /// isolated group). Crate-private: [`crate::Sim::link`] is its one
    /// reader, so no layer above can spell a link rule of its own.
    pub(crate) fn partitioned(&self, a: u32, b: u32, now: f64) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|p| p.active(now) && (p.nodes.contains(&a) != p.nodes.contains(&b)))
    }

    /// Whether `node` is inside an active partitioned group at `now` —
    /// i.e. unreachable from the driver and the rest of the cluster.
    pub fn partition_isolated(&self, node: u32, now: f64) -> bool {
        self.plan
            .partitions
            .iter()
            .any(|p| p.active(now) && p.nodes.contains(&node))
    }

    /// Bandwidth-degradation factor for the undirected link between `a`
    /// and `b` (1.0 = healthy; transfers take `factor`× as long).
    /// Crate-private, like [`FaultInjector::partitioned`].
    pub(crate) fn link_slowdown(&self, a: u32, b: u32) -> f64 {
        self.plan
            .slow_links
            .iter()
            .filter(|(x, y, _)| (*x == a && *y == b) || (*x == b && *y == a))
            .map(|(_, _, f)| *f)
            .fold(1.0, |acc, f| acc * f)
    }
}

/// The earliest time `events` lists for `node`.
fn earliest(events: &[(u32, f64)], node: u32) -> Option<f64> {
    let times = events.iter().filter(|(n, _)| *n == node).map(|(_, t)| *t);
    times.min_by(f64::total_cmp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut inj = FaultInjector::default();
        for _ in 0..100 {
            assert_eq!(inj.take_read_outcome("p"), ReadOutcome::Clean);
        }
        assert!(!inj.node_dead(0, 1e9));
        assert_eq!(inj.slow_factor(3), 1.0);
        assert_eq!(inj.injected_read_failures(), 0);
    }

    #[test]
    fn nth_read_fault_fires_exactly_once() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().fail_read("f", 3));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        assert_eq!(inj.take_read_outcome("g"), ReadOutcome::Clean);
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Fail { nth: 3 });
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        assert_eq!(inj.injected_read_failures(), 1);
    }

    #[test]
    fn probabilistic_faults_are_seed_deterministic() {
        let run = |seed| {
            let mut inj = FaultInjector::default();
            inj.install(FaultPlan::none().with_random_read_failures(seed, 0.3));
            (0..200)
                .map(|i| inj.take_read_outcome(&format!("p{}", i % 5)) != ReadOutcome::Clean)
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds should differ");
        assert!(run(7).iter().any(|&b| b), "some faults should fire");
        assert!(!run(7).iter().all(|&b| b), "not every read fails");
    }

    #[test]
    fn kill_time_and_slow_factor() {
        let mut inj = FaultInjector::default();
        inj.install(
            FaultPlan::none()
                .kill_node(2, 50.0)
                .kill_node(2, 10.0)
                .slow_node(1, 4.0),
        );
        assert_eq!(inj.kill_time(2), Some(10.0), "earliest kill wins");
        assert_eq!(inj.kill_time(0), None);
        assert!(!inj.node_dead(2, 9.9));
        assert!(inj.node_dead(2, 10.0));
        assert_eq!(inj.slow_factor(1), 4.0);
        assert_eq!(inj.slow_factor(2), 1.0);
    }

    #[test]
    fn install_resets_counts() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().fail_read("f", 1));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Fail { nth: 1 });
        inj.install(FaultPlan::none().fail_read("f", 1));
        assert_eq!(
            inj.take_read_outcome("f"),
            ReadOutcome::Fail { nth: 1 },
            "counts were reset"
        );
    }

    #[test]
    fn transient_corruption_hits_only_the_nth_read() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().corrupt_read("f", 2));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        assert_eq!(
            inj.take_read_outcome("f"),
            ReadOutcome::Corrupt {
                nth: 2,
                silent: true
            }
        );
        assert_eq!(
            inj.take_read_outcome("f"),
            ReadOutcome::Clean,
            "re-read is clean"
        );
        assert_eq!(inj.take_read_outcome("g"), ReadOutcome::Clean);
        assert_eq!(inj.corrupted, 1);
        assert_eq!(inj.injected_read_failures(), 0);
    }

    #[test]
    fn persistent_corruption_hits_every_read_from_nth() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().corrupt_read_persistent("f", 2));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        for nth in 2..6 {
            assert_eq!(
                inj.take_read_outcome("f"),
                ReadOutcome::Corrupt { nth, silent: true },
                "read {nth} stays corrupt"
            );
        }
    }

    #[test]
    fn detected_corruption_is_not_silent() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().corrupt_read_detected("f", 1));
        assert_eq!(
            inj.take_read_outcome("f"),
            ReadOutcome::Corrupt {
                nth: 1,
                silent: false
            }
        );
    }

    #[test]
    fn planned_failure_outranks_corruption() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().fail_read("f", 1).corrupt_read("f", 1));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Fail { nth: 1 });
    }

    #[test]
    fn replica_scope_limits_corruption_to_one_node() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().corrupt_replica("blk#7", 2));
        let nth = inj.begin_block_read("blk#7");
        assert_eq!(nth, 1);
        assert!(inj.replica_corrupt("blk#7", nth, 2), "replica 2 is corrupt");
        assert!(!inj.replica_corrupt("blk#7", nth, 0), "replica 0 is clean");
        assert!(!inj.replica_corrupt("blk#9", nth, 2), "other blocks clean");

        inj.install(FaultPlan::none().corrupt_all_replicas("blk#7"));
        let nth = inj.begin_block_read("blk#7");
        assert!(inj.replica_corrupt("blk#7", nth, 0));
        assert!(inj.replica_corrupt("blk#7", nth, 1));
    }

    #[test]
    fn replica_corruption_is_invisible_to_path_reads() {
        // A replica-scoped spec must not corrupt plain path-level reads.
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().corrupt_replica("f", 1));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
    }

    #[test]
    fn corruption_pattern_is_stable_and_distinct() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().with_random_read_failures(9, 0.0));
        let a = inj.corruption_pattern("f", 1);
        assert_eq!(a, inj.corruption_pattern("f", 1), "same inputs, same flip");
        assert_ne!(a, inj.corruption_pattern("f", 2));
        assert_ne!(a, inj.corruption_pattern("g", 1));
        assert_ne!(a.1, 0, "xor mask always flips at least one bit");
        // Drawing from the live PRNG must not perturb the pattern.
        let before = inj.corruption_pattern("h", 3);
        inj.take_read_outcome("h");
        assert_eq!(before, inj.corruption_pattern("h", 3));
    }

    #[test]
    fn corrupt_flips_exactly_the_pattern_byte_and_spares_empty_data() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().with_seed(5));
        let clean: Vec<u8> = (0..37).collect();
        let mut bad = clean.clone();
        inj.corrupt("f", 2, &mut bad);
        let (selector, mask) = inj.corruption_pattern("f", 2);
        let pos = (selector % 37) as usize;
        for (i, (&c, &b)) in clean.iter().zip(&bad).enumerate() {
            assert_eq!(b, if i == pos { c ^ mask } else { c }, "byte {i}");
        }
        // Flipping again restores the bytes; empty data is a no-op.
        inj.corrupt("f", 2, &mut bad);
        assert_eq!(bad, clean);
        inj.corrupt("f", 2, &mut []);
    }

    #[test]
    fn hang_nth_read_fires_exactly_once() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().hang_nth_read("f", 2));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Hang { nth: 2 });
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Clean);
        assert_eq!(inj.take_read_outcome("g"), ReadOutcome::Clean);
        assert_eq!(inj.hung, 1);
        assert_eq!(inj.injected_read_failures(), 0);
    }

    #[test]
    fn planned_failure_outranks_hang() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().fail_read("f", 1).hang_nth_read("f", 1));
        assert_eq!(inj.take_read_outcome("f"), ReadOutcome::Fail { nth: 1 });
    }

    #[test]
    fn hang_node_earliest_wins() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().hang_node(1, 30.0).hang_node(1, 12.0));
        assert_eq!(inj.hang_time(1), Some(12.0));
        assert_eq!(inj.hang_time(0), None);
        assert!(!inj.node_hung(1, 11.9));
        assert!(inj.node_hung(1, 12.0));
        assert!(!inj.node_hung(0, 1e9));
    }

    #[test]
    fn partition_window_and_sides() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().partition(&[1, 2], 10.0, 20.0));
        // Outside the window: fully connected.
        assert!(!inj.partitioned(0, 1, 9.9));
        assert!(!inj.partitioned(0, 1, 20.0), "heal time is exclusive");
        // Inside the window: group vs rest are cut, intra-group links live.
        assert!(inj.partitioned(0, 1, 10.0));
        assert!(inj.partitioned(3, 2, 15.0));
        assert!(!inj.partitioned(1, 2, 15.0), "same side stays connected");
        assert!(!inj.partitioned(0, 3, 15.0), "same side stays connected");
        assert!(inj.partition_isolated(1, 15.0));
        assert!(!inj.partition_isolated(0, 15.0));
    }

    #[test]
    fn never_healing_partition() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().partition(&[2], 5.0, f64::INFINITY));
        assert!(inj.partition_isolated(2, 1e12));
    }

    #[test]
    fn link_slowdown_is_undirected() {
        let mut inj = FaultInjector::default();
        inj.install(FaultPlan::none().slow_link(0, 2, 3.0));
        assert_eq!(inj.link_slowdown(0, 2), 3.0);
        assert_eq!(inj.link_slowdown(2, 0), 3.0);
        assert_eq!(inj.link_slowdown(0, 1), 1.0);
    }

    #[test]
    fn validate_rejects_bad_entries_typed() {
        assert_eq!(
            FaultPlan::none().slow_node(1, 0.0).validate(),
            Err(FaultPlanError::BadSlowFactor {
                node: 1,
                factor: 0.0
            })
        );
        assert!(matches!(
            FaultPlan::none().slow_node(1, f64::NAN).validate(),
            Err(FaultPlanError::BadSlowFactor { node: 1, .. })
        ));
        assert_eq!(
            FaultPlan::none().slow_link(0, 1, -2.0).validate(),
            Err(FaultPlanError::BadLinkFactor {
                a: 0,
                b: 1,
                factor: -2.0
            })
        );
        assert_eq!(
            FaultPlan::none().kill_node(0, -1.0).validate(),
            Err(FaultPlanError::BadTime {
                what: "kill_node",
                at_s: -1.0
            })
        );
        assert_eq!(
            FaultPlan::none().hang_node(0, f64::NEG_INFINITY).validate(),
            Err(FaultPlanError::BadTime {
                what: "hang_node",
                at_s: f64::NEG_INFINITY
            })
        );
        assert_eq!(
            FaultPlan::none().partition(&[0], 10.0, 10.0).validate(),
            Err(FaultPlanError::BadPartitionWindow {
                from_s: 10.0,
                heal_at_s: 10.0
            })
        );
        assert_eq!(
            FaultPlan::none().partition(&[0], 10.0, 5.0).validate(),
            Err(FaultPlanError::BadPartitionWindow {
                from_s: 10.0,
                heal_at_s: 5.0
            })
        );
        assert_eq!(
            FaultPlan::none().partition(&[], 0.0, 1.0).validate(),
            Err(FaultPlanError::EmptyPartitionGroup)
        );
        assert_eq!(FaultPlan::none().slow_node(1, 2.5).validate(), Ok(()));
        assert_eq!(
            FaultPlan::none()
                .partition(&[1], 0.0, f64::INFINITY)
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn clamp_neutralises_invalid_entries() {
        // Release-path behaviour: invalid entries become no-ops rather than
        // injecting garbage. Exercised directly (install would debug-panic).
        let plan = FaultPlan::none()
            .slow_node(1, f64::NAN)
            .slow_link(0, 1, -3.0)
            .kill_node(2, -5.0)
            .partition(&[0], 8.0, 2.0);
        let clamped = FaultInjector::clamp(plan);
        assert_eq!(clamped.slow_nodes, vec![(1, 1.0)]);
        assert_eq!(clamped.slow_links, vec![(0, 1, 1.0)]);
        assert_eq!(clamped.node_kills, vec![(2, 0.0)]);
        assert!(clamped.partitions.is_empty());
        assert_eq!(clamped.validate(), Ok(()));
    }

    #[test]
    fn corruption_does_not_shift_probabilistic_failures() {
        // The probabilistic fault sequence for reads unaffected by
        // corruption specs must be identical with and without them.
        let run = |with_corruption: bool| {
            let mut plan = FaultPlan::none().with_random_read_failures(11, 0.3);
            if with_corruption {
                plan = plan.corrupt_read("other", 999);
            }
            let mut inj = FaultInjector::default();
            inj.install(plan);
            (0..100)
                .map(|_| matches!(inj.take_read_outcome("p"), ReadOutcome::Fail { .. }))
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(false), run(true));
    }
}
