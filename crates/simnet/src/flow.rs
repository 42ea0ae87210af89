//! Flow-level network/storage model with max–min fair bandwidth sharing.
//!
//! Every shared pipe in the simulated cluster — a disk, a NIC transmit or
//! receive side, the core switch fabric — is a [`Resource`] with a fixed
//! capacity in bytes/second. A transfer is a [`Flow`]: a number of bytes
//! pushed along a *path* (an ordered set of resources). At any instant the
//! rate of each active flow is the **max–min fair allocation**: capacity is
//! divided by progressive filling, so a flow gets the fair share of its most
//! contended resource and unused capacity is redistributed to the others.
//!
//! The allocation is recomputed once per simulated instant in which a flow
//! started or finished (the classic "fluid" approximation of TCP sharing used
//! by flow-level simulators such as SimGrid). Between recomputations every
//! flow progresses linearly at its assigned rate, so completion times are
//! exact.

use crate::time::SimTime;

/// Index of a [`Resource`] inside a [`FlowNet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub u32);

/// Identifier of an active flow. Never reused within one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FlowId(pub u64);

/// A capacity-limited pipe (disk, NIC side, switch fabric, ...).
#[derive(Clone, Debug)]
pub struct Resource {
    /// Human-readable name, used in traces and error messages.
    pub name: String,
    /// Capacity in bytes per second. `f64::INFINITY` means uncontended.
    pub capacity: f64,
    /// Stream-interference coefficient (rotating disks): with `n`
    /// concurrent flows the effective capacity is
    /// `capacity / (1 + thrash * (n - 1))` — interleaved streams cost head
    /// movement. 0 for NICs/switches (default).
    pub thrash: f64,
}

#[derive(Debug)]
struct FlowState {
    id: FlowId,
    path: Vec<ResourceId>,
    /// Bytes still to transfer as of `FlowNet::last_update`.
    remaining: f64,
    /// Current max–min fair rate in bytes/second.
    rate: f64,
}

impl FlowState {
    /// Predicted completion offset from `FlowNet::last_update` at the
    /// current rate.
    fn eta(&self) -> f64 {
        if self.remaining <= 1e-6 {
            0.0
        } else if self.rate == 0.0 {
            f64::INFINITY
        } else {
            self.remaining / self.rate
        }
    }
}

/// Per-resource working state of one progressive-filling pass, kept between
/// passes so the vectors are reused.
#[derive(Debug, Default)]
struct Fill {
    /// Residual capacity.
    cap: f64,
    /// Unfrozen flows crossing this resource (a path that names the
    /// resource twice counts twice).
    users: u32,
}

/// The resource among `contended` with the smallest fair share
/// (`cap / users`) that still has unfrozen users, lowest index on ties.
fn bottleneck(contended: &[u32], fill: &[Fill]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for &ri in contended {
        let Some(s) = fill.get(ri as usize).filter(|s| s.users > 0) else {
            continue;
        };
        let share = s.cap / s.users as f64;
        match best {
            Some((_, b)) if b <= share => {}
            _ => best = Some((ri as usize, share)),
        }
    }
    best
}

/// The set of resources plus all currently active flows.
///
/// `FlowNet` is pure bookkeeping: it knows *rates* and *remaining bytes* but
/// not the event queue. The [`crate::Sim`] engine drives it, translating rate
/// changes into (re)scheduled completion events.
#[derive(Debug, Default)]
pub struct FlowNet {
    resources: Vec<Resource>,
    flows: Vec<FlowState>,
    next_flow: u64,
    /// Bumped on every rate recomputation; stale completion events compare
    /// their recorded epoch against this and no-op if it moved on.
    pub(crate) epoch: u64,
    last_update: SimTime,
    /// Total bytes ever admitted, for reporting.
    pub bytes_admitted: f64,
    /// Scratch of [`Self::recompute_rates`], one entry per resource.
    fill: Vec<Fill>,
    /// Scratch: per resource, the indices into `flows` of every flow
    /// crossing it, ascending.
    crossing: Vec<Vec<u32>>,
    /// Scratch: finite resources that carry a flow, ascending.
    contended: Vec<u32>,
}

impl FlowNet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a resource and return its id.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        self.add_resource_thrash(name, capacity, 0.0)
    }

    /// Register a resource with a stream-interference coefficient (HDDs).
    pub fn add_resource_thrash(
        &mut self,
        name: impl Into<String>,
        capacity: f64,
        thrash: f64,
    ) -> ResourceId {
        assert!(capacity > 0.0, "resource capacity must be positive");
        assert!(
            (0.0..=10.0).contains(&thrash),
            "implausible thrash {thrash}"
        );
        let id = ResourceId(self.resources.len() as u32);
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            thrash,
        });
        id
    }

    /// Look up a resource; `None` for an id this network never handed out.
    pub fn resource(&self, id: ResourceId) -> Option<&Resource> {
        self.resources.get(id.0 as usize)
    }

    /// Number of registered resources.
    pub fn n_resources(&self) -> usize {
        self.resources.len()
    }

    /// Number of currently active flows.
    pub fn n_active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Number of fair-share recomputations so far. Grows with the number of
    /// simulated instants in which the flow set changed, not with the number
    /// of flows started.
    pub fn recomputes(&self) -> u64 {
        self.epoch
    }

    /// Number of flows admitted so far.
    pub fn flows_started(&self) -> u64 {
        self.next_flow
    }

    /// Advance all flow progress to time `now` using current rates.
    /// Must be called before any add/remove at time `now`.
    pub(crate) fn advance_to(&mut self, now: SimTime) {
        let dt = now - self.last_update;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            for f in &mut self.flows {
                f.remaining = (f.remaining - f.rate * dt).max(0.0);
            }
        }
        self.last_update = now;
    }

    /// Admit a flow of `bytes` along `path`. Caller must `advance_to(now)`
    /// first and recompute rates afterwards.
    pub(crate) fn admit(&mut self, path: Vec<ResourceId>, bytes: f64) -> FlowId {
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "invalid flow size {bytes}"
        );
        for r in &path {
            assert!(
                (r.0 as usize) < self.resources.len(),
                "unknown resource {r:?}"
            );
        }
        let id = FlowId(self.next_flow);
        self.next_flow += 1;
        self.bytes_admitted += bytes;
        self.flows.push(FlowState {
            id,
            path,
            remaining: bytes,
            rate: 0.0,
        });
        id
    }

    /// Remove and return every flow whose remaining bytes have drained
    /// (call after [`Self::advance_to`]). Order is deterministic (admission
    /// order).
    pub(crate) fn take_finished(&mut self) -> Vec<FlowId> {
        // A flow is done when its remainder is negligible OR when it could
        // not drain within one representable step of virtual time (the
        // remainder is below rate x ulp(now) — scheduling a tick for it
        // would land on the same instant and livelock).
        let t = self.last_update.secs().abs().max(1.0);
        let ulp = t * f64::EPSILON * 4.0;
        let mut out = Vec::new();
        self.flows.retain(|f| {
            let done = f.remaining <= 1e-6 || f.remaining <= f.rate * ulp;
            if done {
                out.push(f.id);
            }
            !done
        });
        out
    }

    /// Remove a flow. Returns whether it was present.
    #[cfg(test)]
    fn remove(&mut self, id: FlowId) -> bool {
        if let Some(pos) = self.flows.iter().position(|f| f.id == id) {
            self.flows.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Remaining bytes of a flow, if still active.
    #[cfg(test)]
    fn remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.iter().find(|f| f.id == id).map(|f| f.remaining)
    }

    /// Current rate of a flow, if still active.
    #[cfg(test)]
    fn rate(&self, id: FlowId) -> Option<f64> {
        self.flows.iter().find(|f| f.id == id).map(|f| f.rate)
    }

    /// Recompute all flow rates by progressive filling (max–min fairness)
    /// and bump the epoch. Returns the earliest predicted completion among
    /// the active flows as an offset from `last_update` (`remaining / rate`;
    /// infinite when there is no flow or none can progress).
    ///
    /// Work is proportional to the flows' path lengths plus, per filling
    /// round, the number of finite resources that carry a flow: each round
    /// finds the bottleneck among those resources only and freezes the flows
    /// on the bottleneck's own list. Rounds, tie-breaks (lowest resource
    /// index, then ascending flow index) and the order of the per-flow
    /// capacity subtractions are those of the textbook loop kept in the
    /// tests as `recompute_rates_reference`, so rates are bit-identical.
    pub(crate) fn recompute_rates(&mut self) -> f64 {
        self.epoch += 1;
        if self.flows.is_empty() {
            return f64::INFINITY;
        }
        let FlowNet {
            resources,
            flows,
            fill,
            crossing,
            contended,
            ..
        } = self;
        fill.clear();
        fill.resize_with(resources.len(), Fill::default);
        crossing.resize_with(resources.len(), Vec::new);
        crossing.iter_mut().for_each(Vec::clear);
        // An unfrozen flow is marked by an infinite rate: filling only ever
        // assigns finite shares, and a flow still unfrozen at the end
        // crosses infinite resources only, so the mark is its final rate.
        for (fi, f) in flows.iter_mut().enumerate() {
            f.rate = f64::INFINITY;
            for r in &f.path {
                let ri = r.0 as usize;
                if let (Some(s), Some(c)) = (fill.get_mut(ri), crossing.get_mut(ri)) {
                    s.users += 1;
                    c.push(fi as u32);
                }
            }
        }
        contended.clear();
        for (ri, (s, r)) in fill.iter_mut().zip(resources.iter()).enumerate() {
            // Disk stream-interference: effective capacity shrinks with the
            // number of concurrent streams (head thrashing on HDDs).
            s.cap = if r.thrash > 0.0 && s.users > 1 {
                // Elevator scheduling bounds the worst case: cap the
                // interference degradation at 3x.
                r.capacity / (1.0 + r.thrash * (s.users - 1) as f64).min(3.0)
            } else {
                r.capacity
            };
            if s.users > 0 && s.cap.is_finite() {
                contended.push(ri as u32);
            }
        }

        // When no bottleneck is left, the unfrozen flows cross infinite
        // resources only.
        while let Some((bottleneck, share)) = bottleneck(contended, fill) {
            // Freeze every unfrozen flow crossing the bottleneck at `share`.
            for &fi in crossing.get(bottleneck).into_iter().flatten() {
                let Some(f) = flows.get_mut(fi as usize).filter(|f| f.rate.is_infinite()) else {
                    continue;
                };
                f.rate = share;
                for r in &f.path {
                    if let Some(s) = fill.get_mut(r.0 as usize) {
                        // Infinite capacities stay infinite.
                        s.cap = (s.cap - share).max(0.0);
                        s.users -= 1;
                    }
                }
            }
            debug_assert_eq!(fill.get(bottleneck).map(|s| s.users), Some(0));
        }

        let mut min_eta = f64::INFINITY;
        for f in flows.iter_mut() {
            if f.rate.is_infinite() {
                // Uncontended path (e.g. loopback): transfers instantly.
                // Zero the remainder here — progress accounting advances by
                // rate x elapsed-time, which is NaN/undefined for an
                // infinite rate over zero time.
                f.remaining = 0.0;
            }
            let eta = f.eta();
            if eta < min_eta {
                min_eta = eta;
            }
        }
        min_eta
    }

    pub(crate) fn last_update(&self) -> SimTime {
        self.last_update
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook progressive-filling loop `recompute_rates` replaced
    /// (every round scans every resource and every unfrozen flow's path),
    /// kept verbatim as the reference the differential test compares with.
    impl FlowNet {
        #[allow(clippy::needless_range_loop)]
        fn recompute_rates_reference(&mut self) -> Vec<(FlowId, f64)> {
            self.epoch += 1;
            let nf = self.flows.len();
            if nf == 0 {
                return Vec::new();
            }
            let nr = self.resources.len();
            // Residual capacity per resource and number of unfrozen flows using it.
            let mut users: Vec<u32> = vec![0; nr];
            for f in &self.flows {
                for r in &f.path {
                    users[r.0 as usize] += 1;
                }
            }
            // Disk stream-interference: effective capacity shrinks with the
            // number of concurrent streams (head thrashing on HDDs).
            let mut cap: Vec<f64> = self
                .resources
                .iter()
                .zip(&users)
                .map(|(r, &u)| {
                    if r.thrash > 0.0 && u > 1 {
                        // Elevator scheduling bounds the worst case: cap the
                        // interference degradation at 3x.
                        r.capacity / (1.0 + r.thrash * (u - 1) as f64).min(3.0)
                    } else {
                        r.capacity
                    }
                })
                .collect();
            let mut frozen = vec![false; nf];
            let mut rates = vec![0.0f64; nf];
            let mut remaining_flows = nf;

            while remaining_flows > 0 {
                // Find bottleneck: resource with the smallest fair share.
                let mut best: Option<(usize, f64)> = None;
                for (ri, (&c, &u)) in cap.iter().zip(users.iter()).enumerate() {
                    if u == 0 || !c.is_finite() {
                        continue;
                    }
                    let share = c / u as f64;
                    match best {
                        Some((_, s)) if s <= share => {}
                        _ => best = Some((ri, share)),
                    }
                }
                let Some((bottleneck, share)) = best else {
                    // All remaining flows pass only through infinite resources.
                    for (fi, f) in self.flows.iter().enumerate() {
                        if !frozen[fi] {
                            rates[fi] = f64::INFINITY;
                            let _ = f;
                        }
                    }
                    break;
                };
                // Freeze every unfrozen flow crossing the bottleneck at `share`.
                for fi in 0..nf {
                    if frozen[fi] {
                        continue;
                    }
                    if self.flows[fi]
                        .path
                        .iter()
                        .any(|r| r.0 as usize == bottleneck)
                    {
                        frozen[fi] = true;
                        rates[fi] = share;
                        remaining_flows -= 1;
                        for r in &self.flows[fi].path {
                            let ri = r.0 as usize;
                            if cap[ri].is_finite() {
                                cap[ri] = (cap[ri] - share).max(0.0);
                            }
                            users[ri] -= 1;
                        }
                    }
                }
                debug_assert_eq!(users[bottleneck], 0);
            }

            let mut out = Vec::with_capacity(nf);
            for (fi, f) in self.flows.iter_mut().enumerate() {
                f.rate = rates[fi];
                if f.rate.is_infinite() {
                    // Uncontended path (e.g. loopback): transfers instantly.
                    // Zero the remainder here — progress accounting advances by
                    // rate x elapsed-time, which is NaN/undefined for an
                    // infinite rate over zero time.
                    f.remaining = 0.0;
                }
                let eta = if f.remaining <= 1e-6 {
                    0.0
                } else if f.rate == 0.0 {
                    f64::INFINITY
                } else {
                    f.remaining / f.rate
                };
                out.push((f.id, eta));
            }
            out
        }
    }

    fn net_with(caps: &[f64]) -> FlowNet {
        let mut n = FlowNet::new();
        for (i, &c) in caps.iter().enumerate() {
            n.add_resource(format!("r{i}"), c);
        }
        n
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut n = net_with(&[100.0]);
        let f = n.admit(vec![ResourceId(0)], 1000.0);
        let min_eta = n.recompute_rates();
        assert_eq!(n.rate(f), Some(100.0));
        assert!((min_eta - 10.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut n = net_with(&[100.0]);
        let a = n.admit(vec![ResourceId(0)], 1000.0);
        let b = n.admit(vec![ResourceId(0)], 500.0);
        n.recompute_rates();
        assert_eq!(n.rate(a), Some(50.0));
        assert_eq!(n.rate(b), Some(50.0));
    }

    #[test]
    fn bottleneck_redistribution() {
        // Flow A uses r0 (cap 100) only; flow B uses r0 and r1 (cap 10).
        // B is bottlenecked at 10 by r1, A should get the leftover 90.
        let mut n = net_with(&[100.0, 10.0]);
        let a = n.admit(vec![ResourceId(0)], 1e6);
        let b = n.admit(vec![ResourceId(0), ResourceId(1)], 1e6);
        n.recompute_rates();
        assert!((n.rate(b).unwrap() - 10.0).abs() < 1e-9);
        assert!((n.rate(a).unwrap() - 90.0).abs() < 1e-9);
    }

    #[test]
    fn progress_advances_with_time() {
        let mut n = net_with(&[100.0]);
        let f = n.admit(vec![ResourceId(0)], 1000.0);
        n.recompute_rates();
        n.advance_to(SimTime(4.0));
        assert!((n.remaining(f).unwrap() - 600.0).abs() < 1e-9);
        n.advance_to(SimTime(10.0));
        assert_eq!(n.remaining(f), Some(0.0));
    }

    #[test]
    fn removal_frees_capacity() {
        let mut n = net_with(&[100.0]);
        let a = n.admit(vec![ResourceId(0)], 1000.0);
        let b = n.admit(vec![ResourceId(0)], 1000.0);
        n.recompute_rates();
        assert_eq!(n.rate(a), Some(50.0));
        assert!(n.remove(b));
        n.recompute_rates();
        assert_eq!(n.rate(a), Some(100.0));
        assert!(!n.remove(b));
    }

    #[test]
    fn infinite_resources_never_bottleneck() {
        let mut n = FlowNet::new();
        let inf = n.add_resource("inf", f64::INFINITY);
        let cap = n.add_resource("cap", 50.0);
        let f = n.admit(vec![inf, cap], 100.0);
        n.recompute_rates();
        assert_eq!(n.rate(f), Some(50.0));
    }

    #[test]
    fn thrash_degrades_with_stream_count_and_caps() {
        let mut n = FlowNet::new();
        let d = n.add_resource_thrash("hdd", 100.0, 0.5);
        // 1 stream: full capacity.
        let f = n.admit(vec![d], 1e6);
        n.recompute_rates();
        assert_eq!(n.rate(f), Some(100.0));
        // 3 streams: 100 / (1 + 0.5*2) = 50 total → ~16.7 each.
        n.admit(vec![d], 1e6);
        n.admit(vec![d], 1e6);
        n.recompute_rates();
        assert!((n.rate(f).unwrap() - 50.0 / 3.0).abs() < 1e-9);
        // Many streams: degradation capped at 3x → 33.3 total.
        for _ in 0..20 {
            n.admit(vec![d], 1e6);
        }
        n.recompute_rates();
        let total: f64 = 23.0 * n.rate(f).unwrap();
        assert!((total - 100.0 / 3.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn take_finished_returns_only_drained_flows() {
        let mut n = net_with(&[100.0]);
        let a = n.admit(vec![ResourceId(0)], 100.0);
        let b = n.admit(vec![ResourceId(0)], 500.0);
        n.recompute_rates();
        n.advance_to(SimTime(2.0)); // each got 50 B/s x 2s = 100
        let done = n.take_finished();
        assert_eq!(done, vec![a]);
        assert!(n.remaining(b).unwrap() > 0.0);
        assert_eq!(n.n_active_flows(), 1);
    }

    #[test]
    fn rates_conserve_capacity() {
        // Sum of rates through any resource never exceeds its capacity.
        let mut n = net_with(&[100.0, 60.0, 30.0]);
        let paths: Vec<Vec<ResourceId>> = vec![
            vec![ResourceId(0)],
            vec![ResourceId(0), ResourceId(1)],
            vec![ResourceId(1), ResourceId(2)],
            vec![ResourceId(0), ResourceId(2)],
            vec![ResourceId(2)],
        ];
        for p in paths {
            n.admit(p, 1e9);
        }
        n.recompute_rates();
        for ri in 0..3 {
            let total: f64 = n
                .flows
                .iter()
                .filter(|f| f.path.iter().any(|r| r.0 as usize == ri))
                .map(|f| f.rate)
                .sum();
            assert!(
                total <= n.resources[ri].capacity + 1e-6,
                "resource {ri} oversubscribed: {total}"
            );
        }
        // Max-min property: every flow is bottlenecked somewhere (its rate
        // cannot be increased without exceeding some capacity).
        for (fi, f) in n.flows.iter().enumerate() {
            let bottled = f.path.iter().any(|r| {
                let ri = r.0 as usize;
                let total: f64 = n
                    .flows
                    .iter()
                    .filter(|g| g.path.iter().any(|x| x.0 as usize == ri))
                    .map(|g| g.rate)
                    .sum();
                total >= n.resources[ri].capacity - 1e-6
            });
            assert!(bottled, "flow {fi} is not bottlenecked anywhere");
        }
    }

    #[test]
    fn rates_and_etas_bit_identical_to_reference() {
        // Generated flow sets, applied to two nets in lockstep: rounds of
        // (admit a batch, recompute, advance towards the earliest
        // completion, drain).
        let bits = |n: &FlowNet| -> Vec<(FlowId, u64, u64, u64)> {
            n.flows
                .iter()
                .map(|f| {
                    (
                        f.id,
                        f.rate.to_bits(),
                        f.remaining.to_bits(),
                        f.eta().to_bits(),
                    )
                })
                .collect()
        };
        let mut flows_seen = 0;
        for seed in 0..400 {
            let mut rng = scirng::Rng::seed_from_u64(seed);
            let mut new = FlowNet::new();
            let mut old = FlowNet::new();
            let nr = 1 + rng.below(10);
            // Few distinct capacities so equal shares tie across resources.
            let caps = [100.0, 100.0, 50.0, 12.5, 1e9, f64::INFINITY];
            for i in 0..nr {
                let cap = caps[rng.below(caps.len())];
                let thrash = if cap.is_finite() && rng.below(3) == 0 {
                    [0.25, 0.5, 2.0][rng.below(3)]
                } else {
                    0.0
                };
                new.add_resource_thrash(format!("r{i}"), cap, thrash);
                old.add_resource_thrash(format!("r{i}"), cap, thrash);
            }
            let rounds = 1 + rng.below(5);
            let mut now = 0.0;
            for _ in 0..rounds {
                // 0, 1, 2 or many streams per round.
                for _ in 0..[0, 1, 2, 3, 8, 40][rng.below(6)] {
                    // Empty paths, repeated resources, shared and disjoint
                    // paths all occur.
                    let path: Vec<ResourceId> = (0..rng.below(5))
                        .map(|_| ResourceId(rng.below(nr) as u32))
                        .collect();
                    let bytes = match rng.below(5) {
                        0 => 0.0,
                        1 => 1e-7,
                        2 => 1000.0,
                        _ => rng.range_f64(1.0, 1e6),
                    };
                    new.admit(path.clone(), bytes);
                    old.admit(path, bytes);
                }
                let min_eta = new.recompute_rates();
                let etas = old.recompute_rates_reference();
                assert_eq!(bits(&new), bits(&old), "seed {seed}");
                let ref_min = etas.iter().map(|e| e.1).fold(f64::INFINITY, f64::min);
                assert_eq!(min_eta.to_bits(), ref_min.to_bits(), "seed {seed}");
                for ((id, eta), f) in etas.iter().zip(&new.flows) {
                    assert_eq!((*id, eta.to_bits()), (f.id, f.eta().to_bits()));
                }
                flows_seen += new.flows.len();
                if min_eta.is_finite() {
                    now += min_eta * [0.0, 0.5, 1.0, 1.0][rng.below(4)];
                }
                new.advance_to(SimTime(now));
                old.advance_to(SimTime(now));
                assert_eq!(new.take_finished(), old.take_finished(), "seed {seed}");
                assert_eq!(bits(&new), bits(&old), "seed {seed}");
            }
            assert_eq!(new.recomputes(), rounds as u64);
        }
        assert!(flows_seen > 5_000, "generator too thin: {flows_seen}");
    }
}
