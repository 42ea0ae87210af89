//! The discrete-event engine: an ordered queue of scheduled closures plus
//! the glue that turns [`FlowNet`] rate changes into completion events.
//!
//! Flow completions are driven by a *single* live prediction event: after a
//! rate recomputation only the earliest finishing flow gets an event
//! (epoch-guarded against staleness). When it fires, every flow that has
//! drained completes and the next prediction is scheduled.
//!
//! **One recomputation per instant.** Starting or completing a flow does not
//! recompute anything: it marks the flow set changed and *reserves the queue
//! position* (`seq`) the prediction event for that change takes. No simulated
//! time passes while a change is pending, so the intermediate rates could
//! never have moved a byte; [`Sim::step`] recomputes rates once, from the
//! final flow set of the instant, and pushes the one prediction event at the
//! last reserved position. That is exactly the event a recomputation at
//! every change would have left live, at the same `(time, seq)`, so every
//! callback runs in the same order at the same time as under eager
//! recomputation; only its superseded (no-op) predictions are never queued.
//! The recomputation is put off while the queue head would pop before the
//! reserved position anyway, so a burst of same-instant events that each
//! start flows costs one recomputation, not one per event; a prediction
//! event popped while a change is pending is superseded by it.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::rc::Rc;

use crate::cost::CostModel;
use crate::fault::FaultInjector;
use crate::flow::{FlowId, FlowNet, ResourceId};
use crate::time::SimTime;
use crate::topology::NodeId;

type Callback = Box<dyn FnOnce(&mut Sim)>;

/// Queue position: earliest time first, FIFO among equal times.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    time: SimTime,
    seq: u64,
}

enum EventKind {
    /// Run an arbitrary closure.
    Call(Callback),
    /// The earliest predicted flow completion, valid only if `epoch` is
    /// current and no flow change is pending.
    FlowTick { epoch: u64 },
}

/// A queued event. Ordered by `key` alone (`seq` is unique), reversed so the
/// max-heap pops the earliest.
struct Entry {
    key: Key,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.cmp(&self.key)
    }
}

/// The simulator: virtual clock, event queue, flow network and cost model.
///
/// ```
/// use simnet::{Sim, SimTime};
/// let mut sim = Sim::new();
/// let r = sim.net.add_resource("disk", 100.0);
/// sim.start_flow(vec![r], 1000.0, |sim| {
///     assert_eq!(sim.now(), SimTime(10.0));
/// });
/// sim.run();
/// assert_eq!(sim.now(), SimTime(10.0));
/// ```
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    /// `Some(seq)` while the flow set has changed since the last rate
    /// recomputation: the queue position reserved for its prediction event.
    pending_tick: Option<u64>,
    /// The shared-resource flow model.
    pub net: FlowNet,
    /// Calibrated virtual costs for compute phases.
    pub cost: CostModel,
    /// Deterministic fault injection (empty plan by default).
    pub faults: FaultInjector,
    flow_callbacks: HashMap<FlowId, Callback>,
    events_processed: u64,
}

impl Default for Sim {
    fn default() -> Self {
        Self::new()
    }
}

impl Sim {
    pub fn new() -> Self {
        Self::with_cost(CostModel::default())
    }

    pub fn with_cost(cost: CostModel) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            pending_tick: None,
            net: FlowNet::new(),
            cost,
            faults: FaultInjector::default(),
            flow_callbacks: HashMap::new(),
            events_processed: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (for diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Take the next queue position.
    fn next_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        assert!(time.is_valid(), "scheduling at invalid time {time:?}");
        debug_assert!(time >= self.now, "scheduling into the past");
        self.queue.push(Entry {
            key: Key { time, seq },
            kind,
        });
    }

    /// Schedule `cb` to run at absolute time `t` (must be ≥ now).
    pub fn at(&mut self, t: SimTime, cb: impl FnOnce(&mut Sim) + 'static) {
        let seq = self.next_seq();
        self.push(t.max(self.now), seq, EventKind::Call(Box::new(cb)));
    }

    /// Schedule `cb` to run `dt` seconds from now.
    pub fn after(&mut self, dt: f64, cb: impl FnOnce(&mut Sim) + 'static) {
        assert!(dt >= 0.0 && dt.is_finite(), "invalid delay {dt}");
        self.at(SimTime(self.now.0 + dt), cb);
    }

    /// Start a transfer of `bytes` along `path`; `done` runs when the last
    /// byte arrives. Returns the flow id (useful for diagnostics only —
    /// flows cannot be cancelled).
    pub fn start_flow(
        &mut self,
        path: Vec<ResourceId>,
        bytes: f64,
        done: impl FnOnce(&mut Sim) + 'static,
    ) -> FlowId {
        self.net.advance_to(self.now);
        let id = self.net.admit(path, bytes);
        self.flow_callbacks.insert(id, Box::new(done));
        self.flows_changed();
        id
    }

    /// One client round trip (a metadata or request RPC): `done` runs
    /// `cost.rpc_s` from now.
    pub fn rpc(&mut self, done: impl FnOnce(&mut Sim) + 'static) {
        self.after(self.cost.rpc_s, done);
    }

    /// The one timed disk transfer: the request RPC, then head positioning
    /// on `disk` (the disk end of `path`), then `bytes` along `path`; `done`
    /// runs when the last byte lands. Positioning occupies the disk itself —
    /// a disk-only flow of the bandwidth-equivalent `seek_s × capacity`
    /// bytes, so it serializes with every other request on that disk (zero
    /// bytes on an infinite-capacity disk). Interleaving *across* clients is
    /// modelled separately, by the disk thrash factor.
    pub fn disk_transfer(
        &mut self,
        disk: ResourceId,
        path: Vec<ResourceId>,
        bytes: f64,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        // A disk outside this network has no seek to price: the flow
        // admission below rejects it, as it rejects any such resource.
        let capacity = self.net.resource(disk).map_or(0.0, |r| r.capacity);
        let seek = self.cost.seek_s * capacity;
        let seek_bytes = if seek.is_finite() { seek } else { 0.0 };
        self.rpc(move |sim| {
            sim.start_flow(vec![disk], seek_bytes, move |sim| {
                sim.start_flow(path, bytes, done);
            });
        });
    }

    /// The one link rule: what the fault plan does, right now, to bytes
    /// that compute node `src` serves to `dst`. `None` — they never arrive:
    /// `src` is hung, or an active partition separates the two. `Some(f)` —
    /// the link is up and the transfer takes `f`× as long (the compounded
    /// `slow_link` factors, 1.0 on a healthy link). Loopback crosses no wire
    /// and is always `Some(1.0)`: whatever a fault does to work *on* a node
    /// is the driver's business, not the link's.
    pub fn link(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let (a, b, now, faults) = (src.0, dst.0, self.now.secs(), &self.faults);
        if a == b {
            return Some(1.0);
        }
        let up = !faults.node_hung(a, now) && !faults.partitioned(a, b, now);
        up.then(|| faults.link_slowdown(a, b))
    }

    /// The one node-to-node transfer: `bytes` from `src` to `dst` along
    /// `path`, under [`Self::link`] as it stands at the point of the call.
    /// Down: `done` is dropped and nothing is scheduled (hang = drop — only
    /// a hedge or a caller-side deadline recovers). Up: the flow carries
    /// `bytes × factor`, and `done` runs when its last byte lands. With
    /// `disk` (the `src` end of `path`) the bytes come off that disk first:
    /// the flow is a [`Self::disk_transfer`], request RPC and seek included.
    pub fn net_transfer(
        &mut self,
        src: NodeId,
        dst: NodeId,
        disk: Option<ResourceId>,
        path: Vec<ResourceId>,
        bytes: f64,
        done: impl FnOnce(&mut Sim) + 'static,
    ) {
        match (self.link(src, dst), disk) {
            (None, _) => {}
            (Some(f), Some(disk)) => self.disk_transfer(disk, path, bytes * f, done),
            (Some(f), None) => drop(self.start_flow(path, bytes * f, done)),
        }
    }

    /// The flow set changed at `now`: reserve the queue position of the
    /// prediction event [`Self::step`] will push for it.
    fn flows_changed(&mut self) {
        self.pending_tick = Some(self.next_seq());
    }

    /// Recompute fair-share rates and queue one prediction event at
    /// position `seq`, at the earliest completion under the new epoch but
    /// never earlier than `min_dt` from now.
    fn schedule_tick(&mut self, seq: u64, min_dt: f64) {
        let min_eta = self.net.recompute_rates();
        if min_eta.is_finite() {
            let t = SimTime(self.net.last_update().0 + min_eta)
                .max(self.now)
                .max(SimTime(self.now.0 + min_dt));
            let epoch = self.net.epoch;
            self.push(t, seq, EventKind::FlowTick { epoch });
        }
        // All-infinite (zero-rate) flows re-enter consideration on the next
        // admit; a drained queue with active flows is caught by `run`.
    }

    fn on_flow_tick(&mut self, epoch: u64) {
        if epoch != self.net.epoch || self.pending_tick.is_some() {
            return; // superseded by a later change of the flow set
        }
        self.net.advance_to(self.now);
        let finished = self.net.take_finished();
        if finished.is_empty() {
            // Floating-point rounding left a sliver of bytes; predict again
            // from the current remainder, at least one nanosecond ahead so
            // virtual time always advances (livelock guard).
            let seq = self.next_seq();
            self.schedule_tick(seq, 1e-9);
            return;
        }
        let mut callbacks = Vec::with_capacity(finished.len());
        for id in finished {
            callbacks.push(
                self.flow_callbacks
                    .remove(&id)
                    // scilint::allow(p-expect, reason = "sim-state invariant: every flow registers its callback at start_flow; a miss means corrupt event state and must stop the run, not drop a completion")
                    .expect("completion callback present"),
            );
        }
        self.flows_changed();
        for cb in callbacks {
            cb(self);
        }
    }

    /// Process one event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        if let Some(seq) = self.pending_tick {
            // The prediction event lands at `(≥ now, seq)`: while the head
            // pops before that whatever the rates are, keep collecting the
            // instant's changes.
            let due = Key {
                time: self.now,
                seq,
            };
            let head_pops_first = self.queue.peek().is_some_and(|head| head.key < due);
            if !head_pops_first {
                self.pending_tick = None;
                self.schedule_tick(seq, 0.0);
            }
        }
        let Some(Entry { key, kind }) = self.queue.pop() else {
            return false;
        };
        debug_assert!(key.time >= self.now);
        self.now = key.time;
        self.events_processed += 1;
        match kind {
            EventKind::Call(cb) => cb(self),
            EventKind::FlowTick { epoch } => self.on_flow_tick(epoch),
        }
        true
    }

    /// Run until no events remain. Returns the final virtual time.
    ///
    /// Panics if flows remain active when the queue drains (that means some
    /// flow was permanently starved — a modelling bug in the caller).
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        assert_eq!(
            self.net.n_active_flows(),
            0,
            "simulation drained with {} flows still active",
            self.net.n_active_flows()
        );
        self.now
    }
}

/// The one join of `n` concurrent completions: each calls the returned
/// handle once on arrival, and `done` runs when the last one does. Transfers
/// that were never issued keep the count above zero, so `done` cannot fire
/// early or twice. (`n = 0` never fires — callers continue directly.)
pub fn countdown(n: usize, done: impl FnOnce(&mut Sim) + 'static) -> Rc<dyn Fn(&mut Sim)> {
    let state = RefCell::new((n, Some(done)));
    Rc::new(move |sim| {
        let fire = {
            let mut s = state.borrow_mut();
            s.0 = s.0.saturating_sub(1);
            if s.0 == 0 {
                s.1.take()
            } else {
                None
            }
        };
        if let Some(done) = fire {
            done(sim);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for &t in &[3.0, 1.0, 2.0] {
            let log = log.clone();
            sim.at(SimTime(t), move |_| log.borrow_mut().push(t));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn equal_times_run_fifo() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5 {
            let log = log.clone();
            sim.at(SimTime(1.0), move |_| log.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn nested_scheduling() {
        let mut sim = Sim::new();
        let log = Rc::new(RefCell::new(Vec::new()));
        let l2 = log.clone();
        sim.after(1.0, move |sim| {
            l2.borrow_mut().push(sim.now().secs());
            let l3 = l2.clone();
            sim.after(2.0, move |sim| l3.borrow_mut().push(sim.now().secs()));
        });
        let end = sim.run();
        assert_eq!(*log.borrow(), vec![1.0, 3.0]);
        assert_eq!(end, SimTime(3.0));
    }

    #[test]
    fn flow_completion_time_is_exact() {
        let mut sim = Sim::new();
        let r = sim.net.add_resource("disk", 250.0);
        let done = Rc::new(RefCell::new(None));
        let d = done.clone();
        sim.start_flow(vec![r], 1000.0, move |sim| {
            *d.borrow_mut() = Some(sim.now());
        });
        sim.run();
        assert_eq!(*done.borrow(), Some(SimTime(4.0)));
    }

    #[test]
    fn competing_flows_serialize_fairly() {
        // Two equal flows on one pipe: both finish at 2x the solo time.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let times = times.clone();
            sim.start_flow(vec![r], 500.0, move |sim| {
                times.borrow_mut().push(sim.now().secs());
            });
        }
        sim.run();
        let t = times.borrow();
        assert!((t[0] - 10.0).abs() < 1e-9, "{t:?}");
        assert!((t[1] - 10.0).abs() < 1e-9, "{t:?}");
    }

    #[test]
    fn staggered_flows_speed_up_after_departure() {
        // Flow A: 1000B alone on 100B/s. Flow B of 300B arrives at t=2.
        // t in [0,2): A at 100 → 800 left. t in [2, ...): both at 50.
        // B finishes at 2 + 300/50 = 8, A then has 800-300=500 left at 100 B/s
        // → finishes at 8 + 5 = 13.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let t_a = Rc::new(RefCell::new(0.0));
        let t_b = Rc::new(RefCell::new(0.0));
        let ta = t_a.clone();
        sim.start_flow(vec![r], 1000.0, move |sim| {
            *ta.borrow_mut() = sim.now().secs();
        });
        let tb = t_b.clone();
        sim.after(2.0, move |sim| {
            sim.start_flow(vec![r], 300.0, move |sim| {
                *tb.borrow_mut() = sim.now().secs();
            });
        });
        sim.run();
        assert!((*t_b.borrow() - 8.0).abs() < 1e-9, "B at {}", t_b.borrow());
        assert!((*t_a.borrow() - 13.0).abs() < 1e-9, "A at {}", t_a.borrow());
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.start_flow(vec![r], 0.0, move |sim| {
            assert_eq!(sim.now(), SimTime::ZERO);
            *f.borrow_mut() = true;
        });
        sim.run();
        assert!(*fired.borrow());
    }

    #[test]
    fn simultaneous_completions_all_fire() {
        // Many equal flows on one link finish at the same instant; one tick
        // must complete all of them.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let count = Rc::new(RefCell::new(0));
        for _ in 0..10 {
            let count = count.clone();
            sim.start_flow(vec![r], 100.0, move |_| {
                *count.borrow_mut() += 1;
            });
        }
        let end = sim.run();
        assert_eq!(*count.borrow(), 10);
        assert!((end.secs() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn many_flows_deterministic() {
        let run = || {
            let mut sim = Sim::new();
            let r = sim.net.add_resource("link", 1e6);
            let total = Rc::new(RefCell::new(0.0));
            for i in 0..100 {
                let total = total.clone();
                let delay = (i % 7) as f64 * 0.1;
                sim.after(delay, move |sim| {
                    sim.start_flow(vec![r], 1e4 * (1.0 + i as f64), move |sim| {
                        *total.borrow_mut() += sim.now().secs();
                    });
                });
            }
            sim.run();
            let v = *total.borrow();
            v
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn queue_stays_small_under_flow_churn() {
        // The single-tick design must not accumulate stale events.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 1e6);
        for i in 0..500 {
            let delay = i as f64 * 0.001;
            sim.after(delay, move |sim| {
                sim.start_flow(vec![r], 1e3, |_| {});
            });
        }
        sim.run();
        // Events: 500 Calls + ticks; far fewer than the O(F^2) of a
        // reschedule-everything design (which would be ~125k).
        assert!(
            sim.events_processed() < 5_000,
            "event churn too high: {}",
            sim.events_processed()
        );
    }

    fn queued_ticks(sim: &Sim) -> usize {
        sim.queue
            .iter()
            .filter(|e| matches!(e.kind, EventKind::FlowTick { .. }))
            .count()
    }

    #[test]
    fn same_instant_flow_starts_recompute_once() {
        // A burst inside one callback and a burst spread over same-instant
        // callbacks both cost one recomputation and one queued tick.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        for _ in 0..50 {
            sim.start_flow(vec![r], 100.0, |_| {});
        }
        assert_eq!((sim.net.recomputes(), queued_ticks(&sim)), (0, 0));
        for _ in 0..50 {
            sim.at(SimTime(1.0), move |sim| {
                sim.start_flow(vec![r], 100.0, |_| {});
            });
        }
        for _ in 0..50 {
            assert!(sim.step());
            assert_eq!(queued_ticks(&sim), 1);
        }
        // One for the burst at t=0 and none yet for the 50 starts at t=1.
        assert_eq!((sim.now(), sim.net.recomputes()), (SimTime(1.0), 1));
        sim.run();
        // t=1 burst, then the two completion instants (t=99 and t=100).
        assert_eq!(sim.net.recomputes(), 4);
        // 50 callbacks, the t=0 tick superseded at t=1, two live ticks.
        assert_eq!(sim.events_processed(), 53);
        assert_eq!(sim.now(), SimTime(100.0));
    }

    #[test]
    fn zero_byte_completion_keeps_its_queue_position() {
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let note = |log: &Rc<RefCell<Vec<&'static str>>>, what: &'static str| {
            let log = log.clone();
            move |_: &mut Sim| log.borrow_mut().push(what)
        };
        sim.after(0.0, note(&log, "before"));
        sim.start_flow(vec![r], 0.0, note(&log, "flow"));
        sim.after(0.0, note(&log, "after"));
        assert_eq!(sim.run(), SimTime::ZERO);
        assert_eq!(*log.borrow(), vec!["before", "flow", "after"]);
    }

    #[test]
    fn flow_started_in_completion_callback() {
        // A (100 B at 100 B/s) completes at t=1 and starts B (200 B), which
        // has the link to itself: t=3.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 100.0);
        let t_b = Rc::new(RefCell::new(None));
        let tb = t_b.clone();
        sim.start_flow(vec![r], 100.0, move |sim| {
            assert_eq!(sim.now(), SimTime(1.0));
            sim.start_flow(vec![r], 200.0, move |sim| {
                *tb.borrow_mut() = Some(sim.now());
            });
        });
        sim.run();
        assert_eq!(*t_b.borrow(), Some(SimTime(3.0)));
    }

    #[test]
    fn mixed_burst_matches_hand_schedule() {
        // Link 120 B/s. Burst at t=0: A 120 B, B 360 B, C 0 B, D 360 B;
        // E 60 B arrives at t=1.5.
        //   t=0    C completes; A, B, D share 40 B/s each.
        //   t=1.5  A has 60 left, B and D 300; four flows at 30 B/s.
        //   t=3.5  A and E drain together (admission order: A, E);
        //          B and D have 240 left at 60 B/s.
        //   t=7.5  B, then D.
        let mut sim = Sim::new();
        let r = sim.net.add_resource("link", 120.0);
        let log = Rc::new(RefCell::new(Vec::new()));
        let done = |log: &Rc<RefCell<Vec<(&'static str, f64)>>>, name: &'static str| {
            let log = log.clone();
            move |sim: &mut Sim| log.borrow_mut().push((name, sim.now().secs()))
        };
        sim.start_flow(vec![r], 120.0, done(&log, "A"));
        sim.start_flow(vec![r], 360.0, done(&log, "B"));
        sim.start_flow(vec![r], 0.0, done(&log, "C"));
        sim.start_flow(vec![r], 360.0, done(&log, "D"));
        let e = done(&log, "E");
        sim.at(SimTime(1.5), move |sim| {
            sim.start_flow(vec![r], 60.0, e);
        });
        sim.run();
        assert_eq!(
            *log.borrow(),
            vec![("C", 0.0), ("A", 3.5), ("E", 3.5), ("B", 7.5), ("D", 7.5)]
        );
    }

    #[test]
    fn disk_transfer_is_rpc_then_seek_then_data() {
        // 50 B/s disk behind a fast NIC: rpc + seek + 100 B / 50 B/s.
        let mut sim = Sim::new();
        let disk = sim.net.add_resource("disk", 50.0);
        let nic = sim.net.add_resource("nic", 1e9);
        let t = Rc::new(RefCell::new(None));
        let t2 = t.clone();
        sim.disk_transfer(disk, vec![disk, nic], 100.0, move |sim| {
            *t2.borrow_mut() = Some(sim.now().secs());
        });
        sim.run();
        let expect = sim.cost.rpc_s + sim.cost.seek_s + 2.0;
        let got = t.borrow().expect("transfer completed");
        assert!((got - expect).abs() < 1e-9, "t={got}, expect {expect}");
    }

    #[test]
    fn seeks_serialize_on_the_disk_and_vanish_on_an_infinite_one() {
        // Two zero-byte transfers share one disk: their positioning flows
        // split its bandwidth, so both take two seeks, not one.
        let mut sim = Sim::new();
        let disk = sim.net.add_resource("disk", 100.0);
        let times = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let times = times.clone();
            sim.disk_transfer(disk, vec![disk], 0.0, move |sim| {
                times.borrow_mut().push(sim.now().secs());
            });
        }
        sim.run();
        let two_seeks = sim.cost.rpc_s + 2.0 * sim.cost.seek_s;
        for &t in times.borrow().iter() {
            assert!((t - two_seeks).abs() < 1e-9, "t={t}, expect {two_seeks}");
        }
        // An uncontended (infinite) disk positions for free: RPC only.
        let mut sim = Sim::new();
        let ram = sim.net.add_resource("ramdisk", f64::INFINITY);
        sim.disk_transfer(ram, vec![ram], 0.0, |_| {});
        assert_eq!(sim.run(), SimTime(sim.cost.rpc_s));
    }

    /// A 100 B/s wire between nodes 0 and 1 under `plan`, clock at `now`.
    fn wired(plan: crate::FaultPlan, now: f64) -> (Sim, ResourceId) {
        let mut sim = Sim::new();
        let wire = sim.net.add_resource("wire", 100.0);
        sim.faults.install(plan);
        sim.at(SimTime(now), |_| {});
        sim.run();
        (sim, wire)
    }

    /// When a 100-byte `net_transfer` from node `src` to node `dst` issued
    /// at `now` under `plan` completes, if it does.
    fn transfer_ends(plan: crate::FaultPlan, now: f64, src: u32, dst: u32) -> Option<f64> {
        let (mut sim, wire) = wired(plan, now);
        let t = Rc::new(RefCell::new(None));
        let t2 = t.clone();
        let (src, dst) = (NodeId(src), NodeId(dst));
        sim.net_transfer(src, dst, None, vec![wire], 100.0, move |sim| {
            *t2.borrow_mut() = Some(sim.now().secs());
        });
        sim.run();
        let ended = *t.borrow();
        ended
    }

    #[test]
    fn link_is_down_from_a_hung_source_or_across_an_active_partition() {
        use crate::FaultPlan;
        let plan = || {
            FaultPlan::none()
                .hang_node(2, 5.0)
                .partition(&[1], 10.0, 20.0)
        };
        let link = |now: f64, src: u32, dst: u32| {
            let (sim, _) = wired(plan(), now);
            sim.link(NodeId(src), NodeId(dst))
        };
        assert_eq!(link(0.0, 2, 0), Some(1.0));
        assert_eq!(link(5.0, 2, 0), None, "a hung node serves nobody");
        assert_eq!(link(5.0, 0, 2), Some(1.0), "but can still be sent to");
        assert_eq!(link(9.0, 0, 1), Some(1.0));
        assert_eq!(link(10.0, 0, 1), None);
        assert_eq!(link(10.0, 1, 0), None, "a partition cuts both ways");
        assert_eq!(link(15.0, 0, 3), Some(1.0), "the same side stays connected");
        assert_eq!(link(20.0, 1, 0), Some(1.0), "healed");
        // Down means dropped: nothing is scheduled and the queue drains.
        assert_eq!(transfer_ends(plan(), 10.0, 0, 1), None);
        assert_eq!(transfer_ends(plan(), 5.0, 2, 0), None);
        // The rule is read at the point of the call: a transfer issued just
        // before the cut completes across it.
        assert_eq!(transfer_ends(plan(), 9.5, 0, 1), Some(10.5));
    }

    #[test]
    fn slow_links_compound_and_loopback_has_no_link() {
        use crate::FaultPlan;
        let slow = || FaultPlan::none().slow_link(0, 1, 2.0).slow_link(1, 0, 3.0);
        let (sim, _) = wired(slow(), 0.0);
        assert_eq!(sim.link(NodeId(0), NodeId(1)), Some(6.0));
        assert_eq!(sim.link(NodeId(1), NodeId(0)), Some(6.0), "undirected");
        assert_eq!(sim.link(NodeId(0), NodeId(2)), Some(1.0));
        // 100 B at 100 B/s, six times over.
        assert_eq!(transfer_ends(slow(), 0.0, 0, 1), Some(6.0));
        // A node to itself crosses no wire: no factor, no hang, no partition.
        let on_node_1 = || {
            FaultPlan::none()
                .slow_link(1, 1, 4.0)
                .hang_node(1, 0.0)
                .partition(&[1], 0.0, f64::INFINITY)
        };
        let (sim, _) = wired(on_node_1(), 1.0);
        assert_eq!(sim.link(NodeId(1), NodeId(1)), Some(1.0));
        assert_eq!(transfer_ends(on_node_1(), 1.0, 1, 1), Some(2.0));
    }

    #[test]
    fn net_transfer_off_a_disk_is_a_disk_transfer_under_the_link_rule() {
        use crate::FaultPlan;
        let run = |plan: FaultPlan| {
            let mut sim = Sim::new();
            let disk = sim.net.add_resource("disk", 50.0);
            let nic = sim.net.add_resource("nic", 1e9);
            sim.faults.install(plan);
            let t = Rc::new(RefCell::new(None));
            let t2 = t.clone();
            let (src, dst, path) = (NodeId(0), NodeId(1), vec![disk, nic]);
            sim.net_transfer(src, dst, Some(disk), path, 100.0, move |sim| {
                *t2.borrow_mut() = Some(sim.now().secs());
            });
            sim.run();
            let ended = *t.borrow();
            (ended, sim.cost.rpc_s + sim.cost.seek_s)
        };
        // RPC and seek once, the data flow three times over.
        let (ended, lead_in) = run(FaultPlan::none().slow_link(0, 1, 3.0));
        let ended = ended.expect("the link is up");
        assert!((ended - (lead_in + 6.0)).abs() < 1e-9, "ended at {ended}");
        // Down at issue time: not even the RPC is scheduled.
        assert_eq!(run(FaultPlan::none().hang_node(0, 0.0)).0, None);
    }

    #[test]
    fn countdown_fires_once_when_the_last_of_n_arrives() {
        let mut sim = Sim::new();
        let fired = Rc::new(RefCell::new(Vec::new()));
        let f = fired.clone();
        let arrive = countdown(3, move |sim| f.borrow_mut().push(sim.now().secs()));
        for dt in [2.0, 1.0, 3.0] {
            let arrive = arrive.clone();
            sim.after(dt, move |sim| arrive(sim));
        }
        sim.run();
        assert_eq!(*fired.borrow(), vec![3.0]);
        // Surplus arrivals cannot fire it again.
        arrive(&mut sim);
        assert_eq!(fired.borrow().len(), 1);
    }

    #[test]
    fn countdown_with_an_unissued_arrival_never_fires() {
        let mut sim = Sim::new();
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        let arrive = countdown(2, move |_| *f.borrow_mut() = true);
        sim.after(1.0, move |sim| arrive(sim));
        sim.run();
        assert!(!*fired.borrow());
    }
}
