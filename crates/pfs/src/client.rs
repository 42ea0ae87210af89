//! Timed PFS client operations.
//!
//! A read or write is one [`Sim::disk_transfer`] (RPC, seek, data flow) per
//! OST segment; all segment transfers run concurrently (that is where PFS
//! aggregate bandwidth comes from) and contend with every other active
//! transfer in the simulation. Completion hands the caller the *real*
//! bytes.
//!
//! One completion channel: a read returns nothing and reports through its
//! one callback, `done(sim, Result<bytes, PfsError>)` — called exactly once,
//! never from inside the issuing call (an error known at issue time arrives
//! on a zero-delay event), and not at all when the fault plan hangs the read.

use std::fmt;

use simnet::{countdown, FaultInjector, NodeId, ReadOutcome, ResourceId, Sim, Topology};

use crate::fs::SharedPfs;
use crate::layout::{Segment, StripeLayout};

/// Errors a PFS read reports through its completion callback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PfsError {
    NotFound(String),
    OutOfRange {
        path: String,
        offset: usize,
        len: usize,
        file_len: usize,
    },
    /// A fault injected by the simulator's [`simnet::FaultPlan`] — stands
    /// in for a transient OST/network error a real client would see.
    Injected {
        path: String,
        nth: u64,
    },
    /// The client's CRC-32C of the delivered stripe bytes disagreed with
    /// the store's checksum — detected corruption. The bytes are discarded;
    /// callers may retry (a transient flip re-reads clean).
    Checksum {
        path: String,
        nth: u64,
        stored: u32,
        computed: u32,
    },
}

impl fmt::Display for PfsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PfsError::NotFound(p) => write!(f, "PFS file not found: {p}"),
            PfsError::OutOfRange {
                path,
                offset,
                len,
                file_len,
            } => write!(
                f,
                "read [{offset}, {offset}+{len}) out of range for {path} (len {file_len})"
            ),
            PfsError::Injected { path, nth } => {
                write!(f, "injected I/O error on read #{nth} of {path}")
            }
            PfsError::Checksum {
                path,
                nth,
                stored,
                computed,
            } => write!(
                f,
                "IntegrityError: corrupt stripe read #{nth} of {path}: \
                 stored crc32c {stored:#010x} != computed {computed:#010x}"
            ),
        }
    }
}

impl std::error::Error for PfsError {}

/// Move `segments` concurrently, one disk transfer each over the
/// `(disk, path)` that `route` gives for its OST; `done` runs when the last
/// one lands — after the bare MDS RPC when there is nothing to move.
fn transfer_segments(
    sim: &mut Sim,
    segments: Vec<Segment>,
    route: impl Fn(usize) -> Option<(ResourceId, Vec<ResourceId>)>,
    done: impl FnOnce(&mut Sim) + 'static,
) {
    if segments.is_empty() {
        return sim.rpc(done);
    }
    let landed = countdown(segments.len(), done);
    for seg in segments {
        let Some((disk, path)) = route(seg.ost) else {
            // Every OST route runs through the OST's disk; an OST or client
            // node outside the topology has no route, and the operation never
            // lands.
            debug_assert!(false, "OST {} has no route with a disk", seg.ost);
            continue;
        };
        let bytes = sim.cost.lbytes(seg.len);
        let landed = landed.clone();
        sim.disk_transfer(disk, path, bytes, move |sim| landed(sim));
    }
}

/// Everything a read decides at issue time: the fault verdict, the range
/// check, and the OST segments with the delivered copy of the bytes.
fn stage_read(
    faults: &FaultInjector,
    pfs: &SharedPfs,
    path: &str,
    offset: usize,
    len: usize,
    outcome: ReadOutcome,
) -> Result<(Vec<Segment>, Vec<u8>), PfsError> {
    let path_s = || path.to_string();
    if let ReadOutcome::Fail { nth } = outcome {
        return Err(PfsError::Injected {
            path: path_s(),
            nth,
        });
    }
    let p = pfs.borrow();
    let file = p.file(path).ok_or_else(|| PfsError::NotFound(path_s()))?;
    let range = offset..offset.saturating_add(len);
    let stored = file.data.get(range).ok_or_else(|| PfsError::OutOfRange {
        path: path_s(),
        offset,
        len,
        file_len: file.len(),
    })?;
    let mut payload = stored.to_vec();
    // Corruption faults flip one byte of the *delivered* copy — the stored
    // object stays intact, so a transient flip re-reads clean.
    if let (ReadOutcome::Corrupt { nth, silent }, false) = (outcome, payload.is_empty()) {
        faults.corrupt(path, nth, &mut payload);
        if !silent {
            // Detected: the client checksums the delivered stripes against
            // the store's CRC and refuses the bad bytes.
            return Err(PfsError::Checksum {
                path: path_s(),
                nth,
                stored: scirng::crc32c(stored),
                computed: scirng::crc32c(&payload),
            });
        }
    }
    Ok((file.layout.segments(offset, len, p.config.n_osts), payload))
}

/// Read `[offset, offset+len)` of `path` into the memory of `node`.
///
/// `done` receives the bytes at the virtual time the last segment lands, or
/// the error (injected failure, detected checksum, not found, out of range)
/// on a zero-delay event.
#[allow(clippy::too_many_arguments)]
pub fn read_at(
    sim: &mut Sim,
    topo: &Topology,
    pfs: &SharedPfs,
    node: NodeId,
    path: &str,
    offset: usize,
    len: usize,
    done: impl FnOnce(&mut Sim, Result<Vec<u8>, PfsError>) + 'static,
) {
    let outcome = sim.faults.take_read_outcome(path);
    if let ReadOutcome::Hang { .. } = outcome {
        // The read never completes: drop `done` without scheduling anything
        // (no flow is started, so the simulator drains cleanly). Only a
        // caller-side deadline can recover from this.
        return;
    }
    match stage_read(&sim.faults, pfs, path, offset, len, outcome) {
        Ok((segments, payload)) => {
            // One seek per contiguous OST segment — readahead streams the
            // stripes of a segment back to back.
            let route = |ost| {
                let flow_path = topo.path_ost_read(ost, node)?;
                Some((*flow_path.first()?, flow_path))
            };
            transfer_segments(sim, segments, route, move |sim| done(sim, Ok(payload)));
        }
        Err(e) => sim.after(0.0, move |sim| done(sim, Err(e))),
    }
}

/// Read an entire file into the memory of `node` — [`read_at`] over its
/// whole length (a missing file is `read_at`'s `NotFound`).
pub fn read_file(
    sim: &mut Sim,
    topo: &Topology,
    pfs: &SharedPfs,
    node: NodeId,
    path: &str,
    done: impl FnOnce(&mut Sim, Result<Vec<u8>, PfsError>) + 'static,
) {
    let len = pfs.borrow().len_of(path).unwrap_or(0);
    read_at(sim, topo, pfs, node, path, 0, len, done)
}

/// Create a new file by writing `data` from `node` (used by the Fig. 2
/// Lustre-connector workloads, where Hadoop output/spill lands on the PFS).
/// The file becomes visible in the namespace when the last stripe lands.
pub fn write_new(
    sim: &mut Sim,
    topo: &Topology,
    pfs: &SharedPfs,
    node: NodeId,
    path: impl Into<String>,
    data: Vec<u8>,
    done: impl FnOnce(&mut Sim) + 'static,
) {
    let path = path.into();
    let (layout, n_osts) = {
        let p = pfs.borrow();
        let count = p.config.default_stripe_count.min(p.config.n_osts);
        (
            StripeLayout::new(p.config.stripe_size, count, 0),
            p.config.n_osts,
        )
    };
    let segments = layout.segments(0, data.len(), n_osts);
    // Writes are buffered and laid out by the OSS (elevator/coalescing):
    // one positioning cost per OST segment, unlike interleaved reads.
    let route = |ost| {
        let flow_path = topo.path_ost_write(node, ost)?;
        Some((*flow_path.last()?, flow_path))
    };
    let pfs = pfs.clone();
    transfer_segments(sim, segments, route, move |sim| {
        pfs.borrow_mut().create_with_layout(path, data, layout);
        done(sim);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{Pfs, PfsConfig};
    use simnet::{ClusterSpec, FlowNet};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn setup(spec: ClusterSpec, pfs_cfg: PfsConfig) -> (Sim, Topology, SharedPfs) {
        let mut sim = Sim::new();
        let mut net = std::mem::replace(&mut sim.net, FlowNet::new());
        let topo = Topology::build(&mut net, spec);
        sim.net = net;
        let pfs = Pfs::shared(pfs_cfg);
        (sim, topo, pfs)
    }

    fn one_ost_setup() -> (Sim, Topology, SharedPfs) {
        setup(
            ClusterSpec {
                compute_nodes: 2,
                storage_nodes: 1,
                osts: 1,
                ost_bw: 100.0,
                nic_bw: 1e9,
                core_bw: 1e9,
                ..ClusterSpec::default()
            },
            PfsConfig {
                stripe_size: 1 << 20,
                default_stripe_count: 1,
                n_osts: 1,
            },
        )
    }

    /// What a read's callback got, and when.
    type Got = Rc<RefCell<Option<(f64, Result<Vec<u8>, PfsError>)>>>;

    /// A completion callback that records its one call in `got`.
    fn capture(got: &Got) -> impl FnOnce(&mut Sim, Result<Vec<u8>, PfsError>) {
        let g = got.clone();
        move |sim: &mut Sim, res| *g.borrow_mut() = Some((sim.now().secs(), res))
    }

    /// Run the sim dry and take what `got` captured.
    fn finish(sim: &mut Sim, got: &Got) -> (f64, Result<Vec<u8>, PfsError>) {
        assert!(
            got.borrow().is_none(),
            "callback ran inside the issuing call"
        );
        sim.run();
        got.borrow_mut().take().expect("callback ran")
    }

    #[test]
    fn read_returns_exact_bytes_with_exact_timing() {
        let (mut sim, topo, pfs) = one_ost_setup();
        pfs.borrow_mut().create("f", (0..200u8).collect());
        let got = Got::default();
        read_at(
            &mut sim,
            &topo,
            &pfs,
            NodeId(0),
            "f",
            50,
            100,
            capture(&got),
        );
        let (t, data) = finish(&mut sim, &got);
        assert_eq!(data.unwrap(), (50..150u8).collect::<Vec<_>>());
        // rpc + seek + 100 bytes / 100 B/s
        let expect = sim.cost.rpc_s + sim.cost.seek_s + 1.0;
        assert!((t - expect).abs() < 1e-9, "t={t}, expect {expect}");
    }

    #[test]
    fn missing_file_and_bad_range_error() {
        let (mut sim, topo, pfs) = one_ost_setup();
        pfs.borrow_mut().create("f", vec![0; 10]);
        let got = Got::default();
        read_at(&mut sim, &topo, &pfs, NodeId(0), "g", 0, 1, capture(&got));
        let (t, res) = finish(&mut sim, &got);
        assert!(matches!(res, Err(PfsError::NotFound(_))), "{res:?}");
        assert_eq!(t, 0.0, "issue-time errors arrive on a zero-delay event");
        let got = Got::default();
        read_at(&mut sim, &topo, &pfs, NodeId(0), "f", 5, 10, capture(&got));
        let (_, res) = finish(&mut sim, &got);
        assert!(matches!(res, Err(PfsError::OutOfRange { .. })), "{res:?}");
    }

    #[test]
    fn read_file_on_a_missing_path_reports_through_the_callback() {
        let (mut sim, topo, pfs) = one_ost_setup();
        let got = Got::default();
        read_file(&mut sim, &topo, &pfs, NodeId(0), "nowhere", capture(&got));
        let (_, res) = finish(&mut sim, &got);
        assert_eq!(res, Err(PfsError::NotFound("nowhere".to_string())));
    }

    #[test]
    fn striped_read_uses_parallel_osts() {
        // 4 OSTs at 100 B/s each: a 400-byte file striped over 4 should read
        // ~4x faster than over 1.
        let mk = |count: usize| {
            let (mut sim, topo, pfs) = setup(
                ClusterSpec {
                    compute_nodes: 1,
                    storage_nodes: 1,
                    osts: 4,
                    ost_bw: 100.0,
                    nic_bw: 1e9,
                    core_bw: 1e9,
                    ..ClusterSpec::default()
                },
                PfsConfig {
                    stripe_size: 100,
                    default_stripe_count: count,
                    n_osts: 4,
                },
            );
            pfs.borrow_mut().create("f", vec![7u8; 400]);
            let got = Got::default();
            read_file(&mut sim, &topo, &pfs, NodeId(0), "f", capture(&got));
            let (t, d) = finish(&mut sim, &got);
            assert_eq!(d.unwrap().len(), 400);
            t
        };
        let wide = mk(4);
        let narrow = mk(1);
        assert!(
            narrow > 3.0 * wide,
            "striping speedup missing: narrow={narrow}, wide={wide}"
        );
    }

    #[test]
    fn concurrent_readers_contend_on_ost() {
        let (mut sim, topo, pfs) = one_ost_setup();
        pfs.borrow_mut().create("f", vec![1u8; 100]);
        let times = Rc::new(RefCell::new(Vec::new()));
        for n in 0..2 {
            let times = times.clone();
            read_file(&mut sim, &topo, &pfs, NodeId(n), "f", move |sim, d| {
                assert!(d.is_ok());
                times.borrow_mut().push(sim.now().secs());
            });
        }
        sim.run();
        // Two 100-byte reads sharing a 100 B/s disk → ~2s each, not ~1s.
        assert_eq!(times.borrow().len(), 2);
        for &t in times.borrow().iter() {
            assert!(t > 1.9, "no contention observed: {t}");
        }
    }

    #[test]
    fn zero_length_read_completes() {
        let (mut sim, topo, pfs) = one_ost_setup();
        pfs.borrow_mut().create("f", vec![]);
        let got = Got::default();
        read_file(&mut sim, &topo, &pfs, NodeId(0), "f", capture(&got));
        let (t, d) = finish(&mut sim, &got);
        assert!(d.unwrap().is_empty());
        assert_eq!(t, sim.cost.rpc_s, "an empty read is the bare MDS RPC");
    }

    #[test]
    fn write_commits_file_at_completion() {
        let (mut sim, topo, pfs) = one_ost_setup();
        let p2 = pfs.clone();
        write_new(
            &mut sim,
            &topo,
            &pfs,
            NodeId(1),
            "w",
            vec![9u8; 300],
            move |sim| {
                assert!(p2.borrow().exists("w"));
                assert!(sim.now().secs() > 2.9, "write should take ~3s");
            },
        );
        assert!(!pfs.borrow().exists("w"), "not visible before completion");
        sim.run();
        assert_eq!(pfs.borrow().len_of("w"), Some(300));
    }

    #[test]
    fn silent_corruption_flips_one_delivered_byte_with_clean_timing() {
        let run = |plan: simnet::FaultPlan| {
            let (mut sim, topo, pfs) = one_ost_setup();
            sim.faults.install(plan);
            pfs.borrow_mut().create("f", (0..200u8).collect());
            let got = Got::default();
            read_at(
                &mut sim,
                &topo,
                &pfs,
                NodeId(0),
                "f",
                50,
                100,
                capture(&got),
            );
            let (t, d) = finish(&mut sim, &got);
            (t, d.unwrap())
        };
        let (t_clean, clean) = run(simnet::FaultPlan::none());
        let (t_bad, bad) = run(simnet::FaultPlan::none().corrupt_read("f", 1));
        assert_eq!(t_clean, t_bad, "corruption must not change read timing");
        assert_ne!(clean, bad, "a byte was flipped");
        let diffs = clean.iter().zip(&bad).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1, "exactly one byte differs");
        // Determinism: the same plan flips the same byte.
        let (_, bad2) = run(simnet::FaultPlan::none().corrupt_read("f", 1));
        assert_eq!(bad, bad2);
        // The store itself is untouched: the second read of a fresh world
        // with nth=2 corruption delivers the first read clean.
        let (_, clean2) = run(simnet::FaultPlan::none().corrupt_read("f", 2));
        assert_eq!(clean, clean2);
    }

    #[test]
    fn detected_corruption_surfaces_typed_checksum_error() {
        let (mut sim, topo, pfs) = one_ost_setup();
        sim.faults
            .install(simnet::FaultPlan::none().corrupt_read_detected("f", 1));
        pfs.borrow_mut().create("f", (0..100u8).collect());
        let got = Got::default();
        read_at(&mut sim, &topo, &pfs, NodeId(0), "f", 0, 100, capture(&got));
        // Corrupt bytes are never delivered: the callback gets the error.
        let err = finish(&mut sim, &got).1.unwrap_err();
        let PfsError::Checksum {
            nth,
            stored,
            computed,
            ..
        } = &err
        else {
            panic!("wrong error: {err}");
        };
        assert_eq!(*nth, 1);
        assert_ne!(stored, computed);
        assert!(err.to_string().contains("IntegrityError"), "{err}");
        // The retry (read #2) succeeds with clean bytes.
        let got = Got::default();
        read_at(&mut sim, &topo, &pfs, NodeId(0), "f", 0, 100, capture(&got));
        let d = finish(&mut sim, &got).1.unwrap();
        assert_eq!(d, (0..100u8).collect::<Vec<_>>());
    }

    #[test]
    fn injected_failure_reports_once_and_a_hung_read_never_does() {
        let (mut sim, topo, pfs) = one_ost_setup();
        sim.faults.install(
            simnet::FaultPlan::none()
                .fail_read("f", 1)
                .hang_nth_read("f", 2),
        );
        pfs.borrow_mut().create("f", vec![4u8; 10]);
        let got = Got::default();
        read_file(&mut sim, &topo, &pfs, NodeId(0), "f", capture(&got));
        let (_, res) = finish(&mut sim, &got);
        assert!(
            matches!(res, Err(PfsError::Injected { nth: 1, .. })),
            "{res:?}"
        );
        // Hang = the callback is dropped and nothing is scheduled.
        let got = Got::default();
        read_file(&mut sim, &topo, &pfs, NodeId(0), "f", capture(&got));
        let before = sim.events_processed();
        sim.run();
        assert!(got.borrow().is_none(), "a hung read never completes");
        assert_eq!(sim.events_processed(), before);
    }

    #[test]
    fn scale_multiplies_transfer_time() {
        let (mut sim, topo, pfs) = one_ost_setup();
        sim.cost.scale = 10.0;
        pfs.borrow_mut().create("f", vec![0u8; 100]);
        let got = Got::default();
        read_file(&mut sim, &topo, &pfs, NodeId(0), "f", capture(&got));
        let (t, _) = finish(&mut sim, &got);
        // 100 real bytes → 1000 logical / 100 B/s = 10s.
        assert!((t - (sim.cost.rpc_s + sim.cost.seek_s + 10.0)).abs() < 1e-9);
    }
}
