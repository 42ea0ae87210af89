//! Dependency-free parallel map on `std::thread::scope`.
//!
//! The workspace deliberately carries zero external crates, so this module
//! is the one shared parallelism primitive: an order-preserving,
//! deterministic parallel map used by the chunk codec pipeline
//! ([`crate::snc::SncBuilder::finish`], [`crate::snc::SncFile::get_vara`]),
//! the dataset generator (`wrfgen`) and the plot path (`scidp`, one image
//! per level of a slab).
//!
//! Design rules:
//!
//! * **Order-preserving** — the result `Vec` is indexed exactly like the
//!   input; workers pull items from one shared queue (work-stealing, so
//!   skewed items balance) but every result lands in its own slot.
//! * **Deterministic** — `f` must be a pure function of its index/item;
//!   given that, output is identical for any worker count, including 1.
//! * **Sequential below a threshold** — spawning threads for a handful of
//!   tiny items costs more than it saves; callers pass `min_parallel` and
//!   small inputs run inline on the caller's thread.

use std::sync::{Mutex, OnceLock};

/// Worker-count default: the `SCIDP_THREADS` environment variable if set,
/// else the machine's available parallelism, else 1.
///
/// The env value is clamped to the available parallelism: oversubscribing a
/// host is a measured slowdown (0.88–0.90× for 2–8 workers on a 1-core
/// box, BENCH_codec.json), and clamping to 1 routes all codec call sites to
/// their sequential path on single-core hosts.
pub fn default_threads() -> usize {
    // `available_parallelism` opens and parses the cgroup files on every
    // call and callers ask per image; the answer is fixed for the process.
    // `SCIDP_THREADS` is still read per call.
    static AVAIL: OnceLock<usize> = OnceLock::new();
    let avail = *AVAIL.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    });
    if let Ok(v) = std::env::var("SCIDP_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.clamp(1, avail);
        }
    }
    avail
}

/// Parallel map over `0..n`: returns `vec![f(0), f(1), ..., f(n-1)]`.
///
/// Runs sequentially when `threads <= 1` or `n < min_parallel`. `f` is
/// called exactly once per index; panics in `f` propagate to the caller.
pub fn par_map_indexed<R, F>(n: usize, threads: usize, min_parallel: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if threads.min(n) <= 1 || n < min_parallel {
        return (0..n).map(f).collect();
    }
    // One slot per index, each a chunk of its own: a worker writes only
    // the slot it popped, so no slot needs a lock and none is left empty.
    let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    par_chunks_mut(&mut slots, 1, threads, min_parallel, |i, slot| {
        for s in slot {
            *s = Some(f(i));
        }
    });
    slots.into_iter().flatten().collect()
}

/// Parallel in-place map over disjoint mutable chunks of `data`: `f(i, c)`
/// runs once for every chunk `c = data[i*chunk_len .. ...]` (last chunk may
/// be short). Sequential when `threads <= 1` or there are fewer than
/// `min_parallel` chunks.
fn par_chunks_mut<T, F>(data: &mut [T], chunk_len: usize, threads: usize, min_parallel: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "zero chunk length");
    let n = data.len().div_ceil(chunk_len);
    let workers = threads.min(n);
    if workers <= 1 || n < min_parallel {
        for (i, c) in data.chunks_mut(chunk_len).enumerate() {
            f(i, c);
        }
        return;
    }
    let queue: Mutex<Vec<(usize, &mut [T])>> =
        Mutex::new(data.chunks_mut(chunk_len).enumerate().rev().collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Poison-tolerant: if a worker panicked, keep draining the
                // queue instead of cascading a second panic from here.
                let item = match queue.lock() {
                    Ok(mut q) => q.pop(),
                    Err(poisoned) => poisoned.into_inner().pop(),
                };
                let Some((i, c)) = item else { return };
                f(i, c);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn matches_sequential_any_thread_count() {
        let expect: Vec<usize> = (0..100).map(|i| i * i).collect();
        for threads in [1, 2, 3, 4, 8, 200] {
            let got = par_map_indexed(100, threads, 0, |i| i * i);
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        for (threads, min_parallel) in [(1, 0), (2, 0), (2, 2), (8, 100)] {
            let got = par_map_indexed(0, threads, min_parallel, |_| -> usize {
                panic!("no index to compute")
            });
            assert!(got.is_empty(), "threads={threads} min={min_parallel}");
        }
        assert_eq!(par_map_indexed(1, 4, 0, |i| i + 7), vec![7]);
    }

    #[test]
    fn sequential_below_threshold_spawns_nothing() {
        // With min_parallel above n, f runs on the calling thread, in
        // index order.
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        let ids = par_map_indexed(8, 4, 100, |i| {
            order.lock().unwrap().push(i);
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
        assert_eq!(order.into_inner().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_in_a_worker_reaches_the_caller() {
        let caller = std::thread::current().id();
        let on_worker = std::sync::atomic::AtomicBool::new(false);
        let out = std::panic::catch_unwind(|| {
            par_map_indexed(16, 2, 0, |i| {
                if i == 5 {
                    on_worker.store(std::thread::current().id() != caller, Ordering::Relaxed);
                    panic!("index 5 fails");
                }
                i
            })
        });
        assert!(out.is_err(), "the worker's panic must propagate");
        assert!(
            on_worker.into_inner(),
            "the panicking index ran on a worker"
        );
    }

    #[test]
    fn actually_runs_concurrently() {
        // With enough slow items, more than one worker thread must appear.
        let seen = Mutex::new(std::collections::HashSet::new());
        par_map_indexed(16, 4, 0, |i| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            seen.lock().unwrap().insert(std::thread::current().id());
            i
        });
        assert!(seen.lock().unwrap().len() > 1, "expected >1 worker");
    }

    #[test]
    fn skewed_items_balance() {
        // One huge item + many small: total calls must still equal n.
        let calls = AtomicUsize::new(0);
        let out = par_map_indexed(64, 4, 0, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 64);
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn chunks_mut_writes_every_chunk() {
        for threads in [1, 4] {
            let mut v = vec![0u32; 103];
            par_chunks_mut(&mut v, 10, threads, 0, |i, c| {
                for x in c.iter_mut() {
                    *x = i as u32 + 1;
                }
            });
            for (j, &x) in v.iter().enumerate() {
                assert_eq!(x, (j / 10) as u32 + 1, "at {j} threads={threads}");
            }
        }
    }

    #[test]
    fn chunks_mut_empty_input() {
        let mut v: Vec<u8> = Vec::new();
        par_chunks_mut(&mut v, 4, 4, 0, |_, _| panic!("no chunks"));
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn default_threads_clamped_to_available_parallelism() {
        // An absurd SCIDP_THREADS must not oversubscribe the host. The env
        // var is process-global, so restore it around the check; results of
        // concurrently-running par tests are thread-count independent, so
        // the brief override cannot change any other test's outcome.
        let avail = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let saved = std::env::var("SCIDP_THREADS").ok();
        std::env::set_var("SCIDP_THREADS", "4096");
        let clamped = default_threads();
        std::env::set_var("SCIDP_THREADS", "0");
        let floored = default_threads();
        match saved {
            Some(v) => std::env::set_var("SCIDP_THREADS", v),
            None => std::env::remove_var("SCIDP_THREADS"),
        }
        assert_eq!(clamped, avail, "env value must clamp to the host");
        assert_eq!(floored, 1, "zero must floor to one worker");
    }
}
