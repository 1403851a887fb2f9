//! The one parallel fan-out the loop's layers share.
//!
//! Scanning groups (this crate's aggregation kernels), fitting per-group
//! models (the What-if Engine) and simulating scheduling domains (the
//! federated simulator) have the same shape: independent items of wildly
//! skewed cost, and an output that must not depend on how the items were
//! scheduled. [`work_steal`] is that shape, written once.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The machine's available parallelism, or 1 when it cannot be queried.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `work(scratch, i)` for every `i` in `0..n_items` on at most
/// `workers` scoped threads and returns the results in index order.
///
/// Each worker builds one scratch value with `make_scratch` and reuses it
/// across every item it claims; workers claim the next unclaimed index
/// off a shared atomic cursor. One pathologically large item therefore
/// pins exactly one worker while the others drain the rest — a
/// contiguous split would serialize everything sharing its chunk.
/// Results land in per-index slots, so the output equals a serial loop
/// for any worker count and any claim interleaving.
///
/// With `workers <= 1`, or fewer than two items, the loop runs on the
/// calling thread with a single scratch value and spawns nothing.
///
/// ```
/// use kea_telemetry::fanout::work_steal;
/// let squares = work_steal(5, 3, || (), |_, i| i * i);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16]);
/// ```
///
/// # Panics
/// A panic in `make_scratch` or `work` is re-raised on the calling thread
/// with its original payload (via [`std::panic::resume_unwind`]) once the
/// other workers have stopped, so a failed item is never dropped from
/// the output silently.
pub fn work_steal<S, R: Send>(
    n_items: usize,
    workers: usize,
    make_scratch: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> R + Sync,
) -> Vec<R> {
    let workers = workers.min(n_items);
    if workers <= 1 {
        let mut scratch = make_scratch();
        return (0..n_items).map(|i| work(&mut scratch, i)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(n_items, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scratch = make_scratch();
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= n_items {
                            break;
                        }
                        claimed.push((i, work(&mut scratch, i)));
                    }
                    claimed
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(claimed) => {
                    for (i, result) in claimed {
                        if let Some(slot) = slots.get_mut(i) {
                            *slot = Some(result);
                        }
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    // The cursor hands out each index below `n_items` exactly once and
    // every worker joined cleanly, so every slot is filled.
    slots.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn covers_every_index_exactly_once_in_order() {
        for n_items in [0usize, 1, 2, 5, 17, 64] {
            for workers in [1usize, 2, 8] {
                let calls: Vec<AtomicUsize> = (0..n_items).map(|_| AtomicUsize::new(0)).collect();
                let out = work_steal(
                    n_items,
                    workers,
                    || (),
                    |_, i| {
                        calls[i].fetch_add(1, Ordering::Relaxed);
                        i
                    },
                );
                assert_eq!(
                    out,
                    (0..n_items).collect::<Vec<_>>(),
                    "n={n_items} w={workers}"
                );
                for (i, c) in calls.iter().enumerate() {
                    assert_eq!(
                        c.load(Ordering::Relaxed),
                        1,
                        "index {i}, n={n_items} w={workers}"
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_is_built_once_per_worker() {
        let built = AtomicUsize::new(0);
        let out = work_steal(
            40,
            4,
            || {
                built.fetch_add(1, Ordering::Relaxed);
            },
            |_, i| i,
        );
        assert_eq!(out.len(), 40);
        assert_eq!(
            built.load(Ordering::Relaxed),
            4,
            "one scratch value per worker"
        );
    }

    #[test]
    fn a_panic_at_one_index_reaches_the_caller() {
        for workers in [1usize, 2, 8] {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                work_steal(
                    17,
                    workers,
                    || (),
                    |_, i| {
                        assert!(i != 11, "item 11 failed");
                        i
                    },
                )
            }));
            let payload = caught.expect_err("the panic must propagate");
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(msg.contains("item 11 failed"), "workers={workers}: {msg:?}");
        }
    }
}
