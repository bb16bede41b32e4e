//! The order-preserving worker pool.
//!
//! [`parallel_map`] is a bounded-channel thread pool used to fan NMP
//! candidate evaluation out across cores (the hottest path of the
//! evolutionary search, Figure 10), and [`parallel_try_map`] its
//! fallible twin for whole sweep cells. Results preserve input order,
//! so parallel runs are bitwise identical to serial ones.
//!
//! # Examples
//!
//! ```
//! use ev_edge::exec::parallel::parallel_map;
//!
//! // Order-preserving: results land at their input index no matter
//! // which worker computed them.
//! let squares = parallel_map(4, (0u64..16).collect(), |x| x * x);
//! assert_eq!(squares[5], 25);
//! assert_eq!(squares.len(), 16);
//! ```

use std::sync::mpsc::sync_channel;
use std::sync::Mutex;

/// Most threads one [`parallel_map`] call starts, whatever worker count
/// it is asked for (`--workers` flags and tune reports are external
/// input). Results do not depend on the worker count.
pub const MAX_WORKERS: usize = 64;

/// The worker count a request runs on: `0` ("auto") is the machine's
/// available parallelism, and every request is capped at
/// [`MAX_WORKERS`].
pub(crate) fn resolve_workers(workers: usize) -> usize {
    let workers = if workers == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    } else {
        workers
    };
    workers.min(MAX_WORKERS)
}

/// The threads [`parallel_map`] starts for `workers` over `items` items.
fn thread_count(workers: usize, items: usize) -> usize {
    workers.min(items).min(MAX_WORKERS)
}

/// Applies `f` to every item on a pool of `workers` threads (at most
/// [`MAX_WORKERS`]) pulling from a shared work queue and replying over
/// a bounded channel; returns the results in input order.
///
/// With `workers <= 1` (or one item) this degrades to a plain serial
/// map — same results, no threads. A panic inside `f` propagates to
/// the caller when the scope joins (it never deadlocks the pool: the
/// surviving workers drain the queue, the result channel closes, and
/// the panic resurfaces).
pub fn parallel_map<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = thread_count(workers, items.len());
    if workers <= 1 {
        return items.into_iter().map(f).collect();
    }
    let count = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let (result_tx, result_rx) = sync_channel::<(usize, R)>(workers * 2);
    let f = &f;
    let queue = &queue;
    let mut results: Vec<Option<R>> = std::iter::repeat_with(|| None).take(count).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let result_tx = result_tx.clone();
            scope.spawn(move || loop {
                // Pull one job under the lock, release it to compute.
                // A sibling's panic poisons nothing we can't recover:
                // Iterator::next never unwinds here, so the state behind
                // a poisoned lock is still consistent.
                let job = {
                    let mut guard = match queue.lock() {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    guard.next()
                };
                match job {
                    Some((idx, item)) => {
                        if result_tx.send((idx, f(item))).is_err() {
                            return;
                        }
                    }
                    None => return, // queue drained
                }
            });
        }
        drop(result_tx);
        // Drain concurrently with the workers; ends when every sender is
        // gone — whether by finishing or by panicking.
        for (idx, result) in result_rx {
            results[idx] = Some(result);
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index produced a result"))
        .collect()
}

/// Fallible [`parallel_map`]: applies `f` to every item on the worker
/// pool and returns the results in input order, or the error of the
/// *first failing item in input order* — exactly what a serial
/// `items.into_iter().map(f).collect::<Result<_, _>>()` would return
/// when every item is evaluated. All items run to completion before the
/// error is selected, so the outcome is identical for any worker count.
///
/// This is the generic fan-out used for non-candidate work items (e.g.
/// whole NMP configuration cells in [`crate::nmp::sweep`]).
///
/// # Errors
///
/// Returns the first error in input order.
///
/// # Examples
///
/// ```
/// use ev_edge::exec::parallel::parallel_try_map;
///
/// let ok: Result<Vec<u64>, &str> =
///     parallel_try_map(4, (1u64..9).collect(), |x| Ok(x * 2));
/// assert_eq!(ok.unwrap()[0], 2);
///
/// let err: Result<Vec<u64>, String> =
///     parallel_try_map(4, (1u64..9).collect(), |x| {
///         if x % 3 == 0 { Err(format!("bad {x}")) } else { Ok(x) }
///     });
/// assert_eq!(err.unwrap_err(), "bad 3"); // first in input order, not time
/// ```
pub fn parallel_try_map<T, R, E, F>(workers: usize, items: Vec<T>, f: F) -> Result<Vec<R>, E>
where
    T: Send,
    R: Send,
    E: Send,
    F: Fn(T) -> Result<R, E> + Sync,
{
    parallel_map(workers, items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..200).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [0, 1, 2, 4, 8] {
            assert_eq!(
                parallel_map(workers, items.clone(), |x| x * x),
                expected,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn worker_panic_propagates_instead_of_deadlocking() {
        let outcome = std::panic::catch_unwind(|| {
            parallel_map(4, (0..64u32).collect::<Vec<_>>(), |x| {
                assert!(x != 13, "injected failure");
                x
            })
        });
        assert!(outcome.is_err(), "the worker panic must reach the caller");
    }

    #[test]
    fn parallel_try_map_propagates_first_error_in_input_order() {
        let items: Vec<u32> = (0..100).collect();
        for workers in [1, 2, 8] {
            let out: Result<Vec<u32>, String> = parallel_try_map(workers, items.clone(), |x| {
                if x == 7 || x == 93 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            });
            // Item 93 may *finish* first on some schedules; input order wins.
            assert_eq!(out.unwrap_err(), "bad 7", "workers = {workers}");
        }
        let ok: Result<Vec<u32>, String> = parallel_try_map(4, items.clone(), |x| Ok(x + 1));
        assert_eq!(ok.unwrap(), (1..101).collect::<Vec<u32>>());
    }

    #[test]
    fn first_input_order_error_wins_even_when_later_errors_finish_first() {
        // Multiple failing items with adversarial timing: the
        // lowest-index failure (item 3) sleeps while a pack of
        // higher-index failures complete instantly, so on any real
        // schedule the pool *observes* the later errors long before the
        // earlier one exists. The selected error must still be the
        // first in input order — the guarantee sweep/tune fan-outs rely
        // on when several cells fail at once (a serial run would have
        // surfaced exactly that cell's error).
        for workers in [2usize, 4, 8] {
            let out: Result<Vec<u32>, String> =
                parallel_try_map(workers, (0..64u32).collect(), |x| match x {
                    3 => {
                        std::thread::sleep(std::time::Duration::from_millis(25));
                        Err("bad 3".to_string())
                    }
                    x if x >= 40 => Err(format!("bad {x}")),
                    x => Ok(x),
                });
            assert_eq!(out.unwrap_err(), "bad 3", "workers = {workers}");
        }
    }

    #[test]
    fn thread_count_is_capped() {
        assert_eq!(thread_count(usize::MAX, usize::MAX), MAX_WORKERS);
        assert_eq!(thread_count(MAX_WORKERS + 1, 1_000), MAX_WORKERS);
        assert_eq!(thread_count(8, 3), 3);
        assert_eq!(thread_count(0, 10), 0);
        assert_eq!(resolve_workers(usize::MAX), MAX_WORKERS);
        assert!((1..=MAX_WORKERS).contains(&resolve_workers(0)));
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn parallel_map_handles_empty_and_tiny_inputs() {
        assert_eq!(parallel_map(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(parallel_map(4, vec![7u32], |x| x + 1), vec![8]);
    }
}
