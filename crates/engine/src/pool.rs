//! A lazily-started, persistent work-stealing pool for
//! [`par_map`](crate::par_map).
//!
//! The previous pool held one global FIFO of jobs, so concurrent `par_map`
//! batches (e.g. two serve requests analyzing different designs) queued
//! whole-batch-at-a-time: a worker draining batch A never helped batch B
//! until A's queue ran dry, and a submitter waiting on its own batch
//! parked instead of helping anyone. This pool gives every batch its own
//! queue and lets **all** threads steal across batches:
//!
//! * **Workers** scan the batch registry round-robin and steal a job from
//!   whichever batch has one ([`PoolStats::steals`]), so two concurrent
//!   batches interleave at job granularity instead of serializing.
//! * **Submitters** drain their own batch first, then — while waiting for
//!   their stolen-away jobs to finish elsewhere — steal jobs from *other*
//!   batches ([`PoolStats::cross_batch_steals`]) instead of parking: under
//!   contention every thread stays busy until the fleet-wide queue is dry.
//!
//! # Lifecycle
//!
//! * **Lazy start** — no threads exist until the first batch is submitted;
//!   purely serial processes never pay for the pool.
//! * **Sizing** — the worker count resolves once, at first use:
//!   an explicit [`set_pool_threads`] override wins, else `LOCALWM_THREADS`
//!   (minus one for the participating submitter), else
//!   `available_parallelism − 1`. The override exists so tests (and the CI
//!   oversubscription lane) can pin a deterministic pool size on a host
//!   whose core count would otherwise decide it.
//! * **Drain on idle** — workers park on the registry condvar when no batch
//!   has work ([`PoolStats::park_wakeups`] counts their wakeups); threads
//!   persist for the process lifetime.
//! * **Submitter participation** — the submitting thread always runs the
//!   first job of its batch inline and then helps drain its own queue.
//!   Progress therefore never depends on pool capacity: on a single-core
//!   host the pool has zero workers and the submitter simply runs every
//!   job itself.
//! * **Panic propagation** — a panicking job is caught, the batch still
//!   runs (and is waited) to completion, and the first captured payload is
//!   re-thrown to the submitter afterwards.
//!
//! # Safety
//!
//! Jobs borrow from the submitting stack frame (`&items`, `&f`, `&mut`
//! output slots) but run on `'static` worker threads, so submission erases
//! their lifetime (the one `unsafe` in this crate). Soundness rests on a
//! single invariant, enforced by [`run_batch`]: **the submitter does not
//! return until every job of its batch has finished running** — normally or
//! by panic — so no job can outlive the frame it borrows from. Cross-batch
//! stealing does not weaken this: a submitter stealing foreign work runs it
//! synchronously on its own stack *before* re-checking its own batch, and
//! still only returns once its own `remaining` count hits zero. This is the
//! same contract `std::thread::scope` provides, implemented with a batch
//! completion count and a condvar instead of joins.

use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A lifetime-erased unit of work.
type Job = Box<dyn FnOnce() + Send>;

/// One batch: its unstarted jobs plus the completion state shared between
/// its submitter and every thread that stole from it.
struct BatchQueue {
    /// Jobs not yet picked up by any thread.
    jobs: Mutex<VecDeque<Job>>,
    state: Mutex<BatchState>,
    done: Condvar,
}

struct BatchState {
    /// Jobs not yet finished (queued, stolen, or running).
    remaining: usize,
    /// First captured panic payload, re-thrown by the submitter.
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// The process-wide pool: a registry of batches with queued work and the
/// parked workers serving them.
struct Pool {
    /// Batches that still have unstarted jobs, in registration order.
    /// Lock order: `registry` before any `BatchQueue::jobs` — never the
    /// reverse while the registry lock is held elsewhere.
    registry: Mutex<Vec<Arc<BatchQueue>>>,
    work: Condvar,
    threads: usize,
    /// Rotating scan start so concurrent thieves spread across batches
    /// instead of all hammering the oldest one.
    next_scan: AtomicUsize,
    jobs: AtomicU64,
    park_wakeups: AtomicU64,
    steals: AtomicU64,
    cross_batch_steals: AtomicU64,
}

/// Snapshot of pool activity, surfaced through service `stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads the pool started (0 until first use, and on
    /// single-core hosts without an override).
    pub threads: usize,
    /// Jobs executed through the pool (including ones the submitting
    /// thread ran itself).
    pub jobs: u64,
    /// Jobs pool workers took from a batch queue. Workers have no batch of
    /// their own, so every job a worker runs is a steal.
    pub steals: u64,
    /// Jobs a *submitter* stole from a **different** request's batch while
    /// waiting for its own stolen-away jobs to finish — the cross-request
    /// interleaving this pool exists to provide.
    pub cross_batch_steals: u64,
    /// Times an idle worker woke from its park to look for work.
    pub park_wakeups: u64,
}

static POOL: OnceLock<&'static Pool> = OnceLock::new();

/// Unset sentinel for [`set_pool_threads`].
const POOL_THREADS_UNSET: usize = usize::MAX;

static POOL_THREADS_OVERRIDE: AtomicUsize = AtomicUsize::new(POOL_THREADS_UNSET);

/// Pins the pool's worker-thread count, overriding both `LOCALWM_THREADS`
/// and the `available_parallelism − 1` default. Returns `true` when the
/// override will take effect — i.e. the pool has not started yet. Once the
/// first batch has been submitted the size is pinned for the process
/// lifetime and this returns `false` (the override is recorded but inert).
///
/// Tests and the CI oversubscription lane call this first thing so the
/// pool's size — and therefore which interleavings exist to be exercised —
/// does not depend on the host's core count.
pub fn set_pool_threads(workers: usize) -> bool {
    POOL_THREADS_OVERRIDE.store(workers, Ordering::SeqCst);
    POOL.get().is_none()
}

/// Resolves the worker count the pool will start with: explicit override,
/// else `LOCALWM_THREADS − 1` (the submitter participates), else
/// `available_parallelism − 1`.
fn resolve_threads() -> usize {
    let explicit = POOL_THREADS_OVERRIDE.load(Ordering::SeqCst);
    if explicit != POOL_THREADS_UNSET {
        return explicit;
    }
    if let Ok(v) = std::env::var("LOCALWM_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.saturating_sub(1);
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
        .saturating_sub(1)
}

/// The pool handle, starting the workers on first call.
fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let threads = resolve_threads();
        let p: &'static Pool = Box::leak(Box::new(Pool {
            registry: Mutex::new(Vec::new()),
            work: Condvar::new(),
            threads,
            next_scan: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
            park_wakeups: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            cross_batch_steals: AtomicU64::new(0),
        }));
        for i in 0..threads {
            std::thread::Builder::new()
                .name(format!("localwm-pool-{i}"))
                .spawn(move || worker_loop(p))
                .expect("spawn pool worker");
        }
        p
    })
}

/// Activity counters of the shared pool. Zero if no batch was ever
/// submitted (the stats call itself does not start the pool's threads —
/// it only reads what exists).
pub fn pool_stats() -> PoolStats {
    match POOL.get() {
        Some(p) => PoolStats {
            threads: p.threads,
            jobs: p.jobs.load(Ordering::Relaxed),
            steals: p.steals.load(Ordering::Relaxed),
            cross_batch_steals: p.cross_batch_steals.load(Ordering::Relaxed),
            park_wakeups: p.park_wakeups.load(Ordering::Relaxed),
        },
        None => PoolStats {
            threads: 0,
            jobs: 0,
            steals: 0,
            cross_batch_steals: 0,
            park_wakeups: 0,
        },
    }
}

/// Steals one job from any registered batch except `exclude`, scanning
/// round-robin from a rotating start. Caller holds the registry lock.
fn try_steal(
    pool: &Pool,
    registry: &[Arc<BatchQueue>],
    exclude: Option<&Arc<BatchQueue>>,
) -> Option<(Arc<BatchQueue>, Job)> {
    if registry.is_empty() {
        return None;
    }
    let start = pool.next_scan.fetch_add(1, Ordering::Relaxed) % registry.len();
    for i in 0..registry.len() {
        let bq = &registry[(start + i) % registry.len()];
        if exclude.is_some_and(|ex| Arc::ptr_eq(bq, ex)) {
            continue;
        }
        let mut q = bq.jobs.lock().expect("batch queue lock");
        if let Some(job) = q.pop_front() {
            drop(q);
            return Some((Arc::clone(bq), job));
        }
    }
    None
}

fn worker_loop(pool: &'static Pool) {
    loop {
        let (bq, job) = {
            let mut reg = pool.registry.lock().expect("pool registry lock");
            loop {
                if let Some(found) = try_steal(pool, &reg, None) {
                    break found;
                }
                reg = pool.work.wait(reg).expect("pool registry wait");
                pool.park_wakeups.fetch_add(1, Ordering::Relaxed);
            }
        };
        pool.steals.fetch_add(1, Ordering::Relaxed);
        run_job(pool, &bq, job);
    }
}

/// Runs one job, counting it and updating its batch (never unwinds).
fn run_job(pool: &Pool, batch: &BatchQueue, job: Job) {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    pool.jobs.fetch_add(1, Ordering::Relaxed);
    let mut st = batch.state.lock().expect("batch lock");
    st.remaining -= 1;
    if let Err(payload) = result {
        if st.panic.is_none() {
            st.panic = Some(payload);
        }
    }
    if st.remaining == 0 {
        batch.done.notify_all();
    }
}

/// Erases the borrow lifetime of a job so it can sit on the `'static`
/// queue. Sound **only** under the run-to-completion invariant documented
/// at module level and upheld by [`run_batch`].
#[allow(unsafe_code)]
fn erase<'scope>(job: Box<dyn FnOnce() + Send + 'scope>) -> Job {
    // SAFETY: run_batch blocks until `remaining == 0`, i.e. until this
    // closure has either run to completion or panicked (and the payload
    // been captured), before the submitting frame — owner of everything
    // the closure borrows — can return.
    unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Job>(job) }
}

/// Runs every job of one batch to completion across the pool, the
/// submitting thread included, then re-throws the first captured panic.
///
/// Jobs may borrow from the caller's stack frame; the call does not return
/// until all of them have finished. While its own queue is empty but jobs
/// are still running elsewhere, the submitter steals work from *other*
/// batches instead of blocking, so concurrent requests make progress on
/// every thread that has nothing better to do.
pub(crate) fn run_batch<'scope, I, J>(jobs: I)
where
    I: IntoIterator<Item = J>,
    J: FnOnce() + Send + 'scope,
{
    let mut queued: Vec<Job> = jobs
        .into_iter()
        .map(|j| erase(Box::new(j) as Box<dyn FnOnce() + Send + 'scope>))
        .collect();
    if queued.is_empty() {
        return;
    }
    let first = queued.remove(0);
    let bq = Arc::new(BatchQueue {
        jobs: Mutex::new(VecDeque::from(queued)),
        state: Mutex::new(BatchState {
            remaining: 0, // set below, before anyone can see the batch
            panic: None,
        }),
        done: Condvar::new(),
    });
    {
        let mut st = bq.state.lock().expect("batch lock");
        st.remaining = 1 + bq.jobs.lock().expect("batch queue lock").len();
    }
    let pool = pool();
    let registered = !bq.jobs.lock().expect("batch queue lock").is_empty();
    if registered {
        let mut reg = pool.registry.lock().expect("pool registry lock");
        reg.push(Arc::clone(&bq));
        drop(reg);
        pool.work.notify_all();
    }
    // The submitter works too: its first job inline, then its own queue.
    run_job(pool, &bq, first);
    loop {
        // Own batch first: keeps the common (uncontended) case on the
        // fast path and preserves the run-to-completion invariant.
        let own = bq.jobs.lock().expect("batch queue lock").pop_front();
        if let Some(job) = own {
            run_job(pool, &bq, job);
            continue;
        }
        if bq.state.lock().expect("batch lock").remaining == 0 {
            break;
        }
        // Own jobs are running on other threads: help a *different* batch
        // rather than parking, then re-check.
        let stolen = {
            let reg = pool.registry.lock().expect("pool registry lock");
            try_steal(pool, &reg, Some(&bq))
        };
        match stolen {
            Some((other, job)) => {
                pool.cross_batch_steals.fetch_add(1, Ordering::Relaxed);
                run_job(pool, &other, job);
            }
            None => {
                // Fleet-wide queues are dry; wait for our runners.
                let mut st = bq.state.lock().expect("batch lock");
                while st.remaining > 0 {
                    st = bq.done.wait(st).expect("batch wait");
                }
                break;
            }
        }
    }
    // Deregister: the queue is empty (drained by us and the thieves), so
    // the registry entry is dead weight for future scans.
    if registered {
        let mut reg = pool.registry.lock().expect("pool registry lock");
        reg.retain(|b| !Arc::ptr_eq(b, &bq));
    }
    let mut st = bq.state.lock().expect("batch lock");
    debug_assert_eq!(st.remaining, 0, "batch left unfinished");
    if let Some(payload) = st.panic.take() {
        drop(st);
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn batch_runs_every_job_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..64).map(|_| AtomicUsize::new(0)).collect();
        run_batch(hits.iter().map(|h| {
            || {
                h.fetch_add(1, Ordering::SeqCst);
            }
        }));
        for h in &hits {
            assert_eq!(h.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn empty_batch_is_a_noop() {
        run_batch(Vec::<fn()>::new());
    }

    #[test]
    fn jobs_can_borrow_mutably_through_disjoint_slots() {
        let mut out = vec![0u64; 8];
        run_batch(out.iter_mut().enumerate().map(|(i, slot)| {
            move || {
                *slot = (i as u64) * 10;
            }
        }));
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn panic_is_rethrown_after_the_batch_completes() {
        let done = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_batch((0..6).map(|i| {
                let done = &done;
                move || {
                    if i == 2 {
                        panic!("boom in job {i}");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }));
        let payload = caught.expect_err("panic must propagate");
        let msg = payload.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("boom in job 2"));
        // Every non-panicking job still ran before the rethrow.
        assert_eq!(done.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn stats_count_jobs() {
        let before = pool_stats();
        run_batch((0..5).map(|_| || {}));
        let after = pool_stats();
        assert!(after.jobs >= before.jobs + 5);
    }

    #[test]
    fn concurrent_batches_all_complete() {
        // Several submitters in flight at once: every batch's jobs run
        // exactly once whatever mix of own-runs and steals serves them.
        let counters: Vec<Vec<AtomicUsize>> = (0..4)
            .map(|_| (0..32).map(|_| AtomicUsize::new(0)).collect())
            .collect();
        std::thread::scope(|s| {
            for hits in &counters {
                s.spawn(move || {
                    run_batch(hits.iter().map(|h| {
                        || {
                            h.fetch_add(1, Ordering::SeqCst);
                        }
                    }));
                });
            }
        });
        for hits in &counters {
            for h in hits {
                assert_eq!(h.load(Ordering::SeqCst), 1);
            }
        }
    }

    #[test]
    fn registry_is_empty_once_batches_complete() {
        run_batch((0..16).map(|_| || {}));
        // Other tests in this binary submit batches concurrently, so the
        // registry only has to drain eventually; a batch that never
        // deregistered would keep it non-empty for good.
        let p = POOL.get().expect("run_batch started the pool");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !p.registry.lock().expect("registry lock").is_empty() {
            assert!(
                std::time::Instant::now() < deadline,
                "completed batches must deregister"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }
}
