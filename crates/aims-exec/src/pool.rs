//! The fixed-size work-stealing thread pool and its scoped task API.
//!
//! Topology: `N` worker threads, each owning a deque of tasks, plus one
//! shared injector queue that external (non-worker) threads push into.
//! Workers pop their own deque LIFO (locality), take injected work FIFO
//! (fairness), and steal FIFO from other workers when idle. The caller of
//! [`ThreadPool::run`] helps execute queued tasks while it waits, so
//! nested `run` calls from inside a worker cannot deadlock.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use aims_telemetry::{Counter, Histogram};

/// A type-erased unit of work. Lifetimes are erased on spawn; soundness
/// comes from [`ThreadPool::run`] not returning until every task spawned
/// in its scope has finished.
type Task = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(shared-ptr address, worker index)` when the current thread is a
    /// pool worker — used to route nested spawns to the local deque.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// State shared between the pool handle and its workers.
struct Shared {
    injector: Mutex<VecDeque<Task>>,
    locals: Vec<Mutex<VecDeque<Task>>>,
    /// Count of queued-but-not-taken tasks (a cheap "is there work" hint).
    /// Raised only under `sleep_mx`, so a worker that saw it at zero there
    /// is already waiting when the raise's notification comes.
    queued: AtomicUsize,
    shutdown: AtomicBool,
    sleep_mx: Mutex<()>,
    work_cv: Condvar,
    /// The pool's metrics, taken once in [`ThreadPool::new`] so a snapshot
    /// lists all three for every width, the serial one included.
    tasks: &'static Counter,
    steals: &'static Counter,
    idle: &'static Histogram,
}

impl Shared {
    /// Queues a task: onto the current worker's own deque when called from
    /// inside the pool, otherwise onto the injector.
    fn push(self: &Arc<Self>, task: Task) {
        let addr = Arc::as_ptr(self) as usize;
        match WORKER.with(|w| w.get()) {
            Some((a, id)) if a == addr => self.locals[id].lock().unwrap().push_back(task),
            _ => self.injector.lock().unwrap().push_back(task),
        }
        let _guard = self.sleep_mx.lock().unwrap();
        self.queued.fetch_add(1, Ordering::SeqCst);
        self.work_cv.notify_one();
    }

    /// Takes one task: own deque (LIFO), then injector (FIFO), then steal
    /// from the other workers (FIFO). Returns the task and whether it was
    /// stolen.
    fn find_task(&self, me: Option<usize>) -> Option<(Task, bool)> {
        if let Some(i) = me {
            if let Some(t) = self.locals[i].lock().unwrap().pop_back() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some((t, false));
            }
        }
        if let Some(t) = self.injector.lock().unwrap().pop_front() {
            self.queued.fetch_sub(1, Ordering::SeqCst);
            return Some((t, false));
        }
        let n = self.locals.len();
        let start = me.map_or(0, |i| i + 1);
        for off in 0..n {
            let j = (start + off) % n;
            if Some(j) == me {
                continue;
            }
            if let Some(t) = self.locals[j].lock().unwrap().pop_front() {
                self.queued.fetch_sub(1, Ordering::SeqCst);
                return Some((t, true));
            }
        }
        None
    }

    /// The worker id of the current thread *on this pool*, if any.
    fn current_worker(self: &Arc<Self>) -> Option<usize> {
        let addr = Arc::as_ptr(self) as usize;
        WORKER.with(|w| w.get()).filter(|&(a, _)| a == addr).map(|(_, id)| id)
    }
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&shared) as usize, id))));
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if let Some((task, stolen)) = shared.find_task(Some(id)) {
            if stolen {
                shared.steals.inc();
            }
            shared.tasks.inc();
            task();
            continue;
        }
        // No work anywhere: sleep until a push or shutdown. Both happen
        // under `sleep_mx`, so neither can slip between the check and the
        // wait.
        let wait_start = Instant::now();
        {
            let guard = shared.sleep_mx.lock().unwrap();
            if shared.queued.load(Ordering::SeqCst) == 0 && !shared.shutdown.load(Ordering::SeqCst)
            {
                let _guard = shared.work_cv.wait(guard).unwrap();
            }
        }
        shared.idle.record(wait_start.elapsed().as_nanos() as u64);
    }
}

/// Bookkeeping for one [`Scope`]: outstanding task count, the first panic
/// payload, and the caller's wakeup channel.
#[derive(Default)]
struct ScopeState {
    pending: AtomicUsize,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    done_mx: Mutex<()>,
    done_cv: Condvar,
}

/// A spawn handle passed to the closure of [`ThreadPool::run`]. Spawned
/// tasks may borrow anything that outlives the `run` call (`'env`).
pub struct Scope<'env> {
    shared: Arc<Shared>,
    serial: bool,
    state: Arc<ScopeState>,
    /// Invariant in `'env`, like `std::thread::Scope`.
    _env: PhantomData<fn(&'env ()) -> &'env ()>,
}

impl<'env> Scope<'env> {
    /// Spawns a task onto the pool. On a single-thread pool the task runs
    /// inline immediately — the serial fallback that keeps one-thread
    /// behavior bit-identical to not using the pool at all.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        if self.serial {
            f();
            return;
        }
        self.state.pending.fetch_add(1, Ordering::SeqCst);
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(f)) {
                state.panic.lock().unwrap().get_or_insert(payload);
            }
            if state.pending.fetch_sub(1, Ordering::SeqCst) == 1 {
                let _guard = state.done_mx.lock().unwrap();
                state.done_cv.notify_all();
            }
        });
        // SAFETY: the task only borrows data live for 'env, and
        // `ThreadPool::run` does not return before `pending` reaches zero,
        // i.e. before this closure has finished running.
        let task = unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Task>(task) };
        self.shared.push(task);
    }
}

/// A fixed-size work-stealing thread pool. See the crate docs for the
/// design and determinism contract.
pub struct ThreadPool {
    shared: Arc<Shared>,
    threads: usize,
    handles: Vec<thread::JoinHandle<()>>,
}

impl ThreadPool {
    /// Creates a pool with `threads` execution contexts. `threads <= 1`
    /// spawns no workers: every task runs inline on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let workers = if threads == 1 { 0 } else { threads };
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            sleep_mx: Mutex::new(()),
            work_cv: Condvar::new(),
            tasks: aims_telemetry::counter!("exec.pool.tasks"),
            steals: aims_telemetry::counter!("exec.pool.steals"),
            idle: aims_telemetry::histogram!("exec.pool.idle.ns"),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("aims-exec-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool { shared, threads, handles }
    }

    /// The pool's parallelism (including the helping caller's context).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when the pool runs everything inline on the caller.
    pub fn is_serial(&self) -> bool {
        self.threads <= 1
    }

    /// Runs `f` with a [`Scope`] whose spawned tasks may borrow from the
    /// caller's stack. Blocks — helping execute queued tasks — until every
    /// task spawned in the scope has completed. The first panic from any
    /// task (or from `f` itself) is propagated to the caller.
    pub fn run<'env, R>(&self, f: impl FnOnce(&Scope<'env>) -> R) -> R {
        let scope = Scope {
            shared: Arc::clone(&self.shared),
            serial: self.is_serial(),
            state: Arc::new(ScopeState::default()),
            _env: PhantomData,
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always drain the scope, even when `f` panicked: tasks borrow the
        // caller's stack and must finish before we unwind past it.
        self.wait_scope(&scope.state);
        if let Some(payload) = scope.state.panic.lock().unwrap().take() {
            panic::resume_unwind(payload);
        }
        match result {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }

    /// Waits for a scope's tasks, executing queued work (from any scope)
    /// while waiting.
    fn wait_scope(&self, state: &ScopeState) {
        let me = self.shared.current_worker();
        while state.pending.load(Ordering::SeqCst) > 0 {
            if let Some((task, _)) = self.shared.find_task(me) {
                self.shared.tasks.inc();
                task();
                continue;
            }
            let guard = state.done_mx.lock().unwrap();
            if state.pending.load(Ordering::SeqCst) == 0 {
                break;
            }
            let _ = state.done_cv.wait_timeout(guard, Duration::from_millis(1)).unwrap();
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        {
            let _guard = self.shared.sleep_mx.lock().unwrap();
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .field("queued", &self.shared.queued.load(Ordering::SeqCst))
            .finish()
    }
}

/// Pool size for the process-wide pool: the `AIMS_THREADS` environment
/// variable when set to a positive integer, else the machine's available
/// parallelism.
pub fn configured_threads() -> usize {
    std::env::var("AIMS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The process-wide pool every AIMS hot path runs on. Sized once, on first
/// use, from [`configured_threads`].
pub fn global_pool() -> &'static ThreadPool {
    static POOL: OnceLock<ThreadPool> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = configured_threads();
        aims_telemetry::gauge!("exec.pool.threads").set(threads as f64);
        ThreadPool::new(threads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn scoped_tasks_borrow_and_complete() {
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let total = AtomicU64::new(0);
            pool.run(|scope| {
                for i in 0..100u64 {
                    let total = &total;
                    scope.spawn(move || {
                        total.fetch_add(i, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(total.load(Ordering::SeqCst), 4950, "threads={threads}");
        }
    }

    #[test]
    fn nested_run_does_not_deadlock() {
        let pool = ThreadPool::new(2);
        let hits = AtomicU64::new(0);
        pool.run(|scope| {
            let hits = &hits;
            let pool2 = &pool;
            scope.spawn(move || {
                pool2.run(|inner| {
                    for _ in 0..10 {
                        inner.spawn(|| {
                            hits.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                });
            });
        });
        assert_eq!(hits.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panics_propagate_from_tasks() {
        for threads in [1, 4] {
            let pool = ThreadPool::new(threads);
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(|scope| {
                    scope.spawn(|| panic!("task exploded"));
                    // On multi-thread pools, spawn more work after the
                    // panicking task to check the scope still drains.
                    for _ in 0..8 {
                        scope.spawn(|| {});
                    }
                });
            }));
            let payload = caught.expect_err("panic should propagate");
            let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
            assert_eq!(msg, "task exploded");
        }
    }

    #[test]
    fn run_returns_closure_value() {
        let pool = ThreadPool::new(3);
        let out = pool.run(|scope| {
            scope.spawn(|| {});
            42
        });
        assert_eq!(out, 42);
    }

    #[test]
    fn configured_threads_is_positive() {
        assert!(configured_threads() >= 1);
        assert!(global_pool().threads() >= 1);
    }
}
