//! An idle pool sleeps: its workers wait for a push instead of polling.
//!
//! A single test in its own binary, so no other pool in the process
//! records into the global `exec.pool.idle.ns` histogram meanwhile.

use std::sync::{mpsc, Mutex};
use std::time::Duration;

use aims_exec::ThreadPool;

#[test]
fn idle_workers_wait_for_work_instead_of_polling() {
    let pool = ThreadPool::new(2);
    let idle = aims_telemetry::global().histogram("exec.pool.idle.ns");
    // Let both workers find the queues empty and go to sleep.
    std::thread::sleep(Duration::from_millis(20));
    let before = idle.count();
    std::thread::sleep(Duration::from_millis(200));
    let woken = idle.count() - before;
    // Each wakeup records one idle spell; a worker polling on a 1 ms
    // timeout would record about 400 here.
    assert!(woken <= 4, "{woken} idle wakeups in 200 ms of no work");

    // Work pushed after the idle spell wakes a worker: the caller takes
    // the first task (the injector is FIFO) and waits in it for the
    // second, which only a worker can run meanwhile.
    for _ in 0..8 {
        let (tx, rx) = mpsc::channel();
        let rx = Mutex::new(rx);
        pool.run(|scope| {
            scope.spawn(|| {
                let woke = rx.lock().unwrap().recv_timeout(Duration::from_secs(10));
                woke.expect("no worker woke for the second task");
            });
            scope.spawn(move || tx.send(()).unwrap());
        });
    }
}
