//! End-of-run wakeups: every `run_tasks` call must return, even when
//! the last task finishes while another worker is between its `live`
//! check and its wait on the ready queue.
//!
//! Many short runs with more tasks than workers and near-empty last
//! steps make that window common. The runs happen on a helper thread
//! and the test waits for them under a watchdog, so a lost wakeup fails
//! the test instead of hanging it.

use bns_runtime::{run_tasks, Step, Task};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// Yields `left` times, then finishes on an empty step.
struct Short {
    left: usize,
    steps: Arc<AtomicUsize>,
}

impl Task for Short {
    fn step(&mut self) -> Step {
        self.steps.fetch_add(1, Ordering::Relaxed);
        if self.left == 0 {
            return Step::Done;
        }
        self.left -= 1;
        Step::Yield
    }
}

const RUNS: usize = 4_000;
const WATCHDOG: Duration = Duration::from_secs(120);

#[test]
fn many_short_runs_all_return() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let steps = Arc::new(AtomicUsize::new(0));
        let mut expected = 0;
        for run in 0..RUNS {
            let k = 3 + run % 4;
            let workers = 2 + run % 2;
            let tasks: Vec<Box<dyn Task>> = (0..k)
                .map(|t| {
                    Box::new(Short {
                        left: (run + t) % 3,
                        steps: Arc::clone(&steps),
                    }) as Box<dyn Task>
                })
                .collect();
            expected += (0..k).map(|t| (run + t) % 3 + 1).sum::<usize>();
            run_tasks(tasks, workers, |_| ());
        }
        tx.send((steps.load(Ordering::Relaxed), expected)).unwrap();
    });
    let (steps, expected) = rx
        .recv_timeout(WATCHDOG)
        .expect("run_tasks did not return: a worker missed the end-of-run wakeup");
    assert_eq!(steps, expected, "every step of every task ran exactly once");
}
