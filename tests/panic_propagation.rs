//! A panic during exploration ends the run at every thread count.
//!
//! Exhaustive exploration stands in for the paper's proof here, so a
//! run must end in a verdict or a crash. A property that panics on its
//! k-th check must unwind out of `explore` with its own payload, whether
//! that check runs on a worker of a pooled phase or inline on the driver
//! after pooled phases ran. A run that waits forever instead fails this
//! suite by timeout.

use cxl_repro::core::instr::{programs, Instruction};
use cxl_repro::core::{ProtocolConfig, Ruleset, SystemState};
use cxl_repro::mc::{CheckOptions, FnProperty, ModelChecker, PropertyOutcome};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Duration;

/// The N = 3 grid [S1,L]×[S2,L]×[L,L]: 11,727 states under the strict
/// configuration. At two threads its levels 10–27 expand and dedup on
/// workers, and levels 9–26 check there.
fn grid() -> SystemState {
    SystemState::initial_n(
        3,
        vec![
            vec![Instruction::Store(1), Instruction::Load].into(),
            vec![Instruction::Store(2), Instruction::Load].into(),
            programs::loads(2),
        ],
    )
}

/// Explore the grid at `threads` on a spawned thread, with a property
/// that panics on its `k`-th check. Returns the exploration's panic
/// message, or `None` when it did not panic; fails the test when the
/// exploration has not ended after 30 s.
fn panic_of_kth_check(threads: usize, k: usize) -> Option<String> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let checks = AtomicUsize::new(0);
        let prop = FnProperty::new("panics_on_kth_check", |_: &SystemState| {
            if checks.fetch_add(1, Ordering::Relaxed) + 1 == k {
                panic!("check {k} panics");
            }
            PropertyOutcome::Holds
        });
        let opts = CheckOptions {
            threads,
            ..CheckOptions::default()
        };
        let mc =
            ModelChecker::with_options(Ruleset::with_devices(ProtocolConfig::strict(), 3), opts);
        let outcome = catch_unwind(AssertUnwindSafe(|| mc.explore(&grid(), &[&prop])));
        let message = outcome
            .err()
            .map(|payload| match payload.downcast::<String>() {
                Ok(message) => *message,
                Err(_) => "<non-string payload>".to_string(),
            });
        let _ = tx.send(message);
    });
    rx.recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("threads={threads} k={k}: exploration still running after 30 s"))
}

#[test]
fn a_panicking_property_ends_the_run_at_every_thread_count() {
    // k = 5,000 falls in level 17, which checks on workers at two
    // threads; k = 11,700 falls in level 32, checked inline after the
    // pooled levels ran.
    for k in [5_000usize, 11_700] {
        for threads in [1usize, 2] {
            let message = panic_of_kth_check(threads, k)
                .unwrap_or_else(|| panic!("threads={threads} k={k}: exploration did not panic"));
            assert!(
                message.contains(&format!("check {k} panics")),
                "threads={threads} k={k}: the property's own panic must propagate, got {message:?}"
            );
        }
    }
}
