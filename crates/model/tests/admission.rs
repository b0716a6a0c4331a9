//! Exhaustive model check of the serve stack's admission queue
//! (`proto::on_model::AdmissionQueue` — the exact code `crates/serve`
//! runs, instantiated against the instrumented sync layer).
//!
//! Two protocols from ISSUE-level history are verified here:
//!
//! * **Shed semantics** — `try_push` never blocks, and every
//!   `Shed { depth }` it returns carries `depth == capacity`, no matter
//!   how pops race the rejection (the depth is a locked snapshot).
//! * **SIGTERM drain** — after `close()`, racing producers are refused
//!   with `Closed`, consumers drain the remainder and terminate via
//!   `None`, and nothing is lost or duplicated — also with two
//!   consumers, as the server runs two workers by default. Termination
//!   is checked implicitly: a consumer that never exits is a deadlock
//!   or an op-budget violation, both of which fail the exploration.

use std::sync::Arc;
use std::time::Duration;
use taor_model::check::sync::spawn;
use taor_model::check::{explore, Options};
use taor_model::invariants::{assert_conserved, assert_sheds_at_capacity};
use taor_model::proto::on_model::AdmissionQueue;
use taor_model::proto::AdmitError;

/// Drain the queue one item per wakeup until `close()` lands: the
/// worker_loop shape from crates/serve/src/server.rs.
fn consume(q: &AdmissionQueue<usize>) -> Vec<usize> {
    let mut got = Vec::new();
    while let Some(item) = q.pop(Duration::from_millis(1)) {
        got.extend(item);
    }
    got
}

#[test]
fn shed_depth_is_capacity_under_racing_pops() {
    let report = explore(Options::default(), || {
        let q = Arc::new(AdmissionQueue::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            spawn(move || consume(&q))
        };
        // The body is the producer: push against the 1-slot queue while
        // the consumer races pops, recording accepted items and sheds.
        let mut pushed = Vec::new();
        let mut shed_depths = Vec::new();
        for i in 0..3 {
            match q.try_push(i) {
                Ok(()) => pushed.push(i),
                Err(AdmitError::Shed { depth }) => shed_depths.push(depth),
                Err(AdmitError::Closed) => unreachable!("queue is never closed here"),
            }
        }
        q.close();
        let popped = consumer.join().unwrap();
        assert_sheds_at_capacity(q.capacity(), &shed_depths);
        assert_conserved(pushed, popped);
    });
    println!(
        "admission shed (1 producer, 1 consumer, cap 1): {} interleavings explored",
        report.executions
    );
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.complete, "exploration hit a bound before exhausting the tree");
}

#[test]
fn close_drains_and_terminates_with_a_racing_producer() {
    let report = explore(Options::default(), || {
        let q = Arc::new(AdmissionQueue::new(2));
        let producer = {
            let q = Arc::clone(&q);
            spawn(move || {
                // Races close(): every push either lands (and must be
                // drained) or is refused with Closed — never lost.
                let mut pushed = Vec::new();
                for i in 0..2 {
                    match q.try_push(i) {
                        Ok(()) => pushed.push(i),
                        Err(AdmitError::Closed) => {}
                        Err(AdmitError::Shed { .. }) => {}
                    }
                }
                pushed
            })
        };
        let consumer = {
            let q = Arc::clone(&q);
            spawn(move || consume(&q))
        };
        q.close();
        let pushed = producer.join().unwrap();
        let popped = consumer.join().unwrap();
        assert_conserved(pushed, popped);
    });
    println!(
        "admission drain (racing producer/close, cap 2): {} interleavings explored",
        report.executions
    );
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.complete, "exploration hit a bound before exhausting the tree");
}

#[test]
fn two_workers_drain_against_close_without_loss_or_duplication() {
    let report = explore(Options::default(), || {
        let q = Arc::new(AdmissionQueue::new(2));
        for i in 0..2 {
            q.try_push(i).unwrap();
        }
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let q = Arc::clone(&q);
                spawn(move || consume(&q))
            })
            .collect();
        // Both workers race each other for the two items and race the
        // close: each item must reach exactly one of them.
        q.close();
        let popped = workers.into_iter().flat_map(|w| w.join().unwrap()).collect();
        assert_conserved(vec![0, 1], popped);
    });
    println!(
        "admission drain (2 pushes, 2 workers, close, cap 2): {} interleavings explored",
        report.executions
    );
    assert!(report.violation.is_none(), "violation: {:?}", report.violation);
    assert!(report.complete, "exploration hit a bound before exhausting the tree");
}
