//! A thread of the threaded executor that dies fails
//! [`ParallelSystem::run`]; it never leaves the others waiting on it.
//!
//! Every case runs `run` on a thread of its own and waits for it with a
//! timeout, so a run that hangs fails its test instead of stalling the
//! suite.

use edgstr_core::{capture_and_transform, EdgStrConfig, TransformationReport};
use edgstr_net::HttpRequest;
use edgstr_runtime::{CachePolicy, ParallelOptions, ParallelRunStats, ParallelSystem};
use serde_json::json;
use std::sync::mpsc::{channel, RecvTimeoutError};
use std::time::Duration;

const APP: &str = r#"
    db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
    app.post("/note", function (req, res) {
        db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
        res.send({ ok: true });
    });
    app.get("/count", function (req, res) {
        var rows = db.query("SELECT COUNT(*) FROM notes");
        res.send(rows[0]);
    });
"#;

/// Longer than any healthy run of [`workload`] takes, debug build included.
const TIMEOUT: Duration = Duration::from_secs(30);

fn transformed() -> TransformationReport {
    let reqs = vec![
        HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
        HttpRequest::get("/count", json!({})),
    ];
    capture_and_transform(APP, &reqs, &EdgStrConfig::default())
        .unwrap()
        .0
}

/// Two requests per replica, a write first: with `sync_batch: 1` every
/// replica ships a delta to the cloud inside the timed window.
fn workload() -> Vec<HttpRequest> {
    (0..8)
        .map(|i| {
            if i < 4 {
                HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![])
            } else {
                HttpRequest::get("/count", json!({}))
            }
        })
        .collect()
}

/// Run `workload()` on a thread of its own: the stats, or the message
/// `run` panicked with. A run still going after [`TIMEOUT`] fails the
/// test (its thread is left behind, blocked).
fn run(
    cloud_source: &str,
    report: &TransformationReport,
    workers: usize,
) -> Result<ParallelRunStats, String> {
    let options = ParallelOptions {
        replicas: 4,
        workers,
        sync_batch: 1,
        cache: CachePolicy::All,
        ..ParallelOptions::default()
    };
    let system = ParallelSystem::new(cloud_source, report, options);
    let (tx, rx) = channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(system.run(&workload()));
    });
    match rx.recv_timeout(TIMEOUT) {
        Ok(stats) => Ok(stats),
        // the sender dropped without sending: `run` panicked
        Err(RecvTimeoutError::Disconnected) => {
            let payload = handle.join().expect_err("the thread ended without sending");
            Err(payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default())
        }
        Err(RecvTimeoutError::Timeout) => {
            panic!("{workers} workers: run hung for {TIMEOUT:?}")
        }
    }
}

#[test]
fn a_healthy_run_returns() {
    for workers in [1, 2] {
        let stats = run(APP, &transformed(), workers).expect("healthy run");
        assert_eq!((stats.completed, stats.failed), (8, 0), "{workers} workers");
        assert!(stats.converged, "{workers} workers");
    }
}

#[test]
fn an_unparsable_cloud_source_fails_the_run_with_its_message() {
    let expected = edgstr_lang::parse("var = = (").unwrap_err().to_string();
    for workers in [1, 2] {
        // the workers' deltas find the cloud gone; the cloud's panic is
        // the one reported
        let message = run("var = = (", &transformed(), workers).expect_err("the cloud died");
        assert!(
            message.contains(&expected),
            "{workers} workers: the panic names the parse error {expected:?}, got {message:?}"
        );
    }
}

#[test]
fn a_replica_program_that_throws_at_init_fails_the_run_with_its_message() {
    for workers in [1, 2] {
        let mut report = transformed();
        report.replica.program = edgstr_lang::parse("var x = nosuch.thing(1);").unwrap();
        let message = run(APP, &report, workers).expect_err("every worker died");
        assert!(
            message.contains("nosuch"),
            "{workers} workers: the panic names the failing init, got {message:?}"
        );
    }
}
