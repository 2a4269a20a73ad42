//! Wall-clock parallel serving: a multi-threaded edge executor with
//! per-replica state ownership.
//!
//! The virtual-time drivers ([`crate::ThreeTierSystem`]) execute every
//! request on one host thread and *simulate* concurrency; throughput is a
//! simulated number. This module is the real-time sibling: it runs under
//! [`Clock::Wall`] and puts each edge replica — one [`ReplicaCore`]: VM,
//! CRDT set, response cache — on exactly one worker thread, so the serve
//! hot path takes **no locks and touches no shared mutable state**. A
//! request is served by [`ReplicaCore::serve`], the pipeline the
//! virtual-time driver's edges and cloud master run.
//!
//! ## Ownership model
//!
//! The deployment has a fixed replica count `R` (independent of the thread
//! count). Request `i` routes to replica `i % R`, and replica `r` is owned
//! by worker `r % T` for `T` worker threads. Nothing hands requests out:
//! every worker walks the borrowed request slice in schedule order, one
//! round of `R` at a time, and serves its own replicas' requests in place.
//! Ownership is *static* by design: the VM and its SQL statement cache are
//! deliberately thread-owned (`Rc` interiors — see the Send audit in
//! `edgstr-lang/src/vm.rs`), so replicas cannot migrate between threads
//! mid-run, and request-granular stealing across replicas would reorder a
//! replica's request stream and break determinism. With uniform routing
//! the workers' shares are balanced by construction, which is what a
//! stealing pool would converge to anyway.
//!
//! Static ownership is also what makes the executor *deterministic up to
//! scheduling*: a replica serves its request subsequence in order, and
//! remote deltas are only folded in at the final convergence flush, so
//! every response is a pure function of the replica's own stream —
//! independent of `T`. The differential suite asserts that per-request
//! response digests on N threads are bit-identical to the single-threaded
//! reference, and that all replicas and the cloud converge to the same
//! replicated state (CRDT merge is commutative, so delta arrival order at
//! the cloud doesn't matter).
//!
//! The main thread only keeps time: the window opens once every worker has
//! built its replicas and closes once every worker has served its last
//! request. A phase signal is a channel that carries no message, reached
//! when every sender is dropped — on purpose or by unwinding — so a thread
//! that dies never leaves another waiting (as it would at a `Barrier`);
//! `run` re-raises its panic, the cloud's first.
//!
//! ## Delta plumbing
//!
//! Workers batch CRDT deltas ([`SetSyncMessage`]) through one bounded
//! [`std::sync::mpsc::sync_channel`] to a cloud thread that owns the cloud
//! master replica and folds them while the workers serve; after the timed
//! window closes, workers flush their remaining deltas, the cloud folds
//! everything, and per-replica convergence deltas flow back over
//! per-worker bounded channels. The in-process channels are reliable, so
//! endpoints run in [`AdvanceMode::Optimistic`] (the loss-tolerant ack
//! protocol exists for the simulated WAN, which this executor does not
//! traverse).

use crate::cache::{CachePolicy, CacheStats};
use crate::crdtset::{SetClock, SetSyncMessage, SyncEndpoint};
use crate::driver::fold_response_digest;
use crate::replica::{cache_plan, Provisioner, ReplicaCore, ReplicaKind, ReplicaTemplate};
use edgstr_core::TransformationReport;
use edgstr_crdt::{ActorId, AdvanceMode};
use edgstr_net::{HttpRequest, FNV_OFFSET};
use edgstr_sim::{Clock, SimDuration};
use edgstr_telemetry::{RegistrySnapshot, Telemetry};
use std::convert::Infallible;
use std::sync::mpsc::{channel, sync_channel, Receiver, RecvError};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

/// Digest of a failed request in the per-request digest stream.
pub const FAILED_DIGEST: u64 = 0;

/// Bound of the delta and convergence channels (backpressure, not loss).
const CHANNEL_CAPACITY: usize = 256;

/// Tuning knobs for the parallel executor.
#[derive(Debug, Clone)]
pub struct ParallelOptions {
    /// Fixed replica count `R`; request `i` routes to replica `i % R`.
    /// Independent of the worker count so responses don't change when the
    /// thread count does.
    pub replicas: usize,
    /// Worker threads `T` (clamped to `R`); replica `r` is owned by
    /// worker `r % T`.
    pub workers: usize,
    /// Requests a replica serves between delta flushes to the cloud.
    pub sync_batch: usize,
    pub cache: CachePolicy,
    pub cache_budget_bytes: usize,
    /// Give each worker a private recording telemetry shard, folded into
    /// [`ParallelRunStats::telemetry`] at the end of the run.
    pub telemetry_shards: bool,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            replicas: 8,
            workers: 1,
            sync_batch: 16,
            cache: CachePolicy::Off,
            cache_budget_bytes: 256 * 1024,
            telemetry_shards: false,
        }
    }
}

/// Measurements from one parallel run.
#[derive(Debug, Clone, Default)]
pub struct ParallelRunStats {
    pub completed: usize,
    pub failed: usize,
    /// Real elapsed time of the serving window (every worker has built its
    /// replicas to the last worker serving its last request), measured by
    /// [`Clock::wall`]. Excludes replica construction and the untimed
    /// convergence flush.
    pub elapsed: SimDuration,
    /// Digest of each request's response in schedule order
    /// ([`FAILED_DIGEST`] for failed requests) — the differential unit.
    pub per_request_digests: Vec<u64>,
    /// FNV-1a chain over `per_request_digests`, one word per run.
    pub response_digest: u64,
    /// Digest of the replicated state (bound tables/files/globals) after
    /// the convergence flush; identical on every replica and the cloud
    /// when `converged`.
    pub state_digest: u64,
    /// All replicas and the cloud reached the same replicated state.
    pub converged: bool,
    /// Cache statistics folded over every replica.
    pub cache: CacheStats,
    /// Worker telemetry shards folded together (empty unless
    /// [`ParallelOptions::telemetry_shards`] and the `enabled` feature).
    pub telemetry: RegistrySnapshot,
    /// CRDT delta messages shipped worker→cloud.
    pub delta_messages: usize,
    pub workers: usize,
    pub replicas: usize,
}

impl ParallelRunStats {
    /// Completed requests per second of real elapsed time.
    pub fn throughput_rps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.completed as f64 / s
        } else {
            0.0
        }
    }
}

/// One worker-owned edge replica: all of this lives on a single thread.
struct OwnedReplica {
    /// The replica's index `r`: it serves request `i` when `i % R == r`.
    index: usize,
    core: ReplicaCore,
    to_cloud: SyncEndpoint,
    served_since_flush: usize,
}

impl OwnedReplica {
    /// The next delta for the cloud, if the replica has changes the cloud
    /// has not been sent.
    fn delta(&mut self) -> Option<Delta> {
        let (replica, msg) = (self.index, self.to_cloud.generate(&self.core.crdts));
        (!msg.changes.is_empty()).then_some(Delta { replica, msg })
    }
}

/// A delta shipped from a worker to the cloud thread.
struct Delta {
    replica: usize,
    msg: SetSyncMessage,
}

/// What one worker reports back when it finishes.
struct WorkerOutcome {
    completed: usize,
    failed: usize,
    /// `(schedule index, response digest)` for every request this worker
    /// served or failed.
    digests: Vec<(u32, u64)>,
    /// `(replica index, replicated-state digest)` after convergence.
    state_digests: Vec<(usize, u64)>,
    cache: CacheStats,
    telemetry: RegistrySnapshot,
}

/// Block until every sender of a phase signal (see the module docs) has
/// been dropped.
fn wait(phase: &Receiver<Infallible>) {
    let Err(RecvError) = phase.recv();
}

/// Join a thread, re-raising its panic as it was raised.
fn join<T>(thread: ScopedJoinHandle<'_, T>) -> T {
    thread
        .join()
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// The wall-clock parallel deployment: a cloud master thread plus `T`
/// worker threads owning `R` edge replicas between them.
pub struct ParallelSystem {
    template: Arc<ReplicaTemplate>,
    options: ParallelOptions,
}

impl ParallelSystem {
    pub fn new(
        cloud_source: &str,
        report: &TransformationReport,
        options: ParallelOptions,
    ) -> ParallelSystem {
        ParallelSystem {
            template: Arc::new(ReplicaTemplate::from_report(cloud_source, report)),
            options,
        }
    }

    pub fn options(&self) -> &ParallelOptions {
        &self.options
    }

    /// Execute `requests`, returning measurements. Request `i` is served
    /// by replica `i % R` in per-replica arrival order; see the module
    /// docs for why the responses are independent of the worker count.
    ///
    /// # Panics
    ///
    /// With the panic of a thread that died, e.g. because a program does
    /// not parse or throws during init.
    pub fn run(&self, requests: &[HttpRequest]) -> ParallelRunStats {
        let r_count = self.options.replicas.max(1);
        let t_count = self.options.workers.max(1).min(r_count);
        let batch = self.options.sync_batch.max(1);
        let template = &self.template;
        let options = &self.options;

        let mut stats = ParallelRunStats {
            workers: t_count,
            replicas: r_count,
            per_request_digests: vec![FAILED_DIGEST; requests.len()],
            ..ParallelRunStats::default()
        };

        let (outcomes, cloud_digest, delta_messages, elapsed) = std::thread::scope(|s| {
            // ready: every worker built its replicas, the timed window opens.
            // go (one per worker): the main thread started the clock.
            // done: every worker served its last request, the window closes.
            let (ready_tx, ready_rx) = channel::<Infallible>();
            let (go_txs, go_rxs): (Vec<_>, Vec<Receiver<Infallible>>) =
                (0..t_count).map(|_| channel()).unzip();
            let (done_tx, done_rx) = channel::<Infallible>();
            // delta channel: workers → cloud, shared
            let (delta_tx, delta_rx) = sync_channel::<Delta>(CHANNEL_CAPACITY);
            // convergence channels: cloud → worker
            let (back_txs, back_rxs): (Vec<_>, Vec<Receiver<(usize, SetSyncMessage)>>) =
                (0..t_count).map(|_| sync_channel(CHANNEL_CAPACITY)).unzip();

            // The cloud master thread: owns the cloud replica, folds every
            // incoming delta (CRDT merge is commutative, so arrival order
            // across workers doesn't matter), then emits per-replica
            // convergence deltas once all workers have flushed.
            let cloud = s.spawn({
                let template = Arc::clone(template);
                move || {
                    // nothing is forwarded to this master: it only folds
                    // deltas, so its cache gets no budget
                    let mut cloud = Provisioner::new(template, 0, &Telemetry::disabled())
                        .provision(ReplicaKind::Master, ActorId(1), None)
                        .expect("cloud program parses and initialises");
                    let mut endpoints: Vec<SyncEndpoint> = (0..r_count)
                        .map(|_| {
                            SyncEndpoint::starting(AdvanceMode::Optimistic, SetClock::default())
                        })
                        .collect();
                    let mut received = 0usize;
                    while let Ok(delta) = delta_rx.recv() {
                        endpoints[delta.replica].receive_owned(
                            &mut cloud.crdts,
                            &mut cloud.server,
                            delta.msg,
                        );
                        received += 1;
                    }
                    // every worker dropped its sender: all deltas are in.
                    for (r, endpoint) in endpoints.iter_mut().enumerate() {
                        let msg = endpoint.generate(&cloud.crdts);
                        // a worker that died dropped its receiver; `run`
                        // re-raises that worker's panic
                        let _ = back_txs[r % t_count].send((r, msg));
                    }
                    drop(back_txs);
                    (received, cloud.replicated_state_digest())
                }
            });

            let workers: Vec<_> = go_rxs
                .into_iter()
                .zip(back_rxs)
                .enumerate()
                .map(|(w, (go, back))| {
                    let template = Arc::clone(template);
                    let ready = ready_tx.clone();
                    let done = done_tx.clone();
                    let delta_tx = delta_tx.clone();
                    let policy = options.cache;
                    let budget = options.cache_budget_bytes;
                    let shards = options.telemetry_shards;
                    s.spawn(move || {
                        let telemetry = if shards {
                            Telemetry::recording()
                        } else {
                            Telemetry::disabled()
                        };
                        let counters = telemetry.registry().map(|reg| {
                            (
                                reg.counter(
                                    "edgstr_parallel_requests_total",
                                    &[("result", "completed")],
                                ),
                                reg.counter(
                                    "edgstr_parallel_requests_total",
                                    &[("result", "failed")],
                                ),
                            )
                        });
                        // Build this worker's replicas on this thread: the
                        // VM and its caches never cross a thread boundary.
                        // Replica `r` sits at `replicas[r / T]`.
                        let mut provisioner =
                            Provisioner::new(Arc::clone(&template), budget, &telemetry);
                        let mut replicas: Vec<OwnedReplica> = (w..r_count)
                            .step_by(t_count)
                            .map(|r| OwnedReplica {
                                index: r,
                                core: provisioner
                                    .provision(ReplicaKind::Edge, ActorId(2 + r as u64), None)
                                    .expect("replica program initialises"),
                                to_cloud: SyncEndpoint::starting(
                                    AdvanceMode::Optimistic,
                                    SetClock::default(),
                                ),
                                served_since_flush: 0,
                            })
                            .collect();
                        drop(provisioner); // a worker serves for a long time; the snapshot is spent
                        let mut outcome = WorkerOutcome {
                            completed: 0,
                            failed: 0,
                            digests: Vec::new(),
                            state_digests: Vec::new(),
                            cache: CacheStats::default(),
                            telemetry: RegistrySnapshot::default(),
                        };
                        drop(ready);
                        wait(&go);
                        // --- timed serving window: request `round·R + r`
                        // for each owned replica `r`, in schedule order ---
                        for (round, in_round) in requests.chunks(r_count).enumerate() {
                            for replica in replicas.iter_mut() {
                                let Some(request) = in_round.get(replica.index) else {
                                    break; // the last round is short
                                };
                                let index = (round * r_count + replica.index) as u32;
                                // Only replicated services are served: the
                                // executor has no WAN to forward the rest
                                // over (cloud-pinned services belong to the
                                // virtual-time driver), so they fail
                                // deterministically, as a handler error does.
                                let key = (request.verb, request.path.clone());
                                let served = if template.replicated.contains(&key) {
                                    let summary = template.effects.get(&key);
                                    let plan = cache_plan(policy, summary, request);
                                    replica
                                        .core
                                        .serve(request, summary, plan.as_ref(), &None)
                                        .ok()
                                } else {
                                    None
                                };
                                match served {
                                    Some(served) => {
                                        outcome.completed += 1;
                                        outcome.digests.push((index, served.response.digest()));
                                        if let Some((completed, _)) = &counters {
                                            completed.inc();
                                        }
                                    }
                                    None => {
                                        outcome.failed += 1;
                                        outcome.digests.push((index, FAILED_DIGEST));
                                        if let Some((_, failed)) = &counters {
                                            failed.inc();
                                        }
                                    }
                                }
                                replica.served_since_flush += 1;
                                if replica.served_since_flush >= batch {
                                    replica.served_since_flush = 0;
                                    if let Some(delta) = replica.delta() {
                                        delta_tx.send(delta).expect("cloud alive");
                                    }
                                }
                            }
                        }
                        drop(done);
                        // --- untimed convergence flush ---
                        for replica in replicas.iter_mut() {
                            if let Some(delta) = replica.delta() {
                                delta_tx.send(delta).expect("cloud alive");
                            }
                        }
                        drop(delta_tx); // cloud's recv loop ends when all workers flush
                        while let Ok((r, msg)) = back.recv() {
                            let replica = &mut replicas[r / t_count];
                            replica.to_cloud.receive_owned(
                                &mut replica.core.crdts,
                                &mut replica.core.server,
                                msg,
                            );
                        }
                        for replica in &replicas {
                            outcome
                                .state_digests
                                .push((replica.index, replica.core.replicated_state_digest()));
                            outcome.cache.absorb(replica.core.cache.stats());
                        }
                        if let Some(reg) = telemetry.registry() {
                            outcome.telemetry = reg.snapshot();
                        }
                        outcome
                    })
                })
                .collect();
            drop((ready_tx, done_tx, delta_tx));

            wait(&ready_rx);
            let clock = Clock::wall();
            drop(go_txs);
            wait(&done_rx);
            let elapsed = clock.elapsed();

            // a dead cloud fails the workers that ship to it: report it first
            let (received, cloud_digest) = join(cloud);
            let outcomes: Vec<WorkerOutcome> = workers.into_iter().map(join).collect();
            (outcomes, cloud_digest, received, elapsed)
        });

        stats.elapsed = elapsed;
        stats.delta_messages = delta_messages;
        let mut all_states: Vec<(usize, u64)> = Vec::with_capacity(r_count);
        for outcome in outcomes {
            stats.completed += outcome.completed;
            stats.failed += outcome.failed;
            for (index, digest) in outcome.digests {
                stats.per_request_digests[index as usize] = digest;
            }
            all_states.extend(outcome.state_digests);
            stats.cache.absorb(&outcome.cache);
            stats.telemetry.merge(&outcome.telemetry);
        }
        stats.state_digest = cloud_digest;
        stats.converged = all_states.iter().all(|(_, d)| *d == cloud_digest);
        stats.response_digest = stats
            .per_request_digests
            .iter()
            .fold(FNV_OFFSET, |chain, &d| fold_response_digest(chain, d));
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_core::{capture_and_transform, EdgStrConfig};
    use serde_json::json;

    /// Compile-time Send audit: everything that crosses a thread boundary
    /// in the executor must be `Send`. The VM side (`ServerProcess`,
    /// `Vm`, `Value`) is deliberately *not* here — it is thread-owned and
    /// built per-thread from [`ReplicaTemplate`], whose `Send` covers the
    /// program, bindings, init seed and effect summaries it carries.
    #[test]
    fn parallel_plumbing_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ReplicaTemplate>();
        assert_send::<Arc<ReplicaTemplate>>();
        assert_send::<SetSyncMessage>();
        assert_send::<crate::ResponseCache>();
        assert_send::<CacheStats>();
        assert_send::<RegistrySnapshot>();
        assert_send::<ParallelRunStats>();
        assert_send::<HttpRequest>();
        assert_send::<edgstr_net::HttpResponse>();
        assert_send::<crate::CrdtSet>();
        // one change record is held by the worker's log, the delta in the
        // channel and the cloud's log at once
        fn assert_shared<T: Send + Sync>() {}
        assert_shared::<edgstr_crdt::Change>();
    }

    const APP: &str = r#"
        db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
        var written = 0;
        app.post("/note", function (req, res) {
            written = written + 1;
            db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
            res.send({ n: written });
        });
        app.get("/count", function (req, res) {
            var rows = db.query("SELECT COUNT(*) FROM notes");
            res.send(rows[0]);
        });
    "#;

    fn transformed() -> TransformationReport {
        let reqs = vec![
            HttpRequest::post("/note", json!({"id": 900, "text": "warm"}), vec![]),
            HttpRequest::get("/count", json!({})),
        ];
        capture_and_transform(APP, &reqs, &EdgStrConfig::default())
            .unwrap()
            .0
    }

    fn workload(n: usize) -> Vec<HttpRequest> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    HttpRequest::post("/note", json!({"id": i, "text": format!("t{i}")}), vec![])
                } else {
                    HttpRequest::get("/count", json!({}))
                }
            })
            .collect()
    }

    #[test]
    fn thread_count_does_not_change_responses_or_state() {
        let report = transformed();
        let requests = workload(60);
        let opts = |workers| ParallelOptions {
            replicas: 4,
            workers,
            sync_batch: 4,
            cache: CachePolicy::All,
            ..ParallelOptions::default()
        };
        let reference = ParallelSystem::new(APP, &report, opts(1)).run(&requests);
        assert_eq!(reference.completed, 60);
        assert_eq!(reference.failed, 0);
        assert!(reference.converged, "replicas and cloud converge");
        for workers in [2, 4] {
            let run = ParallelSystem::new(APP, &report, opts(workers)).run(&requests);
            assert_eq!(run.workers, workers);
            assert_eq!(
                run.per_request_digests, reference.per_request_digests,
                "{workers}-thread responses must be digest-identical to the reference"
            );
            assert_eq!(run.response_digest, reference.response_digest);
            assert_eq!(run.state_digest, reference.state_digest);
            assert!(run.converged);
        }
    }

    #[test]
    fn worker_count_clamps_to_replicas_and_routes_all_requests() {
        let report = transformed();
        let requests = workload(10);
        let run = ParallelSystem::new(
            APP,
            &report,
            ParallelOptions {
                replicas: 2,
                workers: 8,
                ..ParallelOptions::default()
            },
        )
        .run(&requests);
        assert_eq!(run.workers, 2, "workers clamp to the replica count");
        assert_eq!(run.completed + run.failed, 10);
        assert_eq!(run.per_request_digests.len(), 10);
        assert!(run.throughput_rps() > 0.0);
    }

    #[test]
    fn telemetry_shards_fold_to_request_totals() {
        let report = transformed();
        let requests = workload(24);
        let run = ParallelSystem::new(
            APP,
            &report,
            ParallelOptions {
                replicas: 4,
                workers: 2,
                telemetry_shards: true,
                cache: CachePolicy::All,
                ..ParallelOptions::default()
            },
        )
        .run(&requests);
        if run.telemetry.is_empty() {
            return; // telemetry compiled out (--no-default-features)
        }
        let completed = run
            .telemetry
            .counter_value("edgstr_parallel_requests_total", &[("result", "completed")]);
        let failed = run
            .telemetry
            .counter_value("edgstr_parallel_requests_total", &[("result", "failed")]);
        assert_eq!(completed as usize, run.completed);
        assert_eq!(failed as usize, run.failed);
        // cache events recorded per worker shard fold to the CacheStats sums
        let hits = run
            .telemetry
            .counter_value("edgstr_cache_events_total", &[("op", "hit")]);
        assert_eq!(hits, run.cache.hits);
    }

    /// The timed window holds the serving, up to the *last* worker's last
    /// request. Worker 0 spins through CPU-bound requests while worker 1
    /// fails each of its own at once, so a window closed by the first
    /// worker to finish, or not waiting for the workers at all, holds next
    /// to none of the run.
    #[test]
    fn the_window_closes_when_the_last_worker_finishes() {
        const SPIN: &str = r#"
            app.get("/spin", function (req, res) {
                var n = 0;
                for (var i = 0; i < 20000; i = i + 1) { n = n + i; }
                res.send({ n: n });
            });
        "#;
        let report = capture_and_transform(
            SPIN,
            &[HttpRequest::get("/spin", json!({}))],
            &EdgStrConfig::default(),
        )
        .unwrap()
        .0;
        let requests: Vec<HttpRequest> = (0..24)
            .map(|i| HttpRequest::get(if i % 2 == 0 { "/spin" } else { "/nope" }, json!({})))
            .collect();
        for workers in [1, 2] {
            let options = ParallelOptions {
                replicas: 2,
                workers,
                ..ParallelOptions::default()
            };
            let system = ParallelSystem::new(SPIN, &report, options);
            let started = std::time::Instant::now();
            let run = system.run(&requests);
            let wall = started.elapsed();
            assert_eq!((run.completed, run.failed), (12, 12));
            assert!(
                run.elapsed.as_secs_f64() * 2.0 >= wall.as_secs_f64(),
                "{workers} workers: a window of {:?} in a run of {wall:?}",
                run.elapsed
            );
        }
    }

    #[test]
    fn non_replicated_requests_fail_deterministically() {
        let report = transformed();
        let requests = vec![HttpRequest::get("/nope", json!({}))];
        let run = ParallelSystem::new(APP, &report, ParallelOptions::default()).run(&requests);
        assert_eq!(run.completed, 0);
        assert_eq!(run.failed, 1);
        assert_eq!(run.per_request_digests, vec![FAILED_DIGEST]);
    }
}
