//! Wall-clock parallel serving: a multi-threaded edge executor with
//! per-replica state ownership.
//!
//! The virtual-time drivers ([`crate::ThreeTierSystem`]) execute every
//! request on one host thread and *simulate* concurrency; throughput is a
//! simulated number. This module is the real-time sibling: it runs under
//! [`Clock::Wall`] and puts each edge replica's entire serving state — VM,
//! CRDT set, response cache — on exactly one worker thread, so the serve
//! hot path takes **no locks and touches no shared mutable state**.
//!
//! ## Ownership model
//!
//! The deployment has a fixed replica count `R` (independent of the thread
//! count). Request `i` routes to replica `i % R`, and replica `r` is owned
//! by worker `r % T` for `T` worker threads. Ownership is *static* by
//! design: the VM and its SQL statement cache are deliberately
//! thread-owned (`Rc` interiors — see the Send audit in
//! `edgstr-lang/src/vm.rs`), so replicas cannot migrate between threads
//! mid-run, and request-granular stealing across replicas would reorder a
//! replica's request stream and break determinism. With uniform routing
//! the per-worker queues are balanced by construction, which is what a
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
//! ## Delta plumbing
//!
//! Workers batch CRDT deltas ([`SetSyncMessage`]) through a bounded
//! [`std::sync::mpsc::sync_channel`] to a dedicated cloud thread that owns
//! the cloud master replica; after the timed window closes, workers flush
//! their remaining deltas, the cloud folds everything, and per-replica
//! convergence deltas flow back over per-worker bounded channels. The
//! in-process channels are reliable, so endpoints run in
//! [`AdvanceMode::Optimistic`] (the loss-tolerant ack protocol exists for
//! the simulated WAN, which this executor does not traverse).

use crate::cache::{
    bump_static_global_writes, resolve_reads, CacheKey, CachePolicy, CacheStats, ResponseCache,
    UnitKey,
};
use crate::crdtset::{CrdtSet, SetSyncMessage, SyncEndpoint};
use edgstr_analysis::{EffectSummary, InitSeed, InitState, ServerProcess, StateUnit};
use edgstr_core::{CrdtBindings, TransformationReport};
use edgstr_crdt::{ActorId, AdvanceMode};
use edgstr_lang::Program;
use edgstr_net::{fnv1a, HttpRequest, Verb, FNV_OFFSET};
use edgstr_sim::{Clock, SimDuration};
use edgstr_telemetry::{RegistrySnapshot, Telemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Barrier};

/// Digest of a failed request in the per-request digest stream.
pub const FAILED_DIGEST: u64 = 0;

/// Everything a worker thread needs to build its replicas locally: plain
/// data, `Send + Sync`, shared via one `Arc`. Workers construct the
/// non-`Send` runtime state (VM, statement caches) *from* this seed on
/// their own thread — per-thread construction is the pool model the Send
/// audit settled on.
#[derive(Debug, Clone)]
pub struct ReplicaSeed {
    pub program: Program,
    pub bindings: CrdtBindings,
    /// Send-safe init snapshot ([`edgstr_lang::Value`]s are thread-owned — see
    /// [`InitSeed`]); each worker rebuilds a thread-local [`InitState`].
    pub init: InitSeed,
    /// Services the replica executes locally; everything else fails
    /// deterministically (the parallel executor has no WAN to forward
    /// over — cloud-pinned services belong to the virtual-time drivers).
    pub replicated: BTreeSet<(Verb, String)>,
    /// Per-service effect summaries: the cache's read/write sets.
    pub effects: BTreeMap<(Verb, String), EffectSummary>,
}

impl ReplicaSeed {
    /// Extract the seed from a transformation report.
    pub fn from_report(report: &TransformationReport) -> ReplicaSeed {
        ReplicaSeed {
            program: report.replica.program.clone(),
            bindings: report.replica.bindings.clone(),
            init: InitSeed::from_state(&report.replica.init),
            replicated: report.replica.replicated.iter().cloned().collect(),
            effects: report
                .services
                .iter()
                .filter_map(|s| {
                    s.profile
                        .as_ref()
                        .map(|p| ((s.verb, s.path.clone()), p.effects.clone()))
                })
                .collect(),
        }
    }
}

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
    /// Bound of the job and delta channels (backpressure, not loss).
    pub channel_capacity: usize,
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
            channel_capacity: 256,
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
    /// Real elapsed time of the serving window (dispatch of the first
    /// request to the last worker draining its queue), measured by
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

/// Cache participation of one request (the parallel twin of the
/// virtual-time driver's plan: key, concrete read units, fill gates).
struct CachePlan {
    key: CacheKey,
    reads: Vec<UnitKey>,
    globals_clean: bool,
}

fn cache_plan(seed: &ReplicaSeed, policy: CachePolicy, request: &HttpRequest) -> Option<CachePlan> {
    if policy == CachePolicy::Off {
        return None;
    }
    let summary = seed.effects.get(&(request.verb, request.path.clone()))?;
    if !summary.cacheable {
        return None;
    }
    if policy == CachePolicy::ReadOnlyServices && !summary.pure {
        return None;
    }
    Some(CachePlan {
        key: CacheKey::for_request(request),
        reads: resolve_reads(summary, request),
        globals_clean: !summary
            .writes
            .iter()
            .any(|w| matches!(w, StateUnit::Global(_))),
    })
}

/// One worker-owned edge replica: all of this lives on a single thread.
struct OwnedReplica {
    server: ServerProcess,
    crdts: CrdtSet,
    to_cloud: SyncEndpoint,
    cache: ResponseCache,
    served_since_flush: usize,
}

impl OwnedReplica {
    fn build(seed: &ReplicaSeed, actor: u64, budget: usize, telemetry: &Telemetry) -> OwnedReplica {
        let init: InitState = seed.init.to_state();
        let mut server = ServerProcess::from_program(seed.program.clone());
        server.init().expect("replica program init");
        init.restore(&mut server);
        OwnedReplica {
            server,
            crdts: CrdtSet::initialize(ActorId(actor), &seed.bindings, &init),
            to_cloud: SyncEndpoint {
                mode: AdvanceMode::Optimistic,
                ..SyncEndpoint::new()
            },
            cache: ResponseCache::new(budget, telemetry),
            served_since_flush: 0,
        }
    }

    /// Serve one request on the owning thread: cache lookup, execute,
    /// absorb effects into the CRDT set, effect-free fill. Returns the
    /// response digest, or `None` for a failed (non-replicated or
    /// erroring) request. Mirrors the local-serve path of
    /// [`crate::ThreeTierSystem::run`] minus the simulated network/device.
    fn serve(
        &mut self,
        seed: &ReplicaSeed,
        policy: CachePolicy,
        request: &HttpRequest,
    ) -> Option<u64> {
        let key = (request.verb, request.path.clone());
        if !seed.replicated.contains(&key) {
            return None;
        }
        let plan = cache_plan(seed, policy, request);
        if let Some(p) = &plan {
            if let Some(response) = self.cache.lookup(&p.key, &self.crdts.versions) {
                return Some(response.digest());
            }
        }
        match self.server.handle(request) {
            Ok(out) => {
                self.crdts.absorb_outcome(&out, &self.server);
                if policy != CachePolicy::Off {
                    bump_static_global_writes(&mut self.crdts.versions, seed.effects.get(&key));
                }
                if let Some(p) = &plan {
                    // only a demonstrably effect-free execution may fill
                    let effect_free = out.row_effects.is_empty()
                        && out.file_writes.is_empty()
                        && out.global_writes.is_empty()
                        && p.globals_clean;
                    if effect_free {
                        let stamp = self.crdts.versions.snapshot(&p.reads);
                        self.cache.fill(p.key.clone(), &out.response, stamp);
                    }
                }
                Some(out.response.digest())
            }
            Err(_) => {
                self.crdts.revert_failed_writes(&mut self.server);
                None
            }
        }
    }
}

/// Digest of the *replicated* state units (bound tables, files, globals)
/// materialized in `server`. Non-replicated state is deliberately excluded
/// — it is local to whichever replica happened to write it.
fn replicated_state_digest(bindings: &CrdtBindings, server: &ServerProcess) -> u64 {
    let db = server.db.snapshot().to_json();
    let mut h = FNV_OFFSET;
    for t in &bindings.tables {
        h = fnv1a(h, t.as_bytes());
        let rows = db.get(t).map(|v| v.to_string()).unwrap_or_default();
        h = fnv1a(h, rows.as_bytes());
    }
    for f in &bindings.files {
        h = fnv1a(h, f.as_bytes());
        h = fnv1a(h, server.fs.peek(f).unwrap_or(&[]));
    }
    for g in &bindings.globals {
        h = fnv1a(h, g.as_bytes());
        let v = server
            .global_json(g)
            .map(|v| v.to_string())
            .unwrap_or_default();
        h = fnv1a(h, v.as_bytes());
    }
    h
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
    deltas_sent: usize,
}

/// The wall-clock parallel deployment: a cloud master thread plus `T`
/// worker threads owning `R` edge replicas between them.
pub struct ParallelSystem {
    cloud_source: String,
    seed: Arc<ReplicaSeed>,
    options: ParallelOptions,
}

impl ParallelSystem {
    pub fn new(
        cloud_source: &str,
        report: &TransformationReport,
        options: ParallelOptions,
    ) -> ParallelSystem {
        ParallelSystem {
            cloud_source: cloud_source.to_string(),
            seed: Arc::new(ReplicaSeed::from_report(report)),
            options,
        }
    }

    pub fn options(&self) -> &ParallelOptions {
        &self.options
    }

    /// Execute `requests`, returning measurements. Request `i` is served
    /// by replica `i % R` in per-replica arrival order; see the module
    /// docs for why the responses are independent of the worker count.
    pub fn run(&self, requests: &[HttpRequest]) -> ParallelRunStats {
        let r_count = self.options.replicas.max(1);
        let t_count = self.options.workers.max(1).min(r_count);
        let batch = self.options.sync_batch.max(1);
        let cap = self.options.channel_capacity.max(1);
        let seed = &self.seed;
        let options = &self.options;
        let cloud_source = self.cloud_source.as_str();

        // start: all workers built their replicas, the timed window opens.
        // drained: every worker emptied its queue, the window closes.
        let start = Barrier::new(t_count + 1);
        let drained = Barrier::new(t_count + 1);

        let mut stats = ParallelRunStats {
            workers: t_count,
            replicas: r_count,
            per_request_digests: vec![FAILED_DIGEST; requests.len()],
            ..ParallelRunStats::default()
        };

        let (outcomes, cloud_digest, delta_messages, elapsed) = std::thread::scope(|s| {
            // job channels: main → worker, bounded for backpressure
            let mut job_txs: Vec<SyncSender<(u32, HttpRequest)>> = Vec::with_capacity(t_count);
            let mut job_rxs: Vec<Receiver<(u32, HttpRequest)>> = Vec::with_capacity(t_count);
            for _ in 0..t_count {
                let (tx, rx) = sync_channel(cap);
                job_txs.push(tx);
                job_rxs.push(rx);
            }
            // delta channel: workers → cloud, shared
            let (delta_tx, delta_rx) = sync_channel::<Delta>(cap);
            // convergence channels: cloud → worker
            let mut back_txs: Vec<SyncSender<(usize, SetSyncMessage)>> =
                Vec::with_capacity(t_count);
            let mut back_rxs: Vec<Receiver<(usize, SetSyncMessage)>> = Vec::with_capacity(t_count);
            for _ in 0..t_count {
                let (tx, rx) = sync_channel(cap);
                back_txs.push(tx);
                back_rxs.push(rx);
            }

            // The cloud master thread: owns the cloud replica, folds every
            // incoming delta (CRDT merge is commutative, so arrival order
            // across workers doesn't matter), then emits per-replica
            // convergence deltas once all workers have flushed.
            let cloud = s.spawn({
                let seed = Arc::clone(seed);
                move || {
                    let init: InitState = seed.init.to_state();
                    let mut server =
                        ServerProcess::from_source(cloud_source).expect("cloud source parses");
                    server.init().expect("cloud init");
                    init.restore(&mut server);
                    let mut crdts = CrdtSet::initialize(ActorId(1), &seed.bindings, &init);
                    let mut endpoints: Vec<SyncEndpoint> = (0..r_count)
                        .map(|_| SyncEndpoint {
                            mode: AdvanceMode::Optimistic,
                            ..SyncEndpoint::new()
                        })
                        .collect();
                    let mut received = 0usize;
                    while let Ok(delta) = delta_rx.recv() {
                        endpoints[delta.replica].receive_owned(&mut crdts, &mut server, delta.msg);
                        received += 1;
                    }
                    // every worker dropped its sender: all deltas are in.
                    for (r, endpoint) in endpoints.iter_mut().enumerate() {
                        let msg = endpoint.generate(&crdts);
                        back_txs[r % t_count]
                            .send((r, msg))
                            .expect("worker awaits convergence delta");
                    }
                    drop(back_txs);
                    (received, replicated_state_digest(&seed.bindings, &server))
                }
            });

            let workers: Vec<_> = job_rxs
                .into_iter()
                .zip(back_rxs)
                .enumerate()
                .map(|(w, (jobs, back))| {
                    let seed = Arc::clone(seed);
                    let delta_tx = delta_tx.clone();
                    let start = &start;
                    let drained = &drained;
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
                        let owned: Vec<usize> = (0..r_count).filter(|r| r % t_count == w).collect();
                        let mut replicas: BTreeMap<usize, OwnedReplica> = owned
                            .iter()
                            .map(|&r| {
                                (
                                    r,
                                    OwnedReplica::build(&seed, 2 + r as u64, budget, &telemetry),
                                )
                            })
                            .collect();
                        let mut outcome = WorkerOutcome {
                            completed: 0,
                            failed: 0,
                            digests: Vec::new(),
                            state_digests: Vec::new(),
                            cache: CacheStats::default(),
                            telemetry: RegistrySnapshot::default(),
                            deltas_sent: 0,
                        };
                        start.wait();
                        // --- timed serving window ---
                        while let Ok((index, request)) = jobs.recv() {
                            let r = index as usize % r_count;
                            let replica = replicas.get_mut(&r).expect("statically owned replica");
                            match replica.serve(&seed, policy, &request) {
                                Some(digest) => {
                                    outcome.completed += 1;
                                    outcome.digests.push((index, digest));
                                    if let Some((done, _)) = &counters {
                                        done.inc();
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
                                let msg = replica.to_cloud.generate(&replica.crdts);
                                if !msg.changes.is_empty() {
                                    delta_tx
                                        .send(Delta { replica: r, msg })
                                        .expect("cloud alive");
                                    outcome.deltas_sent += 1;
                                }
                            }
                        }
                        drained.wait();
                        // --- untimed convergence flush ---
                        for (&r, replica) in replicas.iter_mut() {
                            let msg = replica.to_cloud.generate(&replica.crdts);
                            if !msg.changes.is_empty() {
                                delta_tx
                                    .send(Delta { replica: r, msg })
                                    .expect("cloud alive");
                                outcome.deltas_sent += 1;
                            }
                        }
                        drop(delta_tx); // cloud's recv loop ends when all workers flush
                        while let Ok((r, msg)) = back.recv() {
                            let replica = replicas.get_mut(&r).expect("statically owned replica");
                            replica.to_cloud.receive_owned(
                                &mut replica.crdts,
                                &mut replica.server,
                                msg,
                            );
                        }
                        for (&r, replica) in replicas.iter() {
                            outcome.state_digests.push((
                                r,
                                replicated_state_digest(&seed.bindings, &replica.server),
                            ));
                            outcome.cache.absorb(replica.cache.stats());
                        }
                        if let Some(reg) = telemetry.registry() {
                            outcome.telemetry = reg.snapshot();
                        }
                        outcome
                    })
                })
                .collect();
            drop(delta_tx);

            start.wait();
            let clock = Clock::wall();
            for (i, request) in requests.iter().enumerate() {
                let w = (i % r_count) % t_count;
                job_txs[w]
                    .send((i as u32, request.clone()))
                    .expect("worker alive");
            }
            drop(job_txs); // workers drain and hit the `drained` barrier
            drained.wait();
            let elapsed = clock.elapsed();

            let outcomes: Vec<WorkerOutcome> = workers
                .into_iter()
                .map(|h| h.join().expect("worker thread"))
                .collect();
            let (received, cloud_digest) = cloud.join().expect("cloud thread");
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
        let mut chain = FNV_OFFSET;
        for d in &stats.per_request_digests {
            chain = fnv1a(chain, &d.to_le_bytes());
        }
        stats.response_digest = chain;
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
    /// built per-thread from [`ReplicaSeed`].
    #[test]
    fn parallel_plumbing_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ReplicaSeed>();
        assert_send::<Arc<ReplicaSeed>>();
        assert_send::<SetSyncMessage>();
        assert_send::<ResponseCache>();
        assert_send::<CacheStats>();
        assert_send::<RegistrySnapshot>();
        assert_send::<ParallelRunStats>();
        assert_send::<HttpRequest>();
        assert_send::<edgstr_net::HttpResponse>();
        assert_send::<Program>();
        assert_send::<CrdtBindings>();
        assert_send::<InitSeed>();
        assert_send::<EffectSummary>();
        assert_send::<CrdtSet>();
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

    /// The threaded serve path puts back what a failed handler wrote: the
    /// request after it reads the table as if it had never run, and the
    /// replica still converges with the cloud.
    #[test]
    fn failed_handler_after_write_leaves_no_row() {
        const FAILING_APP: &str = r#"
            db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
            app.post("/note", function (req, res) {
                db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
                if (req.body.text == "boom") {
                    fs.readFile("/no/such/file");
                }
                res.send({ ok: req.body.id });
            });
            app.get("/count", function (req, res) {
                var rows = db.query("SELECT COUNT(*) FROM notes");
                res.send(rows[0]);
            });
        "#;
        let note = |id: u64, text: &str| {
            HttpRequest::post("/note", json!({"id": id, "text": text}), vec![])
        };
        let count = HttpRequest::get("/count", json!({}));
        let report = capture_and_transform(
            FAILING_APP,
            &[note(900, "warm"), count.clone()],
            &EdgStrConfig::default(),
        )
        .unwrap()
        .0;
        let run = |requests: &[HttpRequest]| {
            let opts = ParallelOptions {
                replicas: 1,
                workers: 1,
                ..ParallelOptions::default()
            };
            ParallelSystem::new(FAILING_APP, &report, opts).run(requests)
        };
        let clean = run(&[note(1, "a"), count.clone()]);
        let failed = run(&[note(1, "a"), note(2, "boom"), count]);
        assert_eq!((failed.completed, failed.failed), (2, 1));
        assert_eq!(failed.per_request_digests[1], FAILED_DIGEST);
        assert_eq!(failed.per_request_digests[2], clean.per_request_digests[1]);
        assert!(failed.converged);
        assert_eq!(failed.state_digest, clean.state_digest);
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
