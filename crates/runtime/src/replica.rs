//! One replica, one serve pipeline.
//!
//! In the paper every node — the cloud master and each edge — is the same
//! thing: a server process initialised from one shared snapshot (§III-G)
//! that serves a request, turns the state change into CRDT operations and
//! syncs in the background (§III-F). [`ReplicaCore`] is that thing, once:
//! the VM, its CRDT set and its response cache, provisioned by one
//! [`Provisioner`] and serving through one pipeline. The virtual-time driver's edges, its
//! cloud master and warm standby, and the threaded executor's replicas
//! and cloud thread all hold cores; what differs between them — devices,
//! links, retries, failover, threads — lives in the drivers.
//!
//! ## The serve contract
//!
//! [`ReplicaCore::serve`] is [`ReplicaCore::lookup`] and, on a miss,
//! [`ReplicaCore::execute`]. Execution runs, in this order:
//!
//! 1. the handler (attributed to source statements when profiling);
//! 2. on failure, [`CrdtSet::revert_failed_writes`] — the rows the failed
//!    handler wrote go back to their replicated state before the replica
//!    serves again — and the error is returned;
//! 3. [`CrdtSet::absorb_outcome`]: the state change becomes CRDT
//!    operations and version bumps;
//! 4. [`bump_static_global_writes`]: the global writes an outcome cannot
//!    show;
//! 5. the injected [`BitFlipCorruptor`], if any: the state was absorbed
//!    intact, the response this replica serves (and caches) is corrupt;
//! 6. the fill, only when the execution was demonstrably effect-free and
//!    the service's profile writes no global — and only when the plan's
//!    stamp covers every SQL read the execution made
//!    ([`stamp_covers`]); otherwise the fill is refused
//!    ([`ResponseCache::refuse`]), because the profile the stamp came from
//!    missed a read a later write could change unseen.

use crate::cache::{
    bump_static_global_writes, resolve_reads, stamp_covers, CacheKey, CachePolicy, ResponseCache,
    UnitKey, CACHE_HIT_CYCLES,
};
use crate::crdtset::CrdtSet;
use edgstr_analysis::{
    EffectSummary, ExecMode, HandleOutcome, InitSeed, InitState, ServerError, ServerProcess,
    StateUnit,
};
use edgstr_core::{CrdtBindings, TransformationReport};
use edgstr_crdt::ActorId;
use edgstr_lang::Program;
use edgstr_net::{fnv1a, HttpRequest, HttpResponse, Verb, FNV_OFFSET};
use edgstr_sim::DetRng;
use edgstr_sql::SqlValue;
use edgstr_telemetry::{StmtProfiler, Telemetry};
use serde_json::Value as Json;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;

/// `h` folded over `rows`: their number, then each row's cells in the
/// order of those bytes (a set, whatever order the table keeps). A cell is
/// its kind's tag, then its value's length and bytes (a `REAL`'s bits).
fn fold_rows(h: u64, rows: &[Vec<SqlValue>]) -> u64 {
    let mut encoded: Vec<Vec<u8>> = rows
        .iter()
        .map(|row| {
            let mut out = Vec::new();
            for cell in row {
                let (tag, bytes) = match cell {
                    SqlValue::Null => (0, &[][..]),
                    SqlValue::Int(i) => (1, &i.to_le_bytes()[..]),
                    SqlValue::Real(r) => (2, &r.to_bits().to_le_bytes()[..]),
                    SqlValue::Text(s) => (3, s.as_bytes()),
                    SqlValue::Blob(b) => (4, &b[..]),
                };
                out.push(tag);
                out.extend((bytes.len() as u64).to_le_bytes());
                out.extend(bytes);
            }
            out
        })
        .collect();
    encoded.sort_unstable();
    let h = fnv1a(h, &(rows.len() as u64).to_le_bytes());
    encoded.iter().fold(h, |h, row| fnv1a(h, row))
}

/// Everything needed to provision a replica of one deployment: plain
/// data, `Send + Sync`, shared by reference. The non-`Send` runtime state
/// (VM, statement caches) is built *from* it on the thread that will own
/// the replica.
#[derive(Debug, Clone)]
pub struct ReplicaTemplate {
    /// Original server source: the program the cloud master runs.
    pub cloud_source: String,
    /// Generated replica program: what an edge runs.
    pub program: Program,
    pub bindings: CrdtBindings,
    /// Send-safe init snapshot ([`edgstr_lang::Value`]s are thread-owned —
    /// see [`InitSeed`]); each owning thread rebuilds one [`InitState`]
    /// and provisions all its replicas from that.
    pub init: InitSeed,
    /// Services the report replicated to the edge.
    pub replicated: BTreeSet<(Verb, String)>,
    /// Per-service effect summaries from profiling: the cache's read and
    /// write sets.
    pub effects: BTreeMap<(Verb, String), EffectSummary>,
}

impl ReplicaTemplate {
    /// Extract the template from a transformation report.
    pub fn from_report(cloud_source: &str, report: &TransformationReport) -> ReplicaTemplate {
        ReplicaTemplate {
            cloud_source: cloud_source.to_string(),
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

/// Which of the template's programs a replica runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicaKind {
    /// The original server program (cloud master, warm standby).
    Master,
    /// The generated replica program.
    Edge,
}

/// Cache participation of one request, resolved before the replica is
/// borrowed: the canonical entry key, the request's concrete read-unit
/// keys, and the write-set facts that gate filling and forward-skipping.
#[derive(Debug)]
pub struct CachePlan {
    pub key: CacheKey,
    pub reads: Vec<UnitKey>,
    /// No static global writes in the profile — required to fill, because
    /// mutations of existing unbound globals are invisible in a concrete
    /// [`HandleOutcome`].
    pub globals_clean: bool,
    /// No writes of any kind in the profile.
    pub pure: bool,
}

/// Resolve the cache participation of one request to the service profiled
/// as `summary`: `None` means the request bypasses the caches entirely.
pub fn cache_plan(
    policy: CachePolicy,
    summary: Option<&EffectSummary>,
    request: &HttpRequest,
) -> Option<CachePlan> {
    if policy == CachePolicy::Off {
        return None;
    }
    let summary = summary.filter(|s| s.cacheable)?;
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
        pure: summary.pure,
    })
}

/// Injected faulty VM variant: flips a bit in a replica's responses with a
/// seeded probability (the fault the multi-variant check is benched
/// against). Mutates the served response only — never the stored state.
#[derive(Debug, Clone)]
pub struct BitFlipCorruptor {
    rng: DetRng,
    flip_prob: f64,
    /// Responses corrupted so far.
    pub flips: u64,
}

impl BitFlipCorruptor {
    /// A corruptor flipping a bit in each response with `flip_prob`.
    pub fn new(seed: u64, flip_prob: f64) -> BitFlipCorruptor {
        BitFlipCorruptor {
            rng: DetRng::new(seed),
            flip_prob,
            flips: 0,
        }
    }

    /// Maybe corrupt one response; returns whether a bit was flipped.
    pub fn corrupt(&mut self, resp: &mut HttpResponse) -> bool {
        if !self.rng.chance(self.flip_prob) {
            return false;
        }
        let bit = self.rng.below(8) as u32;
        // a flipped body is a new body: nothing remembered about the
        // intact one (size, text, digest) may describe the corrupt one
        let mut flipped = Json::clone(&resp.body);
        if flip_first_int(&mut flipped, bit) {
            resp.body = flipped.into();
        } else {
            resp.status ^= 1;
        }
        self.flips += 1;
        true
    }
}

/// Flip `bit` in the first integer leaf found in `v`, depth-first.
fn flip_first_int(v: &mut Json, bit: u32) -> bool {
    match v {
        Json::Number(n) => {
            if let Some(i) = n.as_i64() {
                *v = Json::from(i ^ (1i64 << bit));
                true
            } else {
                false
            }
        }
        Json::Array(items) => items.iter_mut().any(|item| flip_first_int(item, bit)),
        Json::Object(map) => map.values_mut().any(|item| flip_first_int(item, bit)),
        _ => false,
    }
}

/// Handle one request, attributing VM cycles/allocations to source
/// statements when a profiler is attached (the uninstrumented path is the
/// plain [`ServerProcess::handle`]).
pub(crate) fn handle_profiled(
    server: &mut ServerProcess,
    request: &HttpRequest,
    profiler: &Option<Rc<RefCell<StmtProfiler>>>,
) -> Result<HandleOutcome, ServerError> {
    match profiler {
        Some(p) => {
            let mut p = p.borrow_mut();
            p.set_root(&format!("{} {}", request.verb, request.path));
            server.handle_traced(request, &mut *p)
        }
        None => server.handle(request),
    }
}

/// What serving one request produced.
#[derive(Debug)]
pub struct Served {
    pub response: HttpResponse,
    /// Cycles the serving device is charged: the handler's, or
    /// [`CACHE_HIT_CYCLES`] for a hit.
    pub cycles: u64,
    /// Answered from the cache; the handler did not run.
    pub hit: bool,
    /// The execution wrote rows, files or newly bound globals.
    pub effects: bool,
    /// A fill of this response under the request's plan would be stamped
    /// against every SQL read that produced it ([`stamp_covers`]): true for
    /// a hit, false for an execution without a plan.
    pub covered: bool,
}

/// One replica: a server process, the CRDT set mirroring its replicated
/// state, and its response cache (validated against `crdts.versions` on
/// every lookup). All of it lives on one thread.
#[derive(Debug)]
pub struct ReplicaCore {
    pub server: ServerProcess,
    pub crdts: CrdtSet,
    pub cache: ResponseCache,
    /// Injected response corruption (bench/test harness); a provisioned
    /// replica starts without one.
    pub corruptor: Option<BitFlipCorruptor>,
}

impl ReplicaCore {
    /// Replace this node's process with `next` (a restart, a recovery, a
    /// promoted standby). The cache object stays with the node — its
    /// lifetime counters are the node's — but its entries die with the
    /// process: they are stamped with the old CRDT set's version counters
    /// and must never revalidate against the new set's.
    pub fn replace_process(&mut self, next: ReplicaCore) {
        let dead = std::mem::replace(self, next);
        self.cache = dead.cache;
        self.cache.clear();
    }

    /// Digest of the *replicated* state units (bound tables, files,
    /// globals) as materialized in the server. Non-replicated state is
    /// deliberately excluded — it is local to whichever replica happened
    /// to write it. Tables are read as their typed rows (`fold_rows`).
    pub fn replicated_state_digest(&self) -> u64 {
        let (bindings, server) = (&self.crdts.bindings, &self.server);
        let mut h = FNV_OFFSET;
        for t in &bindings.tables {
            h = fnv1a(h, t.as_bytes());
            let rows = server.db.table(t).map_or(&[][..], |t| &t.rows);
            h = fold_rows(h, rows);
        }
        for f in &bindings.files {
            h = fnv1a(h, f.as_bytes());
            h = fnv1a(h, server.fs.peek(f).unwrap_or(&[]));
        }
        for g in &bindings.globals {
            h = fnv1a(h, g.as_bytes());
            let v = server.global_json(g).and_then(Result::ok);
            let v = v.map(|v| v.to_string()).unwrap_or_default();
            h = fnv1a(h, v.as_bytes());
        }
        h
    }

    /// The lookup step: a valid cached response for `plan`, if any.
    pub fn lookup(&mut self, plan: Option<&CachePlan>) -> Option<Served> {
        let response = self.cache.lookup(&plan?.key, &self.crdts.versions)?;
        Some(Served {
            response,
            cycles: CACHE_HIT_CYCLES,
            hit: true,
            effects: false,
            covered: true,
        })
    }

    /// Cache `response` under `plan`, stamped with this replica's current
    /// versions of the units the request read.
    pub fn fill(&mut self, plan: &CachePlan, response: &HttpResponse) {
        let stamp = self.crdts.versions.snapshot(&plan.reads);
        self.cache.fill(plan.key.clone(), response, stamp);
    }

    /// The execute step (see the module docs for the order it keeps).
    /// `summary` is the requested service's profile, `plan` the request's
    /// [`cache_plan`].
    ///
    /// # Errors
    ///
    /// The handler's error, after its writes were reverted.
    pub fn execute(
        &mut self,
        request: &HttpRequest,
        summary: Option<&EffectSummary>,
        plan: Option<&CachePlan>,
        profiler: &Option<Rc<RefCell<StmtProfiler>>>,
    ) -> Result<Served, ServerError> {
        let mut out = match handle_profiled(&mut self.server, request, profiler) {
            Ok(out) => out,
            Err(e) => {
                self.crdts.revert_failed_writes(&mut self.server);
                return Err(e);
            }
        };
        self.crdts.absorb_outcome(&out, &self.server);
        bump_static_global_writes(&mut self.crdts.versions, summary);
        if let Some(c) = self.corruptor.as_mut() {
            c.corrupt(&mut out.response);
        }
        let effects = !out.row_effects.is_empty()
            || !out.file_writes.is_empty()
            || !out.global_writes.is_empty();
        let covered = plan.is_some_and(|p| stamp_covers(&p.reads, &out.sql_reads));
        // only a demonstrably effect-free execution may fill: its
        // re-execution would be a no-op, so a later hit skips nothing
        if let Some(p) = plan.filter(|p| !effects && p.globals_clean) {
            if covered {
                self.fill(p, &out.response);
            } else {
                self.cache.refuse();
            }
        }
        Ok(Served {
            response: out.response,
            cycles: out.cycles,
            hit: false,
            effects,
            covered,
        })
    }

    /// Serve one request: the lookup step, then the execute step.
    ///
    /// # Errors
    ///
    /// As for [`ReplicaCore::execute`].
    pub fn serve(
        &mut self,
        request: &HttpRequest,
        summary: Option<&EffectSummary>,
        plan: Option<&CachePlan>,
        profiler: &Option<Rc<RefCell<StmtProfiler>>>,
    ) -> Result<Served, ServerError> {
        match self.lookup(plan) {
            Some(hit) => Ok(hit),
            None => self.execute(request, summary, plan, profiler),
        }
    }
}

/// What one thread provisions its replicas of a deployment from, at deploy
/// and at every restart, recovery and standby provisioning: the template,
/// this thread's view of its init snapshot ([`InitSeed::to_state`]), the
/// cache budget and the next unused actor id.
#[derive(Debug)]
pub struct Provisioner {
    pub template: Arc<ReplicaTemplate>,
    init: InitState,
    /// Reusing a dead incarnation's actor would collide with its
    /// already-synced sequence numbers, so ids only ever go up.
    next_actor: u64,
    cache_budget_bytes: usize,
    telemetry: Telemetry,
}

impl Provisioner {
    /// A provisioner for the calling thread; the caches of its replicas
    /// report to `telemetry`.
    pub fn new(
        template: Arc<ReplicaTemplate>,
        cache_budget_bytes: usize,
        telemetry: &Telemetry,
    ) -> Provisioner {
        Provisioner {
            init: template.init.to_state(),
            template,
            next_actor: 1,
            cache_budget_bytes,
            telemetry: telemetry.clone(),
        }
    }

    /// A replica of `kind` under `actor`. Without an image, server and CRDT
    /// set both start from the shared init snapshot (§III-G). From a
    /// [`CrdtSet::save`] image (registers and resident tombstones) the
    /// replica joins at the image's clock, and only writes above it travel.
    ///
    /// # Errors
    ///
    /// Propagates parse/init failures.
    ///
    /// # Panics
    ///
    /// When `image` is not a save image of this deployment.
    pub fn provision(
        &mut self,
        kind: ReplicaKind,
        actor: ActorId,
        image: Option<&[u8]>,
    ) -> Result<ReplicaCore, ServerError> {
        self.next_actor = self.next_actor.max(actor.0 + 1);
        let template = &self.template;
        let mut server = match kind {
            ReplicaKind::Master => ServerProcess::from_source(&template.cloud_source)?,
            ReplicaKind::Edge => ServerProcess::from_program(template.program.clone()),
        };
        server.init()?;
        self.init.restore(&mut server);
        let crdts = match image {
            None => CrdtSet::initialize(actor, &template.bindings, &self.init),
            Some(image) => {
                let crdts = CrdtSet::load(actor, &template.bindings, image)
                    .expect("save image must round-trip");
                crdts.materialize_all(&mut server);
                crdts
            }
        };
        Ok(ReplicaCore {
            server,
            crdts,
            cache: ResponseCache::new(self.cache_budget_bytes, &self.telemetry),
            corruptor: None,
        })
    }

    /// A replacement replica under the next unused actor id.
    ///
    /// # Errors
    ///
    /// As for [`Provisioner::provision`].
    pub fn replacement(
        &mut self,
        kind: ReplicaKind,
        image: Option<&[u8]>,
    ) -> Result<ReplicaCore, ServerError> {
        self.provision(kind, ActorId(self.next_actor), image)
    }

    /// A diversified variant for the multi-variant check: the replica
    /// program on the tree-walking engine (the primary serves compiled),
    /// so an engine-level fault cannot corrupt both variants the same way.
    ///
    /// # Errors
    ///
    /// Propagates init failures.
    pub fn shadow_variant(&self) -> Result<ServerProcess, ServerError> {
        let program = self.template.program.clone();
        let mut shadow = ServerProcess::from_program_with_mode(program, ExecMode::TreeWalking);
        shadow.init()?;
        self.init.restore(&mut shadow);
        Ok(shadow)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use edgstr_analysis::ReadUnit;
    use edgstr_sim::SimTime;
    use edgstr_sql::SqlResult;
    use edgstr_telemetry::Telemetry;
    use serde_json::json;

    /// `/note` writes its row and then, for the text `boom`, dies on a
    /// missing file: the write happened, the handler failed. `/bump` and
    /// `/hits` write and read a global no CRDT binds.
    const APP: &str = r#"
        db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
        var written = 0;
        var hits = 0;
        app.post("/note", function (req, res) {
            db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
            if (req.body.text == "boom") {
                fs.readFile("/no/such/file");
            }
            written = written + 1;
            res.send({ n: written });
        });
        app.get("/count", function (req, res) {
            var rows = db.query("SELECT COUNT(*) FROM notes");
            res.send(rows[0]);
        });
        app.get("/bump", function (req, res) {
            hits = hits + 1;
            res.send({ ok: 1 });
        });
        app.get("/hits", function (req, res) {
            res.send({ hits: hits });
        });
    "#;

    /// A deployment of [`APP`] binding the table and `written` — built by
    /// hand so each test states the service profile it serves under.
    pub(crate) fn deployment() -> Provisioner {
        let mut server = ServerProcess::from_source(APP).unwrap();
        server.init().unwrap();
        let template = ReplicaTemplate {
            cloud_source: APP.to_string(),
            program: server.program.clone(),
            bindings: CrdtBindings::from_units([
                StateUnit::DbTable("notes".into()),
                StateUnit::Global("written".into()),
            ]),
            init: InitSeed::from_state(&InitState::capture(&server)),
            replicated: BTreeSet::new(),
            effects: BTreeMap::new(),
        };
        Provisioner::new(Arc::new(template), 64 * 1024, &Telemetry::disabled())
    }

    fn core(deployment: &mut Provisioner, kind: ReplicaKind) -> ReplicaCore {
        deployment.provision(kind, ActorId(2), None).unwrap()
    }

    pub(crate) fn note(id: u64, text: &str) -> HttpRequest {
        HttpRequest::post("/note", json!({"id": id, "text": text}), vec![])
    }

    /// A read-only, reproducible service reading `reads`.
    fn reader(reads: Vec<ReadUnit>) -> EffectSummary {
        EffectSummary {
            reads,
            pure: true,
            cacheable: true,
            ..EffectSummary::default()
        }
    }

    /// Serve under `summary` with the cache on for every service.
    fn serve(
        core: &mut ReplicaCore,
        request: &HttpRequest,
        summary: &EffectSummary,
    ) -> Result<Served, ServerError> {
        let plan = cache_plan(CachePolicy::All, Some(summary), request);
        core.serve(request, Some(summary), plan.as_ref(), &None)
    }

    /// A handler that fails after its `INSERT` must leave nothing behind:
    /// the row's effects died with the outcome, so the CRDT never saw it,
    /// no later apply rebuilds the table to erase it by accident, the next
    /// request reads the table as if the failed one had never run, and
    /// nothing was cached on the way. Master and edge alike.
    #[test]
    fn failed_handler_after_write_leaves_no_row_and_fills_nothing() {
        let mut deployment = deployment();
        let count = HttpRequest::get("/count", json!({}));
        let counts = reader(vec![ReadUnit::Table("notes".into())]);
        // the profile claims `/note` cacheable, so only the pipeline's own
        // gates stand between the failed execution and a fill
        let noting = reader(vec![]);
        for kind in [ReplicaKind::Master, ReplicaKind::Edge] {
            let mut core = core(&mut deployment, kind);
            serve(&mut core, &note(1, "a"), &noting).unwrap();
            let before = serve(&mut core, &count, &counts).unwrap();
            let (clock, cached) = (core.crdts.clock().clone(), core.cache.len());
            assert_eq!(cached, 1, "the count filled");

            assert!(serve(&mut core, &note(77, "boom"), &noting).is_err());
            let stray = "SELECT id FROM notes WHERE id = 77";
            let rows = core.server.db.exec(stray).unwrap();
            assert!(matches!(rows, SqlResult::Rows { rows, .. } if rows.is_empty()));
            let has_77 = |core: &ReplicaCore| core.crdts.rows("notes").iter().any(|r| r.0 == "77");
            assert!(!has_77(&core));
            assert_eq!(core.crdts.clock(), &clock, "no change to ship");
            assert_eq!(core.cache.len(), cached);
            let after = serve(&mut core, &count, &counts).unwrap();
            assert!(after.hit, "nothing the count read has changed");
            assert_eq!(after.response, before.response);

            // the key is free again, and the write is absorbed this time
            let again = serve(&mut core, &note(77, "fine"), &noting).unwrap();
            assert!(again.effects && !again.hit);
            assert!(has_77(&core));
            assert!(!serve(&mut core, &count, &counts).unwrap().hit);
        }
    }

    #[test]
    fn execution_with_effects_never_fills() {
        let mut deployment = deployment();
        let mut core = core(&mut deployment, ReplicaKind::Edge);
        let counts = reader(vec![ReadUnit::Table("notes".into())]);
        let served = serve(&mut core, &note(1, "a"), &counts).unwrap();
        assert!(served.effects);
        assert!(core.cache.is_empty());
        // the same profile over an execution without effects does fill
        let count = HttpRequest::get("/count", json!({}));
        assert!(!serve(&mut core, &count, &counts).unwrap().effects);
        assert_eq!(core.cache.len(), 1);
        assert_eq!(core.cache.refusals(), 0);
    }

    /// A profile that missed a read — here, every read — stamps nothing a
    /// write to that table moves: the fill is refused and counted, so the
    /// count is never served stale.
    #[test]
    fn a_fill_its_stamp_does_not_cover_is_refused() {
        let mut deployment = deployment();
        let mut core = core(&mut deployment, ReplicaKind::Edge);
        let count = HttpRequest::get("/count", json!({}));
        let blind = reader(vec![]);
        let first = serve(&mut core, &count, &blind).unwrap();
        assert!(!first.effects && !first.covered);
        assert!(core.cache.is_empty());
        assert_eq!(core.cache.refusals(), 1);
        serve(&mut core, &note(1, "a"), &blind).unwrap();
        let second = serve(&mut core, &count, &blind).unwrap();
        assert!(!second.hit);
        assert_ne!(second.response, first.response);
        assert_eq!(core.cache.refusals(), 2, "a write is no refusal");
    }

    /// The serving path never asks a body for its JSON tree: executing,
    /// filling, hitting, sizing for the LAN, evicting a stale entry and the
    /// run digest all work on the text `res.send` wrote.
    #[test]
    fn serving_caching_and_accounting_never_parse_the_body() {
        let mut deployment = deployment();
        let mut core = core(&mut deployment, ReplicaKind::Edge);
        let count = HttpRequest::get("/count", json!({}));
        let counts = reader(vec![ReadUnit::Table("notes".into())]);
        let mut rec = crate::RunRecorder::new(&Telemetry::disabled());
        let mut account = |served: &Served| {
            rec.add_lan_bytes(served.response.size());
            rec.complete(&served.response, SimTime::ZERO, SimTime(1), 0.0);
        };
        let filled = serve(&mut core, &count, &counts).unwrap();
        let hit = serve(&mut core, &count, &counts).unwrap();
        assert!(!filled.hit && hit.hit);
        account(&filled);
        account(&hit);
        // a write stales the entry; the next read drops it and refills
        serve(&mut core, &note(1, "a"), &reader(vec![])).unwrap();
        let refilled = serve(&mut core, &count, &counts).unwrap();
        assert!(!refilled.hit);
        account(&refilled);
        assert_eq!(core.cache.stats().invalidations, 1);
        assert_eq!(hit.response, filled.response);
        assert_ne!(refilled.response, filled.response);
        for served in [&filled, &hit, &refilled] {
            assert!(!served.response.body.is_parsed());
        }
        // asking is what parses — once, for every holder of the body
        assert_eq!(filled.response.body, json!({"count": 0}));
        assert!(hit.response.body.is_parsed());
    }

    /// `/bump` mutates a global no CRDT binds: its outcome shows no
    /// effect. Its profile's static write set is what keeps it out of the
    /// cache and what invalidates the cached read of that global.
    #[test]
    fn static_global_write_never_fills_and_invalidates_earlier_entries() {
        let mut deployment = deployment();
        let mut core = core(&mut deployment, ReplicaKind::Edge);
        let hits = HttpRequest::get("/hits", json!({}));
        let reads_hits = reader(vec![ReadUnit::Global("hits".into())]);
        let bump = HttpRequest::get("/bump", json!({}));
        let bumps = EffectSummary {
            writes: vec![StateUnit::Global("hits".into())],
            cacheable: true,
            ..EffectSummary::default()
        };
        assert_eq!(
            serve(&mut core, &hits, &reads_hits).unwrap().response.body,
            json!({"hits": 0})
        );
        assert!(serve(&mut core, &hits, &reads_hits).unwrap().hit);

        let bumped = serve(&mut core, &bump, &bumps).unwrap();
        assert!(!bumped.effects, "the outcome cannot show the write");
        assert_eq!(core.cache.len(), 1, "only the read is cached");
        assert!(!serve(&mut core, &bump, &bumps).unwrap().hit);

        let reread = serve(&mut core, &hits, &reads_hits).unwrap();
        assert!(!reread.hit);
        assert_eq!(reread.response.body, json!({"hits": 2}));
        assert_eq!(
            core.cache.stats(),
            &CacheStats {
                hits: 1,
                misses: 4,
                evictions: 0,
                invalidations: 1,
            }
        );
    }

    #[test]
    fn core_from_a_save_image_serves_what_its_source_serves() {
        let mut deployment = deployment();
        let mut source = core(&mut deployment, ReplicaKind::Master);
        let noting = EffectSummary::default();
        for id in 1..=5 {
            serve(&mut source, &note(id, "t"), &noting).unwrap();
        }
        let mut copy = deployment
            .provision(ReplicaKind::Edge, ActorId(9), Some(&source.crdts.save()))
            .unwrap();
        assert_eq!(copy.crdts.clock(), source.crdts.clock());
        let counts = reader(vec![ReadUnit::Table("notes".into())]);
        let count = HttpRequest::get("/count", json!({}));
        // reads, a write numbered by the bound global, a duplicate key
        for request in [count.clone(), note(6, "u"), note(3, "dup"), count] {
            let summary = if request.path == "/count" {
                &counts
            } else {
                &noting
            };
            let a = serve(&mut source, &request, summary).map(|s| s.response);
            let b = serve(&mut copy, &request, summary).map(|s| s.response);
            assert_eq!(a.ok(), b.ok(), "{} {}", request.verb, request.path);
        }
    }

    /// The injected fault sits between absorb and fill: the table holds
    /// the intact row, the served response is corrupt, and the cache
    /// replays that corrupt response.
    #[test]
    fn corruptor_spares_the_state_and_its_response_is_what_fills() {
        let mut deployment = deployment();
        let mut healthy = core(&mut deployment, ReplicaKind::Edge);
        let mut faulty = core(&mut deployment, ReplicaKind::Edge);
        faulty.corruptor = Some(BitFlipCorruptor::new(7, 1.0));
        let noting = EffectSummary::default();
        let counts = reader(vec![ReadUnit::Table("notes".into())]);
        let count = HttpRequest::get("/count", json!({}));
        for c in [&mut healthy, &mut faulty] {
            serve(c, &note(1, "a"), &noting).unwrap();
        }
        assert_eq!(faulty.crdts.rows("notes"), healthy.crdts.rows("notes"));
        let intact = serve(&mut healthy, &count, &counts).unwrap().response;
        let corrupt = serve(&mut faulty, &count, &counts).unwrap().response;
        assert_ne!(corrupt, intact);
        let replayed = serve(&mut faulty, &count, &counts).unwrap();
        assert!(replayed.hit);
        assert_eq!(replayed.response, corrupt);
    }

    #[test]
    fn corrupted_response_remembers_nothing_of_the_intact_one() {
        let mut corruptor = BitFlipCorruptor::new(7, 1.0);
        // an integer to flip in the body; none, so the status flips instead
        for body in [json!({"rows": [{"id": 5}], "s": "x"}), json!({"s": "x"})] {
            let intact = HttpResponse::ok(body);
            let (size, digest) = (intact.size(), intact.digest());
            let text = intact.body.text().to_string();
            let mut served = intact.clone();
            assert!(corruptor.corrupt(&mut served));
            assert_ne!(served, intact);
            // what the corrupt response reports is what a response built
            // from scratch with its status and body reports
            let scratch = HttpResponse {
                status: served.status,
                body: Json::clone(&served.body).into(),
            };
            assert_eq!(served.digest(), scratch.digest());
            assert_ne!(served.digest(), digest);
            assert_eq!(served.body.text(), scratch.body.text());
            assert_eq!(served.size(), scratch.size());
            // and the intact response is untouched
            assert_eq!((intact.size(), intact.digest()), (size, digest));
            assert_eq!(intact.body.text(), text);
        }
    }
}
