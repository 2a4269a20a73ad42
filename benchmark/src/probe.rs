//! The per-layer probe: replays a request stream through the layers'
//! public functions with a span around each call.
//!
//! The probe builds its own cloud + edge replicas exactly as
//! `ThreeTierSystem::deploy` does and mirrors the local-serve path of
//! `ThreeTierSystem::run` and the exchange of `sync_round`, for the
//! benchmark's deployment only (cache `All`, least-connections, no
//! faults/HA/quarantine/autoscaler, report-static placement, every
//! request served locally). It accounts through the program's own
//! `RunRecorder`, so the parity gate is plain `RunStats` equality with the
//! untraced run: same routing, same responses, same virtual timing, same
//! sync bytes — the spans describe the same work.
//!
//! When ROADMAP item 2 lands a public `ReplicaCore::serve`, `serve_local`
//! collapses to calling it.

use crate::e2e::EDGES;
use crate::spans::{Layer, Tracer};
use edgstr_analysis::{EffectSummary, ServerProcess, StateUnit};
use edgstr_apps::SubjectApp;
use edgstr_core::TransformationReport;
use edgstr_crdt::ActorId;
use edgstr_net::{HttpRequest, HttpResponse, LinkChannel, Verb};
use edgstr_runtime::{
    bump_static_global_writes, resolve_reads, CacheKey, CacheStats, CrdtSet, LoadBalancer,
    MobilePower, ResponseCache, RunRecorder, RunStats, SyncEndpoint, ThreeTierOptions, UnitKey,
    Workload, CACHE_HIT_CYCLES,
};
use edgstr_sim::{Clock, Device, DeviceSpec, SimDuration, SimTime};
use edgstr_telemetry::Telemetry;
use std::collections::{BTreeMap, BTreeSet};

type ServiceKey = (Verb, String);

struct Edge {
    server: ServerProcess,
    device: Device,
    crdts: CrdtSet,
    to_cloud: SyncEndpoint,
    cache: ResponseCache,
    inflight: Vec<SimTime>,
}

struct CachePlan {
    key: CacheKey,
    reads: Vec<UnitKey>,
    globals_clean: bool,
}

/// Work counted at the layer boundaries during one `run`.
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub writes: u64,
    pub fills: u64,
    pub handle_calls: u64,
    pub vm_cycles: u64,
    pub row_effects: u64,
    pub sync_rounds: u64,
    pub changes_sent: u64,
    pub sync_bytes: u64,
    pub changes_applied: u64,
    pub changes_folded: u64,
    /// Hits, misses, evictions, invalidations over the edge caches.
    pub cache: CacheStats,
}

pub struct Probe {
    cloud: ServerProcess,
    cloud_device: Device,
    cloud_crdts: CrdtSet,
    cloud_endpoints: Vec<SyncEndpoint>,
    edges: Vec<Edge>,
    balancer: LoadBalancer,
    lan_up: LinkChannel,
    lan_down: LinkChannel,
    sync_interval: SimDuration,
    next_sync: SimTime,
    effects: BTreeMap<ServiceKey, EffectSummary>,
    replicated: BTreeSet<ServiceKey>,
    mobile: MobilePower,
}

impl Probe {
    pub fn deploy(app: &SubjectApp, report: &TransformationReport) -> Result<Probe, String> {
        let fail = |e| format!("{}: probe deploy failed: {e}", app.name);
        // link, balancing, sync period and cache budget are the deployment's
        // defaults, read from the program rather than copied
        let options = ThreeTierOptions::default();
        let replica = &report.replica;
        let mut cloud = ServerProcess::from_source(&app.source).map_err(fail)?;
        cloud.init().map_err(fail)?;
        replica.init.restore(&mut cloud);
        let mut edges = Vec::with_capacity(EDGES);
        for i in 0..EDGES {
            let mut server = ServerProcess::from_program(replica.program.clone());
            server.init().map_err(fail)?;
            replica.init.restore(&mut server);
            edges.push(Edge {
                server,
                device: Device::new(DeviceSpec::rpi4()),
                crdts: CrdtSet::initialize(ActorId(2 + i as u64), &replica.bindings, &replica.init),
                to_cloud: SyncEndpoint::new(),
                cache: ResponseCache::new(options.cache_budget_bytes, &Telemetry::disabled()),
                inflight: Vec::new(),
            });
        }
        Ok(Probe {
            cloud,
            cloud_device: Device::new(DeviceSpec::cloud_server()),
            cloud_crdts: CrdtSet::initialize(ActorId(1), &replica.bindings, &replica.init),
            cloud_endpoints: (0..EDGES).map(|_| SyncEndpoint::new()).collect(),
            edges,
            balancer: LoadBalancer::new(options.balance),
            lan_up: LinkChannel::new(options.lan),
            lan_down: LinkChannel::new(options.lan),
            sync_interval: options.sync_interval,
            next_sync: SimTime::ZERO + options.sync_interval,
            effects: report
                .services
                .iter()
                .filter_map(|s| {
                    s.profile
                        .as_ref()
                        .map(|p| ((s.verb, s.path.clone()), p.effects.clone()))
                })
                .collect(),
            replicated: replica.replicated.iter().cloned().collect(),
            mobile: MobilePower::default(),
        })
    }

    fn cache_stats(&self) -> CacheStats {
        let mut s = CacheStats::default();
        for e in &self.edges {
            s.absorb(e.cache.stats());
        }
        s
    }

    /// Changes resident in the cloud master's history.
    pub fn resident_changes(&self) -> usize {
        self.cloud_crdts.history_len()
    }

    /// Edge 0's server, for the SQL micro-probes.
    pub fn edge0_server(&mut self) -> &mut ServerProcess {
        &mut self.edges[0].server
    }

    /// Replay `workload` as `ThreeTierSystem::run` would.
    pub fn run(
        &mut self,
        workload: &Workload,
        t: &mut Tracer,
    ) -> Result<(RunStats, Counts), String> {
        let mut rec = RunRecorder::with_clock(&Telemetry::disabled(), Clock::virtual_clock());
        let mut counts = Counts::default();
        let cache_before = self.cache_stats();
        for (i, tr) in workload.requests.iter().enumerate() {
            let now = tr.at;
            while self.next_sync <= now {
                rec.add_wan_sync_bytes(self.sync_round(t, &mut counts));
                self.next_sync += self.sync_interval;
            }
            t.enter_request(i);
            let edges = &mut self.edges;
            let balancer = &mut self.balancer;
            let idx = t
                .span(Layer::Route, || {
                    for e in edges.iter_mut() {
                        e.inflight.retain(|f| *f > now);
                    }
                    let connections: Vec<usize> = edges.iter().map(|e| e.inflight.len()).collect();
                    balancer.pick(&connections, &[true; EDGES])
                })
                .expect("every edge is active");
            let req_size = t.span(Layer::Account, || tr.request.size());
            let lan_arrive = self.lan_up.send(now, req_size);
            rec.add_lan_bytes(req_size);
            let edge = &mut self.edges[idx];
            let arrive = lan_arrive + edge.device.wake_penalty();
            let key = (tr.request.verb, tr.request.path.clone());
            if !self.replicated.contains(&key) {
                return Err(format!(
                    "{} {} is not replicated: the probe mirrors the local-serve path only",
                    tr.request.verb, tr.request.path
                ));
            }
            if tr.request.verb != Verb::Get {
                counts.writes += 1;
            }
            let summary = self.effects.get(&key);
            let (response, cycles) = serve_local(edge, summary, &tr.request, t, &mut counts)?;
            let (_, finish) = edge.device.schedule_work(arrive, cycles);
            let resp_size = t.span(Layer::Account, || response.size());
            let done = self.lan_down.send(finish, resp_size);
            rec.add_lan_bytes(resp_size);
            edge.inflight.push(done);
            let energy =
                self.mobile
                    .request_energy_j(lan_arrive - now, done - finish, finish - arrive);
            t.span(Layer::Account, || {
                rec.complete(&response, tr.at, done, energy)
            });
            t.exit_request();
        }
        let flush_at = rec.makespan();
        rec.add_wan_sync_bytes(self.sync_round(t, &mut counts));
        rec.add_wan_sync_bytes(self.sync_round(t, &mut counts));
        let after = self.cache_stats();
        counts.cache = CacheStats {
            hits: after.hits - cache_before.hits,
            misses: after.misses - cache_before.misses,
            evictions: after.evictions - cache_before.evictions,
            invalidations: after.invalidations - cache_before.invalidations,
        };
        let cloud_energy = self.cloud_device.energy_joules(flush_at);
        let edge_energy = self
            .edges
            .iter()
            .map(|e| e.device.energy_joules(flush_at))
            .sum();
        Ok((rec.finish(cloud_energy, edge_energy), counts))
    }

    /// One background sync round as `ThreeTierSystem::sync_round` runs it
    /// without faults or HA; returns the WAN bytes spent.
    fn sync_round(&mut self, t: &mut Tracer, counts: &mut Counts) -> usize {
        t.enter(Layer::SyncRound);
        counts.sync_rounds += 1;
        let mut bytes = 0;
        for (edge, endpoint) in self.edges.iter_mut().zip(&mut self.cloud_endpoints) {
            // edge -> cloud
            let msg = t.span(Layer::SyncGenerate, || edge.to_cloud.generate(&edge.crdts));
            if !msg.changes.is_empty() {
                bytes += t.span(Layer::SyncEncode, || msg.wire_size());
                counts.changes_sent += msg.changes.len() as u64;
            }
            let (cloud_crdts, cloud) = (&mut self.cloud_crdts, &mut self.cloud);
            counts.changes_applied += t.span(Layer::SyncApplyCloud, || {
                endpoint.receive_owned(cloud_crdts, cloud, msg)
            }) as u64;
            // cloud -> edge
            let msg = t.span(Layer::SyncGenerate, || endpoint.generate(cloud_crdts));
            if !msg.changes.is_empty() {
                bytes += t.span(Layer::SyncEncode, || msg.wire_size());
                counts.changes_sent += msg.changes.len() as u64;
            }
            counts.changes_applied += t.span(Layer::SyncApplyEdge, || {
                edge.to_cloud
                    .receive_owned(&mut edge.crdts, &mut edge.server, msg)
            }) as u64;
        }
        counts.changes_folded += t.span(Layer::SyncCompact, || {
            let mut acked = self.cloud_endpoints.iter().map(|e| &e.peer_clock);
            let first = acked.next().expect("at least one edge").clone();
            let frontier = acked.fold(first, |acc, clock| acc.meet(clock));
            let mut folded = self.cloud_crdts.compact(&frontier);
            for edge in &mut self.edges {
                folded += edge.crdts.compact(&edge.to_cloud.peer_clock);
            }
            folded
        }) as u64;
        t.exit();
        counts.sync_bytes += bytes as u64;
        bytes
    }
}

fn cache_plan(summary: Option<&EffectSummary>, request: &HttpRequest) -> Option<CachePlan> {
    let summary = summary.filter(|s| s.cacheable)?;
    Some(CachePlan {
        key: CacheKey::for_request(request),
        reads: resolve_reads(summary, request),
        globals_clean: !summary
            .writes
            .iter()
            .any(|w| matches!(w, StateUnit::Global(_))),
    })
}

/// Cache lookup, execute, absorb, effect-free fill: the serve pipeline
/// both executors implement. Returns the response and the cycles the
/// device is charged.
fn serve_local(
    edge: &mut Edge,
    summary: Option<&EffectSummary>,
    request: &HttpRequest,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(HttpResponse, u64), String> {
    let plan = t.span(Layer::CachePlan, || cache_plan(summary, request));
    if let Some(p) = &plan {
        let hit = t.span(Layer::CacheLookup, || {
            edge.cache.lookup(&p.key, &edge.crdts.versions)
        });
        if let Some(response) = hit {
            return Ok((response, CACHE_HIT_CYCLES));
        }
    }
    counts.handle_calls += 1;
    let out = t
        .span(Layer::Handle, || edge.server.handle(request))
        .map_err(|e| format!("{} {} failed: {e}", request.verb, request.path))?;
    counts.vm_cycles += out.cycles;
    counts.row_effects += out.row_effects.len() as u64;
    t.span(Layer::Absorb, || {
        edge.crdts.absorb_outcome(&out, &edge.server);
        bump_static_global_writes(&mut edge.crdts.versions, summary);
    });
    if let Some(p) = plan {
        let effect_free = out.row_effects.is_empty()
            && out.file_writes.is_empty()
            && out.global_writes.is_empty()
            && p.globals_clean;
        if effect_free {
            counts.fills += 1;
            t.span(Layer::CacheFill, || {
                let stamp = edge.crdts.versions.snapshot(&p.reads);
                edge.cache.fill(p.key, &out.response, stamp);
            });
        }
    }
    Ok((out.response, out.cycles))
}
