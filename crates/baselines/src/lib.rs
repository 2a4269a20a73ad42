//! # edgstr-baselines — the comparator systems of §IV-E
//!
//! The paper compares EdgStr's replication against the proxying and
//! synchronization strategies used by prior distributed systems:
//!
//! - [`CachingProxySystem`] — a proxy cache at the edge (§IV-E.2):
//!   identical requests are answered from the cache; misses pay the full
//!   WAN round trip. "In the presence of state changes, the cached service
//!   data can become stale fast", which [`CachingProxySystem::run`]
//!   faithfully reproduces (cache entries are *not* invalidated by
//!   writes).
//! - [`BatchingProxySystem`] — a DTO/Remote-Façade batching proxy
//!   (§IV-E.2): requests are aggregated into bulk WAN transfers; effective
//!   when bandwidth is plentiful, counterproductive when the aggregated
//!   data saturates the link.
//! - [`cross_isa_sync_bytes`] — the cross-ISA offloading cost model
//!   (§IV-E.1): such systems "synchronize the entire program state stored
//!   in the working memory (`S_app`)" per offloaded execution, which is
//!   what EdgStr's selective replication beats by orders of magnitude
//!   (Fig. 10a).

use edgstr_analysis::{InitState, ServerProcess};
use edgstr_net::{fnv1a, HttpRequest, HttpResponse, LinkSpec, FNV_OFFSET};
use edgstr_runtime::{MobilePower, RunStats, Workload};
use edgstr_sim::{Device, DeviceSpec, SimTime};
use std::collections::HashMap;

fn cache_key(req: &HttpRequest) -> (String, String, u64) {
    let params = req.params.to_string();
    let body_hash = fnv1a(FNV_OFFSET, &req.body);
    (format!("{} {}", req.verb, req.path), params, body_hash)
}

/// A caching proxy deployed at the edge in front of the cloud service.
#[derive(Debug)]
pub struct CachingProxySystem {
    pub cloud: ServerProcess,
    pub device: Device,
    pub wan: LinkSpec,
    pub lan: LinkSpec,
    pub mobile: MobilePower,
    cache: HashMap<(String, String, u64), HttpResponse>,
    pub hits: usize,
    pub misses: usize,
}

impl CachingProxySystem {
    /// Build around an initialized cloud server.
    pub fn new(cloud: ServerProcess, wan: LinkSpec, lan: LinkSpec) -> Self {
        CachingProxySystem {
            cloud,
            device: Device::new(DeviceSpec::cloud_server()),
            wan,
            lan,
            mobile: MobilePower::default(),
            cache: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Execute `workload` through the cache.
    pub fn run(&mut self, workload: &Workload) -> RunStats {
        let mut stats = RunStats::default();
        for tr in &workload.requests {
            let key = cache_key(&tr.request);
            let req_size = tr.request.size();
            let lan_up = self.lan.transfer_time(req_size);
            stats.lan_bytes += req_size;
            if let Some(resp_size) = self.cache.get(&key).map(HttpResponse::size) {
                // cache hit: answered at the edge — possibly stale
                self.hits += 1;
                let lan_down = self.lan.transfer_time(resp_size);
                stats.lan_bytes += resp_size;
                let done = tr.at + lan_up + lan_down;
                stats.latency.record(done - tr.at);
                stats.completed += 1;
                stats.client_energy_j +=
                    self.mobile
                        .request_energy_j(lan_up, lan_down, edgstr_sim::SimDuration::ZERO);
                if done > stats.makespan {
                    stats.makespan = done;
                }
                continue;
            }
            // miss: full WAN round trip plus cache fill
            self.misses += 1;
            match self.cloud.handle(&tr.request) {
                Ok(out) => {
                    let wan_up = self.wan.transfer_time(req_size);
                    let arrive = tr.at + lan_up + wan_up;
                    let (_, finish) = self.device.schedule_work(arrive, out.cycles);
                    let resp_size = out.response.size();
                    let wan_down = self.wan.transfer_time(resp_size);
                    let lan_down = self.lan.transfer_time(resp_size);
                    stats.wan_request_bytes += req_size + resp_size;
                    stats.lan_bytes += resp_size;
                    let done = finish + wan_down + lan_down;
                    stats.latency.record(done - tr.at);
                    stats.completed += 1;
                    stats.client_energy_j += self.mobile.request_energy_j(
                        lan_up,
                        lan_down,
                        finish + wan_down - (tr.at + lan_up),
                    );
                    self.cache.insert(key, out.response);
                    if done > stats.makespan {
                        stats.makespan = done;
                    }
                }
                Err(_) => stats.failed += 1,
            }
        }
        stats.cloud_energy_j = self.device.energy_joules(stats.makespan);
        stats
    }

    /// Hit ratio so far.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A batching proxy that aggregates `batch_size` requests into one bulk
/// WAN transfer (Data Transfer Object / Remote Façade patterns).
#[derive(Debug)]
pub struct BatchingProxySystem {
    pub cloud: ServerProcess,
    pub device: Device,
    pub wan: LinkSpec,
    pub lan: LinkSpec,
    pub mobile: MobilePower,
    pub batch_size: usize,
}

impl BatchingProxySystem {
    /// Build around an initialized cloud server.
    pub fn new(cloud: ServerProcess, wan: LinkSpec, lan: LinkSpec, batch_size: usize) -> Self {
        BatchingProxySystem {
            cloud,
            device: Device::new(DeviceSpec::cloud_server()),
            wan,
            lan,
            mobile: MobilePower::default(),
            batch_size: batch_size.max(1),
        }
    }

    /// Execute `workload` through the batcher: requests wait at the proxy
    /// until a batch fills, then travel as one aggregated transfer.
    pub fn run(&mut self, workload: &Workload) -> RunStats {
        let mut stats = RunStats::default();
        let mut pending: Vec<(SimTime, &HttpRequest)> = Vec::new();
        let total = workload.requests.len();
        for (i, tr) in workload.requests.iter().enumerate() {
            pending.push((tr.at, &tr.request));
            let flush = pending.len() >= self.batch_size || i == total - 1;
            if !flush {
                continue;
            }
            // the batch departs when its last member arrived
            let depart = pending.last().map(|(t, _)| *t).unwrap_or(SimTime::ZERO);
            let up_bytes: usize = pending.iter().map(|(_, r)| r.size()).sum();
            let wan_up = self.wan.transfer_time(up_bytes);
            let mut arrive = depart + wan_up;
            let mut down_bytes = 0usize;
            let mut outcomes = Vec::new();
            for (submitted, req) in pending.drain(..) {
                match self.cloud.handle(req) {
                    Ok(out) => {
                        let (_, finish) = self.device.schedule_work(arrive, out.cycles);
                        arrive = finish;
                        down_bytes += out.response.size();
                        outcomes.push((submitted, req.size(), out.response.size()));
                    }
                    Err(_) => stats.failed += 1,
                }
            }
            let wan_down = self.wan.transfer_time(down_bytes);
            let done = arrive + wan_down;
            stats.wan_request_bytes += up_bytes + down_bytes;
            for (submitted, req_size, resp_size) in outcomes {
                let lan_up = self.lan.transfer_time(req_size);
                let lan_down = self.lan.transfer_time(resp_size);
                let finish = done + lan_down;
                stats.latency.record(finish - submitted);
                stats.completed += 1;
                stats.client_energy_j +=
                    self.mobile
                        .request_energy_j(lan_up, lan_down, finish - submitted);
                if finish > stats.makespan {
                    stats.makespan = finish;
                }
            }
        }
        stats.cloud_energy_j = self.device.energy_joules(stats.makespan);
        stats
    }
}

/// Bytes a cross-ISA offloading system ships per offloaded execution: the
/// entire program state `S_app` (§IV-E.1, Table II).
pub fn cross_isa_sync_bytes(init: &InitState) -> usize {
    init.byte_size()
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_apps::bookworm;
    use serde_json::json;

    fn cloud() -> ServerProcess {
        let mut s = ServerProcess::from_source(&bookworm::app().source).unwrap();
        s.init().unwrap();
        s
    }

    fn read_workload(n: usize) -> Workload {
        let reqs = vec![HttpRequest::get("/books", json!({}))];
        Workload::constant_rate(&reqs, 5.0, n)
    }

    #[test]
    fn cache_hits_are_fast_and_counted() {
        let mut sys =
            CachingProxySystem::new(cloud(), LinkSpec::limited_cloud(), LinkSpec::edge_lan());
        let stats = sys.run(&read_workload(10));
        assert_eq!(stats.completed, 10);
        assert_eq!(sys.misses, 1);
        assert_eq!(sys.hits, 9);
        assert!(sys.hit_ratio() > 0.8);
        // min latency (a hit) far below max latency (the miss)
        let mut lat = stats.latency;
        assert!(lat.min().unwrap().as_millis_f64() * 10.0 < lat.max().unwrap().as_millis_f64());
    }

    #[test]
    fn cache_serves_stale_data_after_writes() {
        let mut sys =
            CachingProxySystem::new(cloud(), LinkSpec::limited_cloud(), LinkSpec::edge_lan());
        let list = HttpRequest::get("/books", json!({}));
        let wl = Workload::constant_rate(std::slice::from_ref(&list), 5.0, 1);
        sys.run(&wl);
        // a write goes through (miss — different key)
        let add = HttpRequest::post(
            "/books",
            json!({"id": 7, "title": "Blindsight", "author": "Watts", "price": 9.0}),
            vec![],
        );
        let wl = Workload::constant_rate(std::slice::from_ref(&add), 5.0, 1);
        sys.run(&wl);
        // the cached list is now stale but still served
        let mut stats = RunStats::default();
        let _ = &mut stats;
        let wl = Workload::constant_rate(std::slice::from_ref(&list), 5.0, 1);
        sys.run(&wl);
        assert_eq!(sys.hits, 1, "stale entry must be served from cache");
    }

    #[test]
    fn batching_reduces_wan_messages_but_adds_wait() {
        let mut unbatched =
            BatchingProxySystem::new(cloud(), LinkSpec::limited_cloud(), LinkSpec::edge_lan(), 1);
        let s1 = unbatched.run(&read_workload(8));
        let mut batched =
            BatchingProxySystem::new(cloud(), LinkSpec::limited_cloud(), LinkSpec::edge_lan(), 4);
        let s4 = batched.run(&read_workload(8));
        assert_eq!(s1.completed, 8);
        assert_eq!(s4.completed, 8);
        // early requests in a batch wait for the batch to fill
        let (mut l1, mut l4) = (s1.latency, s4.latency);
        assert!(l4.max().unwrap() >= l1.min().unwrap());
        let _ = l1.median();
    }

    #[test]
    fn cross_isa_ships_whole_state() {
        let s = cloud();
        let init = InitState::capture(&s);
        let bytes = cross_isa_sync_bytes(&init);
        assert!(bytes > 100, "S_app must include the seeded catalog");
        assert_eq!(bytes, init.byte_size());
    }
}
