//! # edgstr-net — emulated networking, HTTP model, and traffic capture
//!
//! EdgStr "operates by first instrumenting live HTTP traffic between the
//! client and the cloud to determine the available services for
//! replication" (§I), and its evaluation shapes WAN links with a
//! system-level network emulator (comcast, §IV-C). This crate provides
//! both pieces:
//!
//! - [`LinkSpec`] / [`LinkChannel`] — links parameterized by bandwidth
//!   and latency, with presets for the paper's setups (edge LAN,
//!   same-continent and cross-continent WAN, and the configurable *limited
//!   cloud network*: bandwidth 100–1000 Kbps, latency 100–1000 ms);
//! - [`HttpRequest`] / [`HttpResponse`] — the RESTful request/response
//!   model with wire-size accounting;
//! - [`TrafficCapture`] — the packet-sniffer analog: records every
//!   exchange and aggregates per-service observations, which
//!   `edgstr-core` turns into the `Subject` interface (Eq. 1).

pub mod crash;
pub mod fault;

pub use crash::{CrashEvent, CrashKind, CrashPlan};
pub use fault::{DropCause, FaultPlan, LossModel};

use edgstr_sim::SimDuration;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// HTTP method.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Verb {
    Get,
    Post,
    Put,
    Delete,
}

impl Verb {
    pub fn as_str(self) -> &'static str {
        match self {
            Verb::Get => "GET",
            Verb::Post => "POST",
            Verb::Put => "PUT",
            Verb::Delete => "DELETE",
        }
    }
}

impl fmt::Display for Verb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// An HTTP request in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpRequest {
    pub verb: Verb,
    pub path: String,
    /// Structured parameters (query/JSON body fields).
    pub params: Json,
    /// Raw binary payload (e.g. an uploaded image).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// A GET request with parameters.
    pub fn get(path: impl Into<String>, params: Json) -> HttpRequest {
        HttpRequest {
            verb: Verb::Get,
            path: path.into(),
            params,
            body: Vec::new(),
        }
    }

    /// A POST request with parameters and a binary body.
    pub fn post(path: impl Into<String>, params: Json, body: Vec<u8>) -> HttpRequest {
        HttpRequest {
            verb: Verb::Post,
            path: path.into(),
            params,
            body,
        }
    }

    /// Approximate bytes on the wire (headers + params + body).
    pub fn size(&self) -> usize {
        64 + self.path.len() + json_size(&self.params) + self.body.len()
    }
}

/// A response body: its compact JSON text and its [`json_size`], fixed
/// when the body is built and shared behind one pointer, so serving,
/// caching, sizing, forwarding and digesting a response never walk a JSON
/// tree — the handler's answer is encoded once ([`Body::encoded`]) and
/// every later holder reads the same bytes. The response digest is
/// remembered on first use. Cloning copies the pointer; clones share what
/// is remembered. There is no mutable access: a different body is a new
/// `Body`. Equality compares the text.
///
/// Tests and the offline analyses read a body as a [`Json`] tree through
/// `Deref`; the tree is parsed from the text on first use and kept.
#[derive(Clone)]
pub struct Body(Arc<BodyInner>);

struct BodyInner {
    text: String,
    size: usize,
    /// `(status, digest)` of the first response that digested this body.
    digest: OnceLock<(u16, u64)>,
    /// The text parsed back, for the consumers that want a tree.
    json: OnceLock<Json>,
}

impl Body {
    /// A body from its encoding: `text` is the compact JSON a
    /// `serde_json::to_string` of the value gives and `size` the
    /// [`json_size`] of that value — the caller has both without building
    /// a [`Json`] (a script value writes and sizes itself).
    pub fn encoded(text: String, size: usize) -> Body {
        Body(Arc::new(BodyInner {
            text,
            size,
            digest: OnceLock::new(),
            json: OnceLock::new(),
        }))
    }

    /// [`json_size`] of the body.
    pub fn json_size(&self) -> usize {
        self.0.size
    }

    /// The body as compact JSON — the bytes `serde_json::to_string` gives.
    pub fn text(&self) -> &str {
        &self.0.text
    }

    /// Whether the tree behind `Deref` has been parsed. The serving path
    /// (serve, cache fill and hit, sizing, the digests) leaves this
    /// `false`.
    pub fn is_parsed(&self) -> bool {
        self.0.json.get().is_some()
    }

    /// The body as a JSON tree of the caller's own.
    pub fn into_json(self) -> Json {
        match Arc::try_unwrap(self.0) {
            Ok(inner) => inner
                .json
                .into_inner()
                .unwrap_or_else(|| parse(&inner.text)),
            Err(shared) => Json::clone(&Body(shared)),
        }
    }
}

/// A body's text is JSON by construction ([`Body::encoded`]'s contract).
fn parse(text: &str) -> Json {
    serde_json::from_str(text).expect("a response body holds the JSON text it was encoded to")
}

impl From<Json> for Body {
    fn from(json: Json) -> Body {
        let text = serde_json::to_string(&json).expect("response body serializes");
        Body::encoded(text, json_size(&json))
    }
}

impl std::ops::Deref for Body {
    type Target = Json;

    fn deref(&self) -> &Json {
        self.0.json.get_or_init(|| parse(&self.0.text))
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Body) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || self.0.text == other.0.text
    }
}

impl PartialEq<Json> for Body {
    fn eq(&self, other: &Json) -> bool {
        **self == *other
    }
}

impl fmt::Debug for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

impl fmt::Display for Body {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.text())
    }
}

/// An HTTP response in the simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct HttpResponse {
    pub status: u16,
    pub body: Body,
}

impl HttpResponse {
    /// A 200 response with a JSON body.
    pub fn ok(body: Json) -> HttpResponse {
        HttpResponse {
            status: 200,
            body: body.into(),
        }
    }

    /// An error response with a message body.
    pub fn error(status: u16, message: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            body: serde_json::json!({ "error": message.into() }).into(),
        }
    }

    /// Whether the status signals success.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }

    /// Approximate bytes on the wire.
    pub fn size(&self) -> usize {
        64 + self.body.json_size()
    }

    /// FNV-1a digest of the status and the body's JSON text: equal digests
    /// mean byte-identical responses. This is what the multi-variant check
    /// compares and what the threaded executor records per request.
    pub fn digest(&self) -> u64 {
        let fresh = || {
            let h = fnv1a(FNV_OFFSET, &self.status.to_le_bytes());
            (self.status, fnv1a(h, self.body.text().as_bytes()))
        };
        // `status` is a public field, so the remembered digest is keyed by
        // the status it was computed under.
        match *self.body.0.digest.get_or_init(fresh) {
            (status, digest) if status == self.status => digest,
            _ => fresh().1,
        }
    }
}

/// FNV-1a offset basis: the `hash` to start a digest chain from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold `bytes` into the FNV-1a digest `hash` — the one digest function
/// behind response digests, run digests, cache keys and RNG substream
/// labels.
pub fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Approximate serialized size of a JSON value, counting binary markers
/// (`{"$bytes": n}`) at their payload size so image-shaped values cost what
/// the image would.
pub fn json_size(v: &Json) -> usize {
    match v {
        Json::Null => 4,
        Json::Bool(_) => 5,
        Json::Number(_) => 8,
        Json::String(s) => s.len() + 2,
        Json::Array(items) => 2 + items.iter().map(|i| json_size(i) + 1).sum::<usize>(),
        Json::Object(map) => {
            if let Some(n) = map.get("$bytes").and_then(Json::as_u64) {
                return n as usize;
            }
            2 + map
                .iter()
                .map(|(k, val)| k.len() + 3 + json_size(val))
                .sum::<usize>()
        }
    }
}

/// A network link parameterized by bandwidth and propagation latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Usable bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way propagation latency.
    pub latency: SimDuration,
}

impl LinkSpec {
    /// Construct from kilobits-per-second and millisecond latency (the
    /// units the paper's limited-network setup uses).
    pub fn from_kbps_ms(kbps: f64, latency_ms: f64) -> LinkSpec {
        LinkSpec {
            bandwidth_bytes_per_sec: kbps * 1000.0 / 8.0,
            latency: SimDuration::from_secs_f64(latency_ms / 1000.0),
        }
    }

    /// Construct from megabytes-per-second and millisecond latency (the
    /// units of the Fig. 7 sweep: 0.1–5 MB/s).
    pub fn from_mbytes_ms(mbytes_per_sec: f64, latency_ms: f64) -> LinkSpec {
        LinkSpec {
            bandwidth_bytes_per_sec: mbytes_per_sec * 1e6,
            latency: SimDuration::from_secs_f64(latency_ms / 1000.0),
        }
    }

    /// The local edge network: strong-signal Wi-Fi LAN (§IV-C).
    pub fn edge_lan() -> LinkSpec {
        LinkSpec::from_mbytes_ms(12.0, 2.0)
    }

    /// A fast, same-continent cloud link (the motivating example's good
    /// case, §II-A).
    pub fn wan_same_continent() -> LinkSpec {
        LinkSpec::from_mbytes_ms(5.0, 30.0)
    }

    /// A cross-continent cloud link: RTT an order of magnitude larger
    /// (§II-A).
    pub fn wan_cross_continent() -> LinkSpec {
        LinkSpec::from_mbytes_ms(1.0, 300.0)
    }

    /// The paper's *limited cloud network*: bandwidth in [100, 1000] Kbps,
    /// latency in [100, 1000] ms (§IV-C). Mid-range defaults.
    pub fn limited_cloud() -> LinkSpec {
        LinkSpec::from_kbps_ms(500.0, 500.0)
    }

    /// One-way transfer time for a payload of `bytes`.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        let serialize = bytes as f64 / self.bandwidth_bytes_per_sec.max(1.0);
        self.latency + SimDuration::from_secs_f64(serialize)
    }

    /// Request/response round trip carrying the given payload sizes.
    pub fn round_trip(&self, up_bytes: usize, down_bytes: usize) -> SimDuration {
        self.transfer_time(up_bytes) + self.transfer_time(down_bytes)
    }
}

/// One captured request/response exchange.
#[derive(Debug, Clone, PartialEq)]
pub struct Exchange {
    pub verb: Verb,
    pub path: String,
    pub request_bytes: usize,
    pub response_bytes: usize,
    pub params: Json,
    /// Raw request body (retained so EdgStr can replay the request during
    /// profiling).
    pub body: Vec<u8>,
    pub response: Json,
    pub status: u16,
}

/// Aggregated observation of one remote service, derived from captured
/// traffic — the raw material for the `Subject` interface (Eq. 1).
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceObservation {
    pub verb: Verb,
    pub path: String,
    pub invocations: usize,
    pub avg_request_bytes: usize,
    pub avg_response_bytes: usize,
    /// A sample parameter value `p_i`.
    pub sample_params: Json,
    /// The raw body of the sampled request.
    pub sample_body: Vec<u8>,
    /// A sample response value `r_i`.
    pub sample_response: Json,
}

impl ServiceObservation {
    /// Reconstruct a representative request for this service.
    pub fn sample_request(&self) -> HttpRequest {
        HttpRequest {
            verb: self.verb,
            path: self.path.clone(),
            params: self.sample_params.clone(),
            body: self.sample_body.clone(),
        }
    }
}

/// The live-HTTP-traffic sniffer EdgStr attaches between client and cloud.
#[derive(Debug, Clone, Default)]
pub struct TrafficCapture {
    exchanges: Vec<Exchange>,
}

impl TrafficCapture {
    /// Empty capture.
    pub fn new() -> Self {
        TrafficCapture::default()
    }

    /// Record one exchange.
    pub fn record(&mut self, req: &HttpRequest, resp: &HttpResponse) {
        self.exchanges.push(Exchange {
            verb: req.verb,
            path: req.path.clone(),
            request_bytes: req.size(),
            response_bytes: resp.size(),
            params: req.params.clone(),
            body: req.body.clone(),
            response: Json::clone(&resp.body),
            status: resp.status,
        });
    }

    /// All captured exchanges, in order.
    pub fn exchanges(&self) -> &[Exchange] {
        &self.exchanges
    }

    /// Number of captured exchanges.
    pub fn len(&self) -> usize {
        self.exchanges.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.exchanges.is_empty()
    }

    /// Total bytes observed in each direction `(upload, download)`.
    pub fn totals(&self) -> (usize, usize) {
        self.exchanges.iter().fold((0, 0), |(u, d), e| {
            (u + e.request_bytes, d + e.response_bytes)
        })
    }

    /// Aggregate the capture into per-service observations, keyed by
    /// `(verb, path)`. Only successful, non-empty responses are considered,
    /// matching the paper's "assumption of responses being non-empty"
    /// (§III-A).
    pub fn observe_services(&self) -> Vec<ServiceObservation> {
        let mut by_service: BTreeMap<(Verb, String), Vec<&Exchange>> = BTreeMap::new();
        for e in &self.exchanges {
            if (200..300).contains(&e.status) && !e.response.is_null() {
                by_service
                    .entry((e.verb, e.path.clone()))
                    .or_default()
                    .push(e);
            }
        }
        by_service
            .into_iter()
            .map(|((verb, path), es)| {
                let n = es.len();
                ServiceObservation {
                    verb,
                    path,
                    invocations: n,
                    avg_request_bytes: es.iter().map(|e| e.request_bytes).sum::<usize>() / n,
                    avg_response_bytes: es.iter().map(|e| e.response_bytes).sum::<usize>() / n,
                    sample_params: es[0].params.clone(),
                    sample_body: es[0].body.clone(),
                    sample_response: es[0].response.clone(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn transfer_time_includes_latency_and_serialization() {
        let link = LinkSpec::from_kbps_ms(800.0, 100.0); // 100 KB/s
        let t = link.transfer_time(100_000);
        // 100 ms latency + 1 s serialization
        assert!((t.as_secs_f64() - 1.1).abs() < 1e-6);
    }

    #[test]
    fn round_trip_sums_directions() {
        let link = LinkSpec::from_mbytes_ms(1.0, 50.0);
        let rt = link.round_trip(1_000_000, 0);
        assert!((rt.as_secs_f64() - (0.05 + 1.0 + 0.05)).abs() < 1e-6);
    }

    #[test]
    fn cross_continent_rtt_order_of_magnitude_slower() {
        let same = LinkSpec::wan_same_continent();
        let cross = LinkSpec::wan_cross_continent();
        let ratio = cross.round_trip(0, 0).as_secs_f64() / same.round_trip(0, 0).as_secs_f64();
        assert!(ratio >= 9.0, "RTT gap {ratio} below an order of magnitude");
    }

    #[test]
    fn request_size_counts_body_and_params() {
        let small = HttpRequest::get("/status", json!({}));
        let big = HttpRequest::post("/predict", json!({"w": 640}), vec![0u8; 1_000_000]);
        assert!(big.size() > small.size() + 999_000);
    }

    #[test]
    fn json_size_respects_bytes_marker() {
        let marked = json!({"$bytes": 5_000_000, "$hash": 42});
        assert_eq!(json_size(&marked), 5_000_000);
        let plain = json!({"a": "xy"});
        assert!(json_size(&plain) < 20);
    }

    #[test]
    fn capture_aggregates_per_service() {
        let mut cap = TrafficCapture::new();
        for i in 0..3 {
            let req = HttpRequest::get("/items", json!({"page": i}));
            let resp = HttpResponse::ok(json!([1, 2, 3]));
            cap.record(&req, &resp);
        }
        let req = HttpRequest::post("/items", json!({"name": "x"}), vec![]);
        cap.record(&req, &HttpResponse::ok(json!({"id": 9})));
        // failed exchanges are excluded from observations
        cap.record(
            &HttpRequest::get("/broken", json!({})),
            &HttpResponse::error(500, "boom"),
        );
        let obs = cap.observe_services();
        assert_eq!(obs.len(), 2);
        let get_items = obs
            .iter()
            .find(|o| o.verb == Verb::Get && o.path == "/items")
            .unwrap();
        assert_eq!(get_items.invocations, 3);
        assert_eq!(cap.len(), 5);
        let (up, down) = cap.totals();
        assert!(up > 0 && down > 0);
    }

    #[test]
    fn response_helpers() {
        assert!(HttpResponse::ok(json!(1)).is_success());
        let e = HttpResponse::error(404, "missing");
        assert!(!e.is_success());
        assert_eq!(e.body["error"], json!("missing"));
    }

    #[test]
    fn verb_display() {
        assert_eq!(Verb::Get.to_string(), "GET");
        assert_eq!(Verb::Delete.to_string(), "DELETE");
    }
}

/// A link as a *queued resource*: serialization time occupies the channel
/// exclusively (back-to-back transfers queue), while propagation latency
/// pipelines. This is what makes bandwidth the throughput bottleneck for
/// data-heavy cloud services in the Fig. 7 sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkChannel {
    pub spec: LinkSpec,
    free_at: edgstr_sim::SimTime,
}

impl LinkChannel {
    /// A channel over `spec`, idle at time zero.
    pub fn new(spec: LinkSpec) -> LinkChannel {
        LinkChannel {
            spec,
            free_at: edgstr_sim::SimTime::ZERO,
        }
    }

    /// Transmit `bytes` starting no earlier than `at`; returns the
    /// delivery time at the far end (queueing + serialization +
    /// propagation).
    pub fn send(&mut self, at: edgstr_sim::SimTime, bytes: usize) -> edgstr_sim::SimTime {
        let start = if self.free_at > at { self.free_at } else { at };
        let serialize = edgstr_sim::SimDuration::from_secs_f64(
            bytes as f64 / self.spec.bandwidth_bytes_per_sec.max(1.0),
        );
        let departed = start + serialize;
        self.free_at = departed;
        departed + self.spec.latency
    }

    /// When the channel next becomes free.
    pub fn free_at(&self) -> edgstr_sim::SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod channel_tests {
    use super::*;
    use edgstr_sim::SimTime;

    #[test]
    fn back_to_back_transfers_queue() {
        let mut ch = LinkChannel::new(LinkSpec::from_mbytes_ms(1.0, 10.0));
        // two 1 MB transfers submitted at t=0: second waits for the first
        let d1 = ch.send(SimTime::ZERO, 1_000_000);
        let d2 = ch.send(SimTime::ZERO, 1_000_000);
        assert!((d1.as_secs_f64() - 1.01).abs() < 1e-6);
        assert!((d2.as_secs_f64() - 2.01).abs() < 1e-6);
    }

    #[test]
    fn idle_channel_adds_no_queueing() {
        let mut ch = LinkChannel::new(LinkSpec::from_mbytes_ms(2.0, 5.0));
        let d = ch.send(SimTime::from_secs_f64(10.0), 2_000_000);
        assert!((d.as_secs_f64() - 11.005).abs() < 1e-6);
        assert!(ch.free_at() < d);
    }
}
