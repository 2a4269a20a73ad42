//! In-memory span recorder for the traced run: one span around each call
//! the probe makes into a layer. Spans are kept in memory and written to
//! `benchmark/out/trace_<workload>.jsonl` when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

/// Span names. The two roots (`Request`, `SyncRound`) have the layer spans
/// as children; a root's duration minus its children is driver bookkeeping. A layer's
/// discriminant is its index in [`LAYERS`] and in [`Tracer::totals`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Request,
    Route,
    CachePlan,
    CacheLookup,
    Handle,
    Absorb,
    CacheFill,
    Account,
    SyncRound,
    SyncGenerate,
    SyncEncode,
    SyncApplyCloud,
    SyncApplyEdge,
    SyncCompact,
}

pub const LAYERS: [Layer; 14] = [
    Layer::Request,
    Layer::Route,
    Layer::CachePlan,
    Layer::CacheLookup,
    Layer::Handle,
    Layer::Absorb,
    Layer::CacheFill,
    Layer::Account,
    Layer::SyncRound,
    Layer::SyncGenerate,
    Layer::SyncEncode,
    Layer::SyncApplyCloud,
    Layer::SyncApplyEdge,
    Layer::SyncCompact,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Request => "request",
            Layer::Route => "route",
            Layer::CachePlan => "cache.plan",
            Layer::CacheLookup => "cache.lookup",
            Layer::Handle => "handle",
            Layer::Absorb => "absorb",
            Layer::CacheFill => "cache.fill",
            Layer::Account => "account",
            Layer::SyncRound => "sync.round",
            Layer::SyncGenerate => "sync.generate",
            Layer::SyncEncode => "sync.encode",
            Layer::SyncApplyCloud => "sync.apply.cloud",
            Layer::SyncApplyEdge => "sync.apply.edge",
            Layer::SyncCompact => "sync.compact",
        }
    }

    pub fn is_root(self) -> bool {
        matches!(self, Layer::Request | Layer::SyncRound)
    }
}

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    layer: Layer,
    /// Index of the enclosing span, or `NONE`.
    parent: u32,
    /// Index of the request being served, or `NONE` (sync rounds).
    request: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-layer totals over one trace.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTotal {
    pub calls: u64,
    /// Sum of span durations.
    pub busy_ns: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: NONE,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, layer: Layer) {
        let parent = self.open.last().copied().unwrap_or(NONE);
        self.open.push(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            parent,
            request: self.request,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Root span of request `index`; spans opened until the matching
    /// [`Tracer::exit`] carry the index.
    pub fn enter_request(&mut self, index: usize) {
        self.request = index as u32;
        self.enter(Layer::Request);
    }

    pub fn exit_request(&mut self) {
        self.exit();
        self.request = NONE;
    }

    /// Time one call into a layer.
    pub fn span<T>(&mut self, layer: Layer, call: impl FnOnce() -> T) -> T {
        self.enter(layer);
        let out = call();
        self.exit();
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Totals indexed like [`LAYERS`].
    pub fn totals(&self) -> [LayerTotal; LAYERS.len()] {
        let mut totals = [LayerTotal::default(); LAYERS.len()];
        for s in &self.spans {
            let t = &mut totals[s.layer as usize];
            t.calls += 1;
            t.busy_ns += s.end_ns - s.start_ns;
        }
        totals
    }

    /// One JSON object per span: `id`, `name`, `parent` (id or null),
    /// `req` (request index or null), `start_ns`, `end_ns` since the
    /// tracer was created.
    pub fn to_jsonl(&self) -> String {
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.layer.name(),
                opt(s.parent),
                opt(s.request),
                s.start_ns,
                s.end_ns
            )
            .expect("write to string");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_are_listed_in_discriminant_order() {
        for (i, layer) in LAYERS.iter().enumerate() {
            assert_eq!(*layer as usize, i);
        }
    }

    #[test]
    fn spans_nest_and_total_per_layer() {
        let mut t = Tracer::new();
        t.enter_request(7);
        t.span(Layer::Handle, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit_request();
        let totals = t.totals();
        let request = totals[Layer::Request as usize];
        let handle = totals[Layer::Handle as usize];
        assert_eq!((request.calls, handle.calls), (1, 1));
        assert!(request.busy_ns >= handle.busy_ns && handle.busy_ns >= 2_000_000);
        let lines = t.to_jsonl();
        assert!(lines.contains("\"name\":\"handle\",\"parent\":0,\"req\":7"));
        assert!(lines.starts_with("{\"id\":0,\"name\":\"request\",\"parent\":null,\"req\":7"));
    }
}
