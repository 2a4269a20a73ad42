//! Hierarchical spans and point events over virtual time.
//!
//! A span is an interval of `SimTime` with a name, a tier, an optional
//! parent, and free-form JSON attributes; an event is an instantaneous
//! marker attached to a span (or the root). Together they let one follow
//! a single request across client → edge → cloud, including forwards,
//! retries, degraded serves, fault drops, and sync-daemon rounds.
//!
//! The log is bounded: past [`TraceLog::DEFAULT_CAP`] spans/events new
//! records are counted in `dropped` instead of stored, so a long
//! simulation cannot grow memory without bound — and the drop count is
//! reported, never silent.

use edgstr_sim::SimTime;
use serde_json::{json, Map, Value as Json};

/// Which tier of the deployment a span or event belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    Client,
    Edge,
    Cloud,
    /// Infrastructure work that is not tied to one tier (sync daemon,
    /// autoscaler, fault injection).
    System,
}

impl Tier {
    pub fn as_str(self) -> &'static str {
        match self {
            Tier::Client => "client",
            Tier::Edge => "edge",
            Tier::Cloud => "cloud",
            Tier::System => "system",
        }
    }
}

/// Identifier of a recorded span. `SpanId(0)` is the reserved null id
/// handed out when telemetry is disabled or the log is saturated; it is
/// accepted (and ignored) everywhere a parent is expected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    pub const NULL: SpanId = SpanId(0);

    pub fn is_null(self) -> bool {
        self.0 == 0
    }
}

#[derive(Clone, Debug)]
pub struct SpanRecord {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub tier: Tier,
    pub start: SimTime,
    pub end: Option<SimTime>,
    /// Attribute keys are static so the recording hot path never
    /// allocates for them; last write per key wins at export.
    pub attrs: Vec<(&'static str, Json)>,
}

#[derive(Clone, Debug)]
pub struct EventRecord {
    pub name: &'static str,
    pub tier: Tier,
    pub span: Option<SpanId>,
    pub at: SimTime,
    pub attrs: Vec<(&'static str, Json)>,
}

/// Attribute list -> JSON object; later writes of the same key win.
fn attr_map(attrs: &[(&'static str, Json)]) -> Map<String, Json> {
    attrs
        .iter()
        .map(|(k, v)| ((*k).to_string(), v.clone()))
        .collect()
}

/// Append-only span/event log. See the module docs for the bounding
/// policy.
#[derive(Debug)]
pub struct TraceLog {
    spans: Vec<SpanRecord>,
    events: Vec<EventRecord>,
    next_id: u64,
    cap: usize,
    dropped: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self::with_capacity(Self::DEFAULT_CAP)
    }
}

impl TraceLog {
    /// Combined span + event budget before new records are dropped.
    pub const DEFAULT_CAP: usize = 200_000;

    pub fn with_capacity(cap: usize) -> Self {
        TraceLog {
            spans: Vec::new(),
            events: Vec::new(),
            next_id: 1,
            cap,
            dropped: 0,
        }
    }

    /// Open a span. Returns [`SpanId::NULL`] (and counts a drop) once the
    /// log is saturated.
    pub fn start_span(
        &mut self,
        name: &'static str,
        tier: Tier,
        parent: Option<SpanId>,
        at: SimTime,
    ) -> SpanId {
        self.start_span_with(name, tier, parent, at, Vec::new())
    }

    /// Open a span carrying its initial attributes. One log borrow and one
    /// exact-capacity attribute vector instead of a `start_span` followed
    /// by per-key [`TraceLog::span_attr`] lookups — use this on hot paths.
    pub fn start_span_with(
        &mut self,
        name: &'static str,
        tier: Tier,
        parent: Option<SpanId>,
        at: SimTime,
        attrs: Vec<(&'static str, Json)>,
    ) -> SpanId {
        if self.spans.len() + self.events.len() >= self.cap {
            self.dropped += 1;
            return SpanId::NULL;
        }
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.spans.push(SpanRecord {
            id,
            parent: parent.filter(|p| !p.is_null()),
            name,
            tier,
            start: at,
            end: None,
            attrs,
        });
        id
    }

    /// Close a span. Ignores the null id.
    pub fn end_span(&mut self, id: SpanId, at: SimTime) {
        if id.is_null() {
            return;
        }
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.end = Some(at);
        }
    }

    /// Attach an attribute to an open (or closed) span. Ignores the null
    /// id.
    pub fn span_attr(&mut self, id: SpanId, key: &'static str, value: Json) {
        if id.is_null() {
            return;
        }
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.id == id) {
            span.attrs.push((key, value));
        }
    }

    /// Record a point event, optionally attached to a span.
    pub fn event(
        &mut self,
        name: &'static str,
        tier: Tier,
        span: Option<SpanId>,
        at: SimTime,
        attrs: Vec<(&'static str, Json)>,
    ) {
        if self.spans.len() + self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(EventRecord {
            name,
            tier,
            span: span.filter(|s| !s.is_null()),
            at,
            attrs,
        });
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Records refused because the log hit its cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Export the log as JSON Lines: one object per span, then one per
    /// event, each ordered by start time (stable on ties, preserving
    /// recording order). Times are virtual microseconds.
    pub fn export_jsonl(&self) -> String {
        let mut lines: Vec<(u64, usize, String)> =
            Vec::with_capacity(self.spans.len() + self.events.len());
        for (i, s) in self.spans.iter().enumerate() {
            let mut obj = Map::new();
            obj.insert("type".into(), json!("span"));
            obj.insert("id".into(), json!(s.id.0));
            if let Some(p) = s.parent {
                obj.insert("parent".into(), json!(p.0));
            }
            obj.insert("name".into(), json!(s.name));
            obj.insert("tier".into(), json!(s.tier.as_str()));
            obj.insert("start_us".into(), json!(s.start.0));
            if let Some(end) = s.end {
                obj.insert("end_us".into(), json!(end.0));
                obj.insert("duration_us".into(), json!(end.0.saturating_sub(s.start.0)));
            }
            if !s.attrs.is_empty() {
                obj.insert("attrs".into(), Json::Object(attr_map(&s.attrs)));
            }
            let line = serde_json::to_string(&Json::Object(obj)).expect("span serializes");
            lines.push((s.start.0, i, line));
        }
        let base = self.spans.len();
        for (i, e) in self.events.iter().enumerate() {
            let mut obj = Map::new();
            obj.insert("type".into(), json!("event"));
            obj.insert("name".into(), json!(e.name));
            obj.insert("tier".into(), json!(e.tier.as_str()));
            if let Some(s) = e.span {
                obj.insert("span".into(), json!(s.0));
            }
            obj.insert("at_us".into(), json!(e.at.0));
            if !e.attrs.is_empty() {
                obj.insert("attrs".into(), Json::Object(attr_map(&e.attrs)));
            }
            let line = serde_json::to_string(&Json::Object(obj)).expect("event serializes");
            lines.push((e.at.0, base + i, line));
        }
        lines.sort_by_key(|(at, seq, _)| (*at, *seq));
        let mut out = String::new();
        for (_, _, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime(us)
    }

    #[test]
    fn span_tree_round_trips_to_jsonl() {
        let mut log = TraceLog::default();
        let root = log.start_span("request", Tier::Client, None, t(0));
        let serve = log.start_span("serve", Tier::Edge, Some(root), t(10));
        log.span_attr(serve, "edge", json!(0));
        log.event("retry", Tier::Edge, Some(serve), t(15), Vec::new());
        log.end_span(serve, t(40));
        log.end_span(root, t(50));
        let out = log.export_jsonl();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3);
        let first: Json = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(first["name"], json!("request"));
        assert_eq!(first["duration_us"], json!(50));
        let second: Json = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(second["parent"], json!(1));
        assert_eq!(second["attrs"]["edge"], json!(0));
        let third: Json = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(third["type"], json!("event"));
        assert_eq!(third["at_us"], json!(15));
    }

    #[test]
    fn saturated_log_counts_drops() {
        let mut log = TraceLog::with_capacity(1);
        let a = log.start_span("a", Tier::System, None, t(0));
        assert!(!a.is_null());
        let b = log.start_span("b", Tier::System, None, t(1));
        assert!(b.is_null());
        log.event("e", Tier::System, None, t(2), Vec::new());
        log.end_span(b, t(3));
        assert_eq!(log.span_count(), 1);
        assert_eq!(log.dropped(), 2);
    }
}
