//! Read-set-versioned edge response cache (DESIGN.md §9).
//!
//! Serving a repeated request without re-executing the handler is sound
//! only when nothing the handler *read* has changed since the cached
//! execution. Every replica therefore keeps cheap monotone version
//! counters per state unit ([`UnitVersions`]), bumped on local mutation
//! and on every remote change application, and each cache entry records
//! the versions of its read set at fill time. A lookup is a hit iff every
//! recorded version still matches — otherwise the entry is dropped as
//! invalidated and the request executes normally.
//!
//! A table keeps counters at two grains, so each read validates against
//! only what can change its answer:
//! - a row-keyed read (a [`ReadUnit::TableKeyed`] unit) against its row's
//!   counter;
//! - a whole-table read of some columns against the table's *row-set*
//!   counter (inserts, deletes, re-keys) and the counters of those
//!   columns — one stamp entry whose version is their sum, which moves
//!   exactly when one of them does, because every counter only grows.
//!
//! Every table change is a row's: a write of a table without a primary
//! key has no row counter to move, and moves the row-set and column
//! counters alone.
//!
//! A write reports which cells it changed ([`RowEffect::Upsert`]'s
//! `changed`): updating `stock` leaves a cached read of `id` and `title`
//! valid, and a write of a cell as it was bumps nothing.
//!
//! [`RowEffect::Upsert`]: edgstr_sql::RowEffect::Upsert

use edgstr_analysis::{json_pk_string, request_field, EffectSummary, ReadUnit, StateUnit};
use edgstr_net::{fnv1a, HttpRequest, HttpResponse, Verb, FNV_OFFSET};
use edgstr_sql::columns::ColumnSet;
use edgstr_sql::engine::SqlRead;
use edgstr_telemetry::{Counter, Gauge, Telemetry};
use std::collections::BTreeMap;
use std::fmt;

/// Virtual CPU cycles a replica spends serving one cache hit (key lookup,
/// version comparison, response serialization) — far below the cost of any
/// handler execution, which pays at least the SQL/host dispatch base cost.
pub const CACHE_HIT_CYCLES: u64 = 5_000;

/// Which services may be served from the response cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum CachePolicy {
    /// No caching (the baseline).
    #[default]
    Off,
    /// Only services whose profile shows no writes under any run.
    ReadOnlyServices,
    /// Every cacheable service; entries are still only filled from
    /// executions that were demonstrably effect-free.
    All,
}

/// One versioned state unit — one entry of a cache entry's stamp. Files
/// get a per-path counter; globals a per-name counter plus a
/// structure-wide epoch for changes that cannot be attributed to a single
/// name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitKey {
    /// Which rows the table holds and the cells at these columns: the
    /// sum of the table's row-set and column counters
    /// ([`ColumnSet::ALL`]: every column).
    Columns(String, ColumnSet),
    /// One row of one table, by its `SqlValue::pk_string`.
    Row(String, String),
    /// One file, by path.
    File(String),
    /// Bumped by global-doc changes not attributable to one name.
    GlobalsEpoch,
    /// One top-level global variable.
    Global(String),
}

/// One table's counters.
#[derive(Debug, Clone)]
struct TableVersions {
    rows: BTreeMap<String, u64>,
    /// Bumped by a row arriving at or leaving a key.
    row_set: u64,
    /// Per column position, bumped by a change to a cell there.
    columns: [u64; ColumnSet::BITS],
}

impl Default for TableVersions {
    fn default() -> TableVersions {
        TableVersions {
            rows: BTreeMap::new(),
            row_set: 0,
            columns: [0; ColumnSet::BITS],
        }
    }
}

impl TableVersions {
    fn columns(&self, set: ColumnSet) -> u64 {
        let cells: u64 = set.bits().map(|i| self.columns[i]).sum();
        self.row_set + cells
    }
}

/// Monotone version counters per state unit. Absent units are at version
/// zero; counters only ever increase, so a recorded `(unit, version)` pair
/// stays valid exactly until the unit's next mutation. Bumping a counter
/// that exists allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct UnitVersions {
    tables: BTreeMap<String, TableVersions>,
    files: BTreeMap<String, u64>,
    globals: BTreeMap<String, u64>,
    globals_epoch: u64,
}

/// `map[key] += 1`, copying `key` only the first time.
fn bump(map: &mut BTreeMap<String, u64>, key: &str) {
    match map.get_mut(key) {
        Some(v) => *v += 1,
        None => {
            map.insert(key.to_string(), 1);
        }
    }
}

impl UnitVersions {
    /// Current version of `key` (zero if never touched).
    #[must_use]
    pub fn get(&self, key: &UnitKey) -> u64 {
        let table = |t: &str| self.tables.get(t);
        match key {
            UnitKey::Columns(t, set) => table(t).map_or(0, |v| v.columns(*set)),
            UnitKey::Row(t, pk) => table(t).and_then(|v| v.rows.get(pk)).copied().unwrap_or(0),
            UnitKey::File(p) => self.files.get(p).copied().unwrap_or(0),
            UnitKey::GlobalsEpoch => self.globals_epoch,
            UnitKey::Global(g) => self.globals.get(g).copied().unwrap_or(0),
        }
    }

    fn table(&mut self, table: &str) -> &mut TableVersions {
        if !self.tables.contains_key(table) {
            self.tables
                .insert(table.to_string(), TableVersions::default());
        }
        self.tables.get_mut(table).expect("inserted above")
    }

    /// Row `pk` changed as a [`edgstr_sql::RowEffect`] reports it: the
    /// cells at `changed` (nothing moves when that is empty), or, for
    /// `None`, the row set — the row arrived at or left its key. The row's
    /// counter moves with either, and other rows' keyed readers stay
    /// valid; a row of a table without a primary key has no counter
    /// (`pk` is `None`).
    pub fn touch_row(&mut self, table: &str, pk: Option<&str>, changed: Option<ColumnSet>) {
        if changed.is_some_and(ColumnSet::is_empty) {
            return;
        }
        let t = self.table(table);
        if let Some(pk) = pk {
            bump(&mut t.rows, pk);
        }
        match changed {
            None => t.row_set += 1,
            Some(cells) => {
                for i in cells.bits() {
                    t.columns[i] += 1;
                }
            }
        }
    }

    /// One file's contents changed.
    pub fn touch_file(&mut self, path: &str) {
        bump(&mut self.files, path);
    }

    /// One global variable changed.
    pub fn touch_global(&mut self, name: &str) {
        bump(&mut self.globals, name);
    }

    /// The globals doc changed unattributably.
    pub fn touch_globals_all(&mut self) {
        self.globals_epoch += 1;
    }

    /// Record the current version of every key — the validity stamp a
    /// cache entry is filled with.
    #[must_use]
    pub fn snapshot(&self, keys: &[UnitKey]) -> Vec<(UnitKey, u64)> {
        keys.iter().map(|k| (k.clone(), self.get(k))).collect()
    }
}

/// Resolve a service's abstract read set to concrete version-counter keys
/// for one request. A `TableKeyed` unit becomes the selected row; when the
/// keying parameter cannot be resolved from the request it degrades to
/// every column of the table. A file read validates against its path's
/// counter, a global read against its own counter plus the globals epoch.
#[must_use]
pub fn resolve_reads(summary: &EffectSummary, request: &HttpRequest) -> Vec<UnitKey> {
    let mut keys = Vec::new();
    for unit in &summary.reads {
        match unit {
            ReadUnit::Table(t) => keys.push(UnitKey::Columns(t.clone(), ColumnSet::ALL)),
            ReadUnit::TableColumns { table, columns } => {
                keys.push(UnitKey::Columns(table.clone(), *columns));
            }
            ReadUnit::TableKeyed { table, param } => {
                match request_field(request, param)
                    .as_ref()
                    .and_then(json_pk_string)
                {
                    Some(pk) => keys.push(UnitKey::Row(table.clone(), pk)),
                    None => keys.push(UnitKey::Columns(table.clone(), ColumnSet::ALL)),
                }
            }
            ReadUnit::File(p) => keys.push(UnitKey::File(p.clone())),
            ReadUnit::Global(g) => {
                keys.push(UnitKey::Global(g.clone()));
                keys.push(UnitKey::GlobalsEpoch);
            }
        }
    }
    keys
}

/// Whether a stamp over `keys` would see every change that can alter the
/// answer of each of `reads`: a read pinned to a key is covered by that
/// row's counter, any read by a column stamp of its table listing every
/// column it references. An entry filled from an execution whose reads its
/// stamp does not cover could be served stale.
#[must_use]
pub fn stamp_covers(keys: &[UnitKey], reads: &[SqlRead]) -> bool {
    reads.iter().all(|read| {
        keys.iter().any(|key| match key {
            UnitKey::Columns(t, columns) => *t == read.table && columns.covers(read.columns),
            UnitKey::Row(t, pk) => *t == read.table && read.key.as_ref() == Some(pk),
            _ => false,
        })
    })
}

/// Bump the global-variable units a concrete [`edgstr_analysis::HandleOutcome`]
/// cannot reveal: `global_writes` lists only newly-bound globals and the
/// CRDT absorb diff only covers bound globals, so a mutation of an unbound
/// existing global is invisible to outcome-driven bumping. The profiled
/// summary's static write set fills that gap; with no summary at all,
/// every global is presumed dirty.
pub fn bump_static_global_writes(versions: &mut UnitVersions, summary: Option<&EffectSummary>) {
    match summary {
        Some(s) => {
            for w in &s.writes {
                if let StateUnit::Global(g) = w {
                    versions.touch_global(g);
                }
            }
        }
        None => versions.touch_globals_all(),
    }
}

/// Identity of one cacheable request: verb, path, canonicalized params
/// (the vendored `serde_json` map is ordered, so `to_string` is
/// canonical), and a digest of the raw body bytes.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct CacheKey {
    verb: Verb,
    path: String,
    params: String,
    body_fnv: u64,
}

impl CacheKey {
    /// The cache key identifying `request`.
    #[must_use]
    pub fn for_request(request: &HttpRequest) -> CacheKey {
        CacheKey {
            verb: request.verb,
            path: request.path.clone(),
            params: serde_json::to_string(&request.params).expect("params serialize"),
            body_fnv: fnv1a(FNV_OFFSET, &request.body),
        }
    }

    fn cost(&self) -> usize {
        self.path.len() + self.params.len() + 16
    }
}

/// Hit/miss/eviction/invalidation counts for one cache.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub invalidations: u64,
}

impl CacheStats {
    /// Fold `other` into `self` (aggregation across replicas).
    pub fn absorb(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.evictions += other.evictions;
        self.invalidations += other.invalidations;
    }

    /// Hits over cacheable lookups (zero when nothing was looked up).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone)]
struct Entry {
    response: HttpResponse,
    /// The read set's versions at fill time; valid iff all still match.
    reads: Vec<(UnitKey, u64)>,
    bytes: usize,
    stamp: u64,
}

/// Telemetry counter indices, in `edgstr_cache_events_total` label order.
const HIT: usize = 0;
const MISS: usize = 1;
const EVICT: usize = 2;
const INVALIDATE: usize = 3;
const REFUSE: usize = 4;
const EVENT_OPS: [&str; 5] = ["hit", "miss", "evict", "invalidate", "refuse"];

/// One replica's response cache: an LRU map under a byte budget whose
/// entries are validated against [`UnitVersions`] on every lookup.
pub struct ResponseCache {
    budget: usize,
    entries: BTreeMap<CacheKey, Entry>,
    /// Recency index: stamp → key, oldest first (the eviction order).
    recency: BTreeMap<u64, CacheKey>,
    bytes: usize,
    stamp: u64,
    stats: CacheStats,
    /// Fills refused because the stamp did not cover what the execution
    /// read ([`ResponseCache::refuse`]).
    refusals: u64,
    /// Registry counters (shared across replicas via the label set) when
    /// telemetry is enabled; `None` keeps the disabled path free.
    events: Option<[Counter; 5]>,
    hit_ratio: Option<Gauge>,
}

impl fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResponseCache")
            .field("budget", &self.budget)
            .field("entries", &self.entries.len())
            .field("bytes", &self.bytes)
            .field("stats", &self.stats)
            .field("refusals", &self.refusals)
            .finish()
    }
}

impl ResponseCache {
    /// An empty cache with `budget_bytes` of entry capacity, reporting
    /// `cache.*` events to `telemetry` when it is enabled.
    #[must_use]
    pub fn new(budget_bytes: usize, telemetry: &Telemetry) -> ResponseCache {
        let events = telemetry
            .registry()
            .map(|reg| EVENT_OPS.map(|op| reg.counter("edgstr_cache_events_total", &[("op", op)])));
        let hit_ratio = telemetry
            .registry()
            .map(|reg| reg.gauge("edgstr_cache_hit_ratio", &[]));
        ResponseCache {
            budget: budget_bytes,
            entries: BTreeMap::new(),
            recency: BTreeMap::new(),
            bytes: 0,
            stamp: 0,
            stats: CacheStats::default(),
            refusals: 0,
            events,
            hit_ratio,
        }
    }

    /// Lifetime hit/miss/eviction/invalidation counts.
    #[must_use]
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Lifetime count of refused fills.
    #[must_use]
    pub fn refusals(&self) -> u64 {
        self.refusals
    }

    /// Count a fill that did not happen because its stamp would not cover
    /// what the execution read ([`stamp_covers`]): the profile the stamp
    /// came from missed a read this execution made.
    pub fn refuse(&mut self) {
        self.refusals += 1;
        self.event(REFUSE);
    }

    /// Resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Resident entry bytes (always within the budget).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Drop every entry (a restarted replica's versions reset to zero, so
    /// stale entries could otherwise revalidate against fresh counters).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.recency.clear();
        self.bytes = 0;
    }

    fn event(&self, idx: usize) {
        if let Some(events) = &self.events {
            events[idx].inc();
        }
    }

    fn publish_ratio(&self) {
        if let Some(g) = &self.hit_ratio {
            g.set(self.stats.hit_ratio());
        }
    }

    fn remove(&mut self, key: &CacheKey) {
        if let Some(e) = self.entries.remove(key) {
            self.recency.remove(&e.stamp);
            self.bytes -= e.bytes;
        }
    }

    /// Look up `key`, validating the stored read-set versions against
    /// `versions`. A version mismatch removes the entry (invalidation) and
    /// reports a miss.
    pub fn lookup(&mut self, key: &CacheKey, versions: &UnitVersions) -> Option<HttpResponse> {
        let valid = match self.entries.get(key) {
            None => {
                self.stats.misses += 1;
                self.event(MISS);
                self.publish_ratio();
                return None;
            }
            Some(e) => e.reads.iter().all(|(k, v)| versions.get(k) == *v),
        };
        if !valid {
            self.remove(key);
            self.stats.invalidations += 1;
            self.event(INVALIDATE);
            self.stats.misses += 1;
            self.event(MISS);
            self.publish_ratio();
            return None;
        }
        self.stamp += 1;
        let entry = self.entries.get_mut(key).expect("validated entry present");
        let owned_key = self
            .recency
            .remove(&entry.stamp)
            .expect("resident entry is in the recency index");
        entry.stamp = self.stamp;
        self.recency.insert(self.stamp, owned_key);
        // shares the entry's body: its text and size, and the digest once
        // any holder has asked for it
        let response = entry.response.clone();
        self.stats.hits += 1;
        self.event(HIT);
        self.publish_ratio();
        Some(response)
    }

    /// Insert a response under `key` with its read-set version stamp,
    /// evicting least-recently-used entries until the budget holds. An
    /// entry larger than the whole budget is not cached.
    pub fn fill(&mut self, key: CacheKey, response: &HttpResponse, reads: Vec<(UnitKey, u64)>) {
        let bytes = response.size() + key.cost() + reads.len() * 48 + 64;
        if bytes > self.budget {
            return;
        }
        self.remove(&key);
        self.stamp += 1;
        self.recency.insert(self.stamp, key.clone());
        self.bytes += bytes;
        self.entries.insert(
            key,
            Entry {
                response: response.clone(),
                reads,
                bytes,
                stamp: self.stamp,
            },
        );
        while self.bytes > self.budget {
            let victim = self
                .recency
                .values()
                .next()
                .expect("over-budget cache has entries")
                .clone();
            self.remove(&victim);
            self.stats.evictions += 1;
            self.event(EVICT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn resp(n: i64) -> HttpResponse {
        HttpResponse::ok(json!({ "n": n }))
    }

    fn key(i: usize) -> CacheKey {
        CacheKey::for_request(&HttpRequest::get("/r", json!({ "i": i })))
    }

    #[test]
    fn hit_until_read_unit_version_moves() {
        let mut v = UnitVersions::default();
        let mut c = ResponseCache::new(64 * 1024, &Telemetry::disabled());
        let reads = vec![UnitKey::Columns("t".into(), ColumnSet::ALL)];
        c.fill(key(1), &resp(1), v.snapshot(&reads));
        assert_eq!(c.lookup(&key(1), &v), Some(resp(1)));
        v.touch_row("t", Some("x"), Some(ColumnSet::of(1))); // a cell of every column
        assert_eq!(c.lookup(&key(1), &v), None, "stale entry must invalidate");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn row_keyed_entries_survive_other_rows_writes() {
        let mut v = UnitVersions::default();
        let mut c = ResponseCache::new(64 * 1024, &Telemetry::disabled());
        let keyed = vec![UnitKey::Row("t".into(), "a".into())];
        let whole = vec![UnitKey::Columns("t".into(), ColumnSet::ALL)];
        c.fill(key(1), &resp(1), v.snapshot(&keyed));
        c.fill(key(2), &resp(2), v.snapshot(&whole));
        v.touch_row("t", Some("b"), None);
        assert_eq!(c.lookup(&key(1), &v), Some(resp(1)), "other row untouched");
        assert_eq!(c.lookup(&key(2), &v), None, "whole-table reader stale");
        v.touch_row("t", Some("a"), Some(ColumnSet::of(3)));
        assert_eq!(c.lookup(&key(1), &v), None, "own row write invalidates");
    }

    /// A whole-table reader of some columns moves with the row set and
    /// with those columns, not with the others; a write of every cell as it
    /// was moves nothing at all.
    #[test]
    fn column_readers_survive_writes_to_other_columns() {
        let mut v = UnitVersions::default();
        let mut c = ResponseCache::new(64 * 1024, &Telemetry::disabled());
        let id_title = ColumnSet::of(0).with(1);
        let titles = vec![UnitKey::Columns("t".into(), id_title)];
        let count = vec![UnitKey::Columns("t".into(), ColumnSet::NONE)];
        let every = vec![UnitKey::Columns("t".into(), ColumnSet::ALL)];
        let fill_all = |c: &mut ResponseCache, v: &UnitVersions| {
            c.fill(key(1), &resp(1), v.snapshot(&titles));
            c.fill(key(2), &resp(2), v.snapshot(&count));
            c.fill(key(3), &resp(3), v.snapshot(&every));
        };
        let hits = |c: &mut ResponseCache, v: &UnitVersions| {
            [1, 2, 3].map(|i| c.lookup(&key(i), v).is_some())
        };
        fill_all(&mut c, &v);
        v.touch_row("t", Some("a"), Some(ColumnSet::NONE));
        assert_eq!(hits(&mut c, &v), [true, true, true], "nothing changed");
        v.touch_row("t", Some("a"), Some(ColumnSet::of(4)));
        assert_eq!(hits(&mut c, &v), [true, true, false], "stock only");
        fill_all(&mut c, &v);
        v.touch_row("t", Some("a"), Some(ColumnSet::of(1)));
        assert_eq!(hits(&mut c, &v), [false, true, false], "a title");
        fill_all(&mut c, &v);
        v.touch_row("t", Some("z"), None);
        assert_eq!(hits(&mut c, &v), [false, false, false], "a new row");
        // a row of a table without a primary key moves the same counters
        fill_all(&mut c, &v);
        v.touch_row("t", None, Some(ColumnSet::of(1)));
        assert_eq!(hits(&mut c, &v), [false, true, false], "a keyless title");
        fill_all(&mut c, &v);
        v.touch_row("t", None, None);
        assert_eq!(hits(&mut c, &v), [false, false, false], "a keyless row");
        // a sum of counters that only grow moves whenever one of them does
        let before = v.get(&titles[0]);
        v.touch_row("t", Some("b"), Some(id_title));
        assert_eq!(v.get(&titles[0]), before + 2);
    }

    /// Which reads a stamp covers: a pinned read by its row, any read by a
    /// column stamp of its table listing its columns.
    #[test]
    fn a_stamp_covers_the_reads_it_would_see_change() {
        let read = |table: &str, key: Option<&str>, columns| SqlRead {
            table: table.into(),
            key: key.map(str::to_string),
            columns,
        };
        let title = ColumnSet::of(1);
        let keyed = [UnitKey::Row("t".into(), "a".into())];
        let titles = [UnitKey::Columns("t".into(), ColumnSet::of(0).with(1))];
        assert!(stamp_covers(
            &keyed,
            &[read("t", Some("a"), ColumnSet::ALL)]
        ));
        assert!(!stamp_covers(&keyed, &[read("t", Some("b"), title)]));
        assert!(!stamp_covers(&keyed, &[read("t", None, title)]));
        assert!(!stamp_covers(&keyed, &[read("u", Some("a"), title)]));
        assert!(stamp_covers(
            &titles,
            &[read("t", None, title), read("t", Some("b"), title)]
        ));
        assert!(!stamp_covers(&titles, &[read("t", None, ColumnSet::of(2))]));
        assert!(!stamp_covers(&titles, &[read("u", None, ColumnSet::NONE)]));
        assert!(stamp_covers(&[], &[]));
    }

    #[test]
    fn lru_eviction_respects_byte_budget() {
        let v = UnitVersions::default();
        // measure one entry, then budget for exactly two
        let mut probe = ResponseCache::new(1 << 20, &Telemetry::disabled());
        probe.fill(key(1), &resp(1), Vec::new());
        let per_entry = probe.bytes();
        let budget = per_entry * 2 + per_entry / 2;
        let mut c = ResponseCache::new(budget, &Telemetry::disabled());
        c.fill(key(1), &resp(1), Vec::new());
        c.fill(key(2), &resp(2), Vec::new());
        assert_eq!(c.len(), 2);
        // touch 1 so 2 becomes the LRU victim
        assert!(c.lookup(&key(1), &v).is_some());
        c.fill(key(3), &resp(3), Vec::new());
        assert!(c.bytes() <= budget);
        assert!(c.lookup(&key(2), &v).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key(1), &v).is_some());
        assert!(c.lookup(&key(3), &v).is_some());
        assert!(c.stats().evictions >= 1);
        // an entry larger than the whole budget is refused outright
        let mut tiny = ResponseCache::new(16, &Telemetry::disabled());
        tiny.fill(key(9), &resp(9), Vec::new());
        assert!(tiny.is_empty());
    }

    #[test]
    fn entry_and_hits_share_one_body() {
        let v = UnitVersions::default();
        let mut c = ResponseCache::new(64 * 1024, &Telemetry::disabled());
        let filled = resp(1);
        c.fill(key(1), &filled, Vec::new());
        // the text was encoded when the body was built; every hit, and the
        // response the fill was given, read that same allocation
        let first = c.lookup(&key(1), &v).unwrap();
        let text = first.body.text();
        let second = c.lookup(&key(1), &v).unwrap();
        assert!(std::ptr::eq(text, second.body.text()), "hit re-encoded");
        assert!(std::ptr::eq(text, filled.body.text()), "fill deep-copied");
        assert_eq!(second, resp(1));
    }

    #[test]
    fn cache_key_distinguishes_params_and_body() {
        let a = CacheKey::for_request(&HttpRequest::get("/r", json!({ "k": 1 })));
        let b = CacheKey::for_request(&HttpRequest::get("/r", json!({ "k": 2 })));
        assert_ne!(a, b);
        let c = CacheKey::for_request(&HttpRequest::post("/r", json!({}), b"x".to_vec()));
        let d = CacheKey::for_request(&HttpRequest::post("/r", json!({}), b"y".to_vec()));
        assert_ne!(c, d);
        let e = CacheKey::for_request(&HttpRequest::get("/r", json!({ "k": 1 })));
        assert_eq!(a, e);
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let telemetry = Telemetry::recording();
        let mut v = UnitVersions::default();
        let mut c = ResponseCache::new(64 * 1024, &telemetry);
        let reads = vec![UnitKey::Global("g".into())];
        assert!(c.lookup(&key(1), &v).is_none()); // miss
        c.fill(key(1), &resp(1), v.snapshot(&reads));
        assert!(c.lookup(&key(1), &v).is_some()); // hit
        v.touch_global("g");
        assert!(c.lookup(&key(1), &v).is_none()); // invalidate + miss
        c.refuse();
        let reg = telemetry.registry().unwrap();
        let count = |op: &str| {
            reg.counter("edgstr_cache_events_total", &[("op", op)])
                .get()
        };
        assert_eq!(count("hit"), c.stats().hits);
        assert_eq!(count("miss"), c.stats().misses);
        assert_eq!(count("invalidate"), c.stats().invalidations);
        assert_eq!(count("refuse"), c.refusals());
        let ratio = reg.gauge("edgstr_cache_hit_ratio", &[]).get();
        assert!((ratio - c.stats().hit_ratio()).abs() < 1e-12);
    }

    /// Compile-time Send audit: the whole cache — entries, version
    /// counters, and its telemetry handles (atomic since the parallel
    /// executor landed) — lives inside a worker-owned replica, so every
    /// piece must be `Send` for the replica builder to move it onto its
    /// thread.
    #[test]
    fn cache_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ResponseCache>();
        assert_send::<CacheStats>();
        assert_send::<CacheKey>();
        assert_send::<UnitKey>();
        assert_send::<UnitVersions>();
    }
}
