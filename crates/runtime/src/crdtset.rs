//! CRDT wiring: connecting service state changes to CRDT update
//! operations (§III-G.1).
//!
//! EdgStr wraps the replicated components — database tables, files, global
//! variables — into `CRDT-Table`, `CRDT-Files`, `CRDT-JSON`. Here the three
//! are three key namespaces of one [`Doc`]: a [`CrdtSet`] holds all of one
//! replica's replicated state under one clock, one dot index and one
//! image, *absorbs* local state changes reported by the server process (the
//! generated wiring), and *materializes* remote changes back into the
//! server's database / file system / globals.

use crate::cache::UnitVersions;
use edgstr_analysis::{HandleOutcome, InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::wire::{put_changes, put_varint, Count, Sink};
use edgstr_crdt::{ActorId, Cell, CrdtError, Doc, Row, Slot, VClock, Value};
use edgstr_sql::columns::ColumnSet;
use edgstr_sql::{ColumnMeta, RowEffect, SqlDb, SqlValue};
use serde_json::Value as Json;
use std::collections::BTreeSet;
use std::fmt::{self, Write as _};
use std::ops::Bound;
use std::sync::Arc;

// ---- key namespaces ---------------------------------------------------------
//
// A key of the set's `Doc` is a one-char tag naming its unit, then the name
// within the unit: a row's key (its primary-key cell's `SqlValue::key`), a
// file's path, a global's name. Files are tagged U+0000 and globals U+0001;
// the table at position `i` of `CrdtBindings::tables` is tagged U+0002 +
// `i`, one UTF-8 byte for the first 126 tables and two up to the 2,046th.

const FILES: char = '\0';
const GLOBALS: char = '\u{1}';

/// The tag of the bound table at position `i`.
fn table_tag(i: usize) -> char {
    u32::try_from(i + 2)
        .ok()
        .and_then(char::from_u32)
        .expect("fewer than 55,294 bound tables")
}

/// `buf`, now holding `name` under `tag`: a key of the set's `Doc`.
fn key_in(buf: &mut String, tag: char, name: impl fmt::Display) -> &str {
    buf.clear();
    buf.push(tag);
    write!(buf, "{name}").expect("writing to a String cannot fail");
    buf
}

/// The keys of `keys` tagged `tag`, each with its name, in key order.
fn under(keys: &BTreeSet<Arc<str>>, tag: char) -> impl Iterator<Item = (&str, &str)> {
    let next = char::from_u32(tag as u32 + 1).expect("no tag is the last char");
    let (mut from, mut to) = ([0; 4], [0; 4]);
    let (from, to) = (&*tag.encode_utf8(&mut from), &*next.encode_utf8(&mut to));
    let range = keys.range::<str, _>((Bound::Included(from), Bound::Excluded(to)));
    range.map(move |key| (&**key, &key[tag.len_utf8()..]))
}

/// The unit a key of a set's `Doc` belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit<'b> {
    Table(&'b str),
    Files,
    Globals,
}

/// The unit `key` belongs to under `bindings` (`None`: no bound unit).
pub(crate) fn unit_of<'b>(bindings: &'b CrdtBindings, key: &str) -> Option<Unit<'b>> {
    match key.chars().next()? {
        FILES => Some(Unit::Files),
        GLOBALS => Some(Unit::Globals),
        tag => {
            let table = bindings.tables.get((tag as usize).checked_sub(2)?)?;
            Some(Unit::Table(table))
        }
    }
}

/// The replicated state of one replica: one [`Doc`] holding the rows of
/// every bound table keyed by primary key, every bound file keyed by path
/// and every bound global keyed by name, each in its unit's namespace.
#[derive(Debug)]
pub struct CrdtSet {
    pub bindings: CrdtBindings,
    doc: Doc,
    /// Per-state-unit version counters, bumped on every local mutation and
    /// every applied remote change — the response cache's validity signal.
    pub versions: UnitVersions,
    /// Messages refused because their base was one this replica's clock
    /// does not cover.
    refused: usize,
}

impl CrdtSet {
    /// Initialize the replicated state from the shared init snapshot — the
    /// paper's step 1: "initialize both the master and the replicas with
    /// the same snapshot of the cloud-based service".
    ///
    /// # Panics
    ///
    /// When a bound table of the snapshot has no primary key: a row is
    /// replicated under its key, and the transform binds no table without
    /// one.
    pub fn initialize(actor: ActorId, bindings: &CrdtBindings, init: &InitState) -> CrdtSet {
        let mut entries = Vec::new();
        for (i, t) in bindings.tables.iter().enumerate() {
            if let Some(table) = init.db.table(t) {
                let pk = table
                    .pk_index()
                    .unwrap_or_else(|| panic!("bound table `{t}` has no primary key"));
                let columns = table.column_names();
                for cells in &table.rows {
                    let mut key = table_tag(i).to_string();
                    cells[pk]
                        .write_key(&mut key)
                        .expect("writing to a String cannot fail");
                    entries.push((key, row(columns, cells)));
                }
            }
        }
        for (path, data) in init.fs.entries() {
            if bindings.files.contains(&path) {
                entries.push((format!("{FILES}{path}"), Value::File(data.into())));
            }
        }
        for g in &bindings.globals {
            // a global with no JSON is not replicated
            if let Ok(value) = init.globals.get(g).map_or(Ok(Json::Null), |v| v.to_json()) {
                entries.push((format!("{GLOBALS}{g}"), Value::Json(value)));
            }
        }
        CrdtSet {
            bindings: bindings.clone(),
            doc: Doc::from_snapshot(actor, entries),
            versions: UnitVersions::default(),
            refused: 0,
        }
    }

    /// The owning actor.
    pub fn actor(&self) -> ActorId {
        self.doc.actor()
    }

    /// The clock of every change this replica has applied.
    pub fn clock(&self) -> &VClock {
        self.doc.clock()
    }

    /// The tag of bound table `table`.
    fn tag_of(&self, table: &str) -> Option<char> {
        let i = self.bindings.tables.iter().position(|t| t == table);
        i.map(table_tag)
    }

    /// The rows of bound table `table` by key, in key order (none when the
    /// table is not bound).
    pub fn rows(&self, table: &str) -> Vec<(&str, &Value)> {
        match self.tag_of(table) {
            Some(tag) => self
                .doc
                .entries_under(tag.encode_utf8(&mut [0; 4]))
                .collect(),
            None => Vec::new(),
        }
    }

    /// The bytes of bound file `path`.
    pub fn file(&self, path: &str) -> Option<&[u8]> {
        self.doc
            .get(key_in(&mut String::new(), FILES, path))?
            .as_file()
    }

    /// The JSON of bound global `name`.
    pub fn global(&self, name: &str) -> Option<&Json> {
        self.doc
            .get(key_in(&mut String::new(), GLOBALS, name))?
            .as_json()
    }

    /// Every replicated global and its JSON, by name.
    pub fn globals(&self) -> Vec<(&str, &Json)> {
        let mut tag = [0; 4];
        let globals = self.doc.entries_under(GLOBALS.encode_utf8(&mut tag));
        globals
            .filter_map(|(g, v)| Some((g, v.as_json()?)))
            .collect()
    }

    /// Absorb the local state changes of one request — the generated
    /// CRDT wiring: SQL row effects feed `CRDT-Table` (a row goes over as
    /// its typed cells, put whole), file writes feed `CRDT-Files`, and
    /// bound globals are re-read from the server into `CRDT-JSON`.
    pub fn absorb_outcome(&mut self, outcome: &HandleOutcome, server: &ServerProcess) {
        let (mut key, mut name) = (String::new(), String::new());
        // Version bumps cover *all* concrete effects, bound or not: an
        // unreplicated table/file still invalidates cached reads of it.
        for effect in &outcome.row_effects {
            let (RowEffect::Upsert { table, pk, .. } | RowEffect::Delete { table, pk }) = effect;
            let changed = match effect {
                RowEffect::Upsert { changed, .. } => *changed,
                RowEffect::Delete { .. } => None,
            };
            // a row of a table without a primary key: no table the set
            // binds, and no row counter to move
            let Some(pk) = pk else {
                self.versions.touch_row(table, None, changed);
                continue;
            };
            name.clear();
            pk.write_key(&mut name)
                .expect("writing to a String cannot fail");
            let counter = SqlValue::pk_string_of(&name);
            self.versions.touch_row(table, Some(counter), changed);
            if let Some(tag) = self.tag_of(table) {
                let key = key_in(&mut key, tag, &name);
                match effect {
                    RowEffect::Upsert { columns, cells, .. } => {
                        self.doc.put(key, row(columns, cells));
                    }
                    RowEffect::Delete { .. } => self.doc.delete(key),
                }
            }
        }
        for (path, data) in &outcome.file_writes {
            self.versions.touch_file(path);
            if self.bindings.files.contains(path) {
                let key = key_in(&mut key, FILES, path);
                self.doc.put(key, Value::File(data.as_slice().into()));
            }
        }
        // bound globals: re-read and update when changed. One with no JSON
        // is not replicated; replicas keep what was last replicated of it.
        for g in &self.bindings.globals {
            let key = key_in(&mut key, GLOBALS, g);
            match server.global_json(g) {
                Some(Ok(now)) if self.doc.get(key).and_then(Value::as_json) != Some(&now) => {
                    self.versions.touch_global(g);
                    self.doc.put(key, Value::Json(now));
                }
                Some(Err(_)) => self.versions.touch_global(g),
                _ => {}
            }
        }
        // newly-bound globals surface here even when not CRDT-bound
        for g in &outcome.global_writes {
            self.versions.touch_global(g);
        }
    }

    /// The slots of the keys holding a write the peer (summarized by
    /// `since`) has not observed.
    pub fn get_changes(&self, since: &VClock) -> Vec<Slot> {
        self.doc.get_changes(since)
    }

    /// Merge a peer's slots, read above `base` and sent under `clock`, into
    /// the CRDT ([`Doc::apply_changes`]) and materialize the merged state
    /// into the server (database rows, file contents, global values).
    /// Returns the number of keys whose slot changed; a message whose base
    /// this replica does not cover changes nothing and is counted
    /// ([`CrdtSet::refused`]). Takes the batch by value: the sync daemon's
    /// hot path hands each delta over instead of cloning it.
    pub fn apply_remote_owned(
        &mut self,
        base: &VClock,
        clock: &VClock,
        changes: Vec<Slot>,
        server: &mut ServerProcess,
    ) -> usize {
        let Some(touched) = self.doc.apply_changes(base, clock, changes) else {
            self.refused += 1;
            return 0;
        };
        for (i, name) in self.bindings.tables.iter().enumerate() {
            let keys = under(&touched, table_tag(i));
            // materialize what the delta touched into the SQL engine,
            // bumping what the materialised rows changed there
            let versions = &mut self.versions;
            materialize_rows(name, &self.doc, keys, &mut server.db, |pk, changed| {
                versions.touch_row(name, Some(SqlValue::pk_string_of(pk)), changed);
            });
        }
        let mut files = under(&touched, FILES).peekable();
        if files.peek().is_some() {
            files.for_each(|(_, path)| self.versions.touch_file(path));
            self.materialize_files(server);
        }
        let mut globals = under(&touched, GLOBALS).peekable();
        if globals.peek().is_some() {
            globals.for_each(|(_, g)| self.versions.touch_global(g));
            self.materialize_globals(server);
        }
        touched.len()
    }

    /// Push the full merged CRDT state into `server` — used when a
    /// restarted replica is provisioned from a [`CrdtSet::save`] payload
    /// rather than by replaying changes.
    pub fn materialize_all(&self, server: &mut ServerProcess) {
        for (i, name) in self.bindings.tables.iter().enumerate() {
            materialize_table(name, &self.doc, table_tag(i), &mut server.db);
        }
        self.materialize_files(server);
        self.materialize_globals(server);
    }

    /// Put the rows a failed request wrote back to their replicated state.
    /// A handler that errors after a `db.query` write leaves the row in
    /// `server.db` while its effects are dropped with the outcome, so the
    /// CRDT never hears of it; [`crate::ReplicaCore::execute`] calls this
    /// on a failed [`ServerProcess::handle`] before the replica serves
    /// again, which keeps the rule remote applies rely on: a row no delta
    /// touched reads the same in the database as in the CRDT.
    pub fn revert_failed_writes(&self, server: &mut ServerProcess) {
        let mut key = String::new();
        for effect in server.take_failed_row_effects() {
            let (RowEffect::Upsert { table, pk, .. } | RowEffect::Delete { table, pk }) = &effect;
            if let (Some(tag), Some(pk)) = (self.tag_of(table), pk) {
                // the rows go back to what the versions already describe
                key.clear();
                key.push(tag);
                pk.write_key(&mut key)
                    .expect("writing to a String cannot fail");
                let keys = [(&*key, &key[tag.len_utf8()..])];
                materialize_rows(table, &self.doc, keys, &mut server.db, |_, _| {});
            }
        }
    }

    fn materialize_files(&self, server: &mut ServerProcess) {
        for (path, value) in self.doc.entries_under(FILES.encode_utf8(&mut [0; 4])) {
            if let Some(data) = value.as_file() {
                if server.fs.peek(path) != Some(data) {
                    server.fs.write(path.to_string(), data.to_vec());
                }
            }
        }
    }

    fn materialize_globals(&self, server: &mut ServerProcess) {
        for g in &self.bindings.globals {
            if let Some(v) = self.global(g) {
                server.set_global_json(g, v);
            }
        }
    }

    /// The resident tombstones — what the sync daemon keeps bounded via
    /// [`CrdtSet::compact`].
    pub fn history_len(&self) -> usize {
        self.doc.history_len()
    }

    /// Peer messages refused whole because their base was one this replica
    /// does not cover. The protocol produces none: every message is read
    /// above what its receiver acknowledged.
    pub fn refused(&self) -> usize {
        self.refused
    }

    /// Drop the tombstones `frontier` covers (normally the
    /// [`VClock::meet`] of all live peers' ack clocks). Returns the number
    /// dropped.
    pub fn compact(&mut self, frontier: &VClock) -> usize {
        self.doc.compact(frontier)
    }

    /// Serialize the replica's state (registers and resident tombstones) —
    /// the provisioning payload for a fresh or restarted replica, bounded
    /// by state size, not lifetime mutation count. It is the one
    /// [`Doc::save`] image.
    pub fn save(&self) -> Vec<u8> {
        self.doc.save()
    }

    /// Restore a replica's state from [`CrdtSet::save`] bytes, owned by
    /// `actor`. The restored set reads the same state and serves the same
    /// deltas as the original.
    ///
    /// # Errors
    ///
    /// Returns [`CrdtError`] unless `bytes` is exactly what `save` writes.
    pub fn load(
        actor: ActorId,
        bindings: &CrdtBindings,
        bytes: &[u8],
    ) -> Result<CrdtSet, CrdtError> {
        Ok(CrdtSet {
            bindings: bindings.clone(),
            doc: Doc::load(actor, bytes)?,
            versions: UnitVersions::default(),
            refused: 0,
        })
    }

    /// The encoded length of the registers of `unit`, tombstones included:
    /// its state footprint to the placement controller (0 when the unit is
    /// not bound). Each register remembers its length once sized.
    pub(crate) fn state_bytes(&self, unit: &StateUnit) -> u64 {
        let mut buf = String::new();
        let (key, whole_table) = match unit {
            StateUnit::DbTable(t) => match self.tag_of(t) {
                Some(tag) => (key_in(&mut buf, tag, ""), true),
                None => return 0,
            },
            StateUnit::File(path) => (key_in(&mut buf, FILES, path), false),
            StateUnit::Global(g) => (key_in(&mut buf, GLOBALS, g), false),
        };
        let slots = self.doc.slots_under(key);
        let slots = slots.filter(|slot| whole_table || **slot.key() == *key);
        slots.map(|slot| slot.wire_size() as u64).sum()
    }
}

/// The register a SQL row is replicated as: its cells under `columns`.
fn row(columns: &Arc<[String]>, cells: &[SqlValue]) -> Value {
    Value::Row(Row::new(
        Arc::clone(columns),
        cells.iter().map(cell).collect(),
    ))
}

/// The cell a SQL value is replicated as.
fn cell(v: &SqlValue) -> Cell {
    match v {
        SqlValue::Null => Cell::Null,
        SqlValue::Int(i) => Cell::Int(*i),
        SqlValue::Real(r) => Cell::Real(*r),
        SqlValue::Text(s) => Cell::Text(s.clone()),
        SqlValue::Blob(b) => Cell::Blob(b.clone()),
    }
}

/// The SQL value a replicated cell reads as.
fn sql_value(c: &Cell) -> SqlValue {
    match c {
        Cell::Null => SqlValue::Null,
        Cell::Int(i) => SqlValue::Int(*i),
        Cell::Real(r) => SqlValue::Real(*r),
        Cell::Text(s) => SqlValue::Text(s.clone()),
        Cell::Blob(b) => SqlValue::Blob(b.clone()),
    }
}

/// The SQL row a CRDT row reads as: its cells in order. Every row is
/// written under its table's columns, and every replica restores the same
/// schema; a value that is no row of them reads as `NULL`s.
fn sql_row(columns: &[ColumnMeta], value: &Value) -> Vec<SqlValue> {
    match value.as_row() {
        Some(row) if row.columns().iter().eq(columns.iter().map(|c| &c.name)) => {
            row.cells().iter().map(sql_value).collect()
        }
        _ => vec![SqlValue::Null; columns.len()],
    }
}

/// Rebuild the SQL table `name` whole from its rows in `doc`, tagged `tag`
/// — for provisioning a replica from an image.
fn materialize_table(name: &str, doc: &Doc, tag: char, db: &mut SqlDb) {
    let Some(table) = db.table(name) else {
        return;
    };
    let mut prefix = [0; 4];
    let rows = doc.entries_under(tag.encode_utf8(&mut prefix));
    let rows = rows.map(|(_, row)| sql_row(&table.columns, row)).collect();
    let _ = db.replace_table_rows(name, rows);
}

/// Make the rows of SQL table `name` at `keys` (each the row's key in
/// `doc` and its name there, a [`SqlValue::key`]) read what `doc` reads
/// there: written where the CRDT has the row, deleted where it does not.
/// Every other row is left alone, which is sound because it already equals
/// its CRDT row. `changed` hears of each row that changed, by name, as a
/// [`RowEffect::Upsert`] reports it (`None`: the row arrived or left). A
/// name that is no [`SqlValue::key`] names no row, and is passed over.
fn materialize_rows<'k>(
    name: &str,
    doc: &Doc,
    keys: impl IntoIterator<Item = (&'k str, &'k str)>,
    db: &mut SqlDb,
    mut changed: impl FnMut(&str, Option<ColumnSet>),
) {
    for (key, row_name) in keys {
        let Some(pk) = SqlValue::from_key(row_name) else {
            continue;
        };
        let written = match (doc.get(key), db.table(name)) {
            (Some(row), Some(table)) => {
                let row = sql_row(&table.columns, row);
                db.upsert_row(name, row).map(Some)
            }
            (Some(_), None) => return,
            (None, _) => db
                .delete_row_by_pk(name, &pk)
                .map(|gone| gone.then_some(None)),
        };
        if let Ok(Some(change)) = written {
            changed(row_name, change);
        }
    }
}

/// One `cloud_state` / `edge_state` sync envelope (Fig. 5b): the delta
/// and what it was read above, the sender's clock it merges under, and the
/// sender's cumulative acknowledgment of what it holds.
#[derive(Debug, Clone, PartialEq)]
pub struct SetSyncMessage {
    /// The replica that produced this message.
    pub sender: ActorId,
    /// What the sender was told the destination holds (its endpoint's
    /// `peer_clock`): the delta holds every write the sender has above it.
    pub base: VClock,
    /// The sender's clock, under which the destination merges the delta.
    pub clock: VClock,
    /// What the sender acknowledges holding, where it is less than its
    /// clock: the link caps what may be promised (the durability
    /// frontier). `None` acknowledges the clock.
    pub ack: Option<VClock>,
    /// The slot of every key holding a write above `base`.
    pub changes: Vec<Slot>,
}

/// Whether a capped ack follows the clock on the wire.
const ACK_IS_CLOCK: u8 = 0;
const ACK_FOLLOWS: u8 = 1;

impl SetSyncMessage {
    /// Wire layout: `sender`, the base and the clock, the ack (a tag: the
    /// clock again, or a clock of its own), then the delta as one slot
    /// batch.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.sender.0);
        self.base.write(out);
        self.clock.write(out);
        match &self.ack {
            None => out.put(&[ACK_IS_CLOCK]),
            Some(ack) => {
                out.put(&[ACK_FOLLOWS]);
                ack.write(out);
            }
        }
        put_changes(out, &self.changes);
    }

    /// Acknowledge no more than `cap` holds. An ack the cap leaves at the
    /// clock is the clock's, and travels as a tag.
    pub fn cap_ack(&mut self, cap: &VClock) {
        let ack = self.clock.meet(cap);
        self.ack = (ack != self.clock).then_some(ack);
    }

    /// Append this message's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    /// Bytes this message costs on the WAN: the length of
    /// [`SetSyncMessage::encode`], each slot counted at the length it
    /// remembers rather than encoded again.
    pub fn wire_size(&self) -> usize {
        Count::of(|n| self.write(n))
    }
}

/// Per-peer synchronization endpoint — one side of the bidirectional
/// `socket.io`-style channel (§III-G.1). Whoever carries a message sizes it
/// ([`SetSyncMessage::wire_size`]); the endpoint only tracks the peer.
///
/// Delivery tracking is **ack-driven**: [`SyncEndpoint::generate`] does not
/// assume its outgoing delta arrives. `peer_clock` only advances when
/// [`SyncEndpoint::receive_owned`] merges the peer's acknowledged clock, so
/// a dropped message simply causes the same slots to be regenerated on
/// the next round (safe because merging a slot twice is a no-op). A
/// carrier that cannot lose or reorder a message may advance `peer_clock`
/// itself once a send is delivered; the threaded executor does.
#[derive(Debug, Default)]
pub struct SyncEndpoint {
    /// What the peer is known to have.
    pub peer_clock: VClock,
}

impl SyncEndpoint {
    /// Fresh endpoint assuming the peer has only the shared snapshot.
    pub fn new() -> Self {
        SyncEndpoint::default()
    }

    /// Fresh endpoint whose peer is known to hold `peer_clock` already —
    /// the empty clock for a peer initialised from the shared snapshot, the
    /// provisioning clock for one built from a save image (nothing below it
    /// is ever re-sent).
    pub fn starting(peer_clock: VClock) -> Self {
        SyncEndpoint { peer_clock }
    }

    /// Build the next outgoing sync message for the peer: the slot of
    /// every key holding a write it is not known to have.
    pub fn generate(&self, set: &CrdtSet) -> SetSyncMessage {
        SetSyncMessage {
            sender: set.actor(),
            base: self.peer_clock.clone(),
            clock: set.clock().clone(),
            ack: None,
            changes: set.get_changes(&self.peer_clock),
        }
    }

    /// Record receipt of a peer's message and merge its delta. The
    /// message's ack clock tells us exactly what the peer holds —
    /// including our own earlier deltas — so this is where `peer_clock`
    /// actually advances. Takes the message by value so its delta is
    /// merged without cloning. Returns the number of keys that changed.
    pub fn receive_owned(
        &mut self,
        set: &mut CrdtSet,
        server: &mut ServerProcess,
        msg: SetSyncMessage,
    ) -> usize {
        self.peer_clock
            .merge(msg.ack.as_ref().unwrap_or(&msg.clock));
        set.apply_remote_owned(&msg.base, &msg.clock, msg.changes, server)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_analysis::StateUnit;
    use edgstr_net::HttpRequest;
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v INT)");
        db.query("INSERT INTO kv VALUES ('seed', 1)");
        var hits = 0;
        app.post("/put", function (req, res) {
            hits = hits + 1;
            db.query("INSERT INTO kv VALUES ('" + req.body.k + "', " + req.body.v + ")");
            fs.writeFile("/latest.txt", req.body.k);
            res.send({ hits: hits });
        });
        app.post("/del", function (req, res) {
            db.query("DELETE FROM kv WHERE k = '" + req.body.k + "'");
            res.send({ ok: true });
        });
        app.get("/get", function (req, res) {
            var rows = db.query("SELECT v FROM kv WHERE k = '" + req.params.k + "'");
            res.send(rows);
        });
    "#;

    fn bindings() -> CrdtBindings {
        CrdtBindings::from_units([
            StateUnit::DbTable("kv".into()),
            StateUnit::File("/latest.txt".into()),
            StateUnit::Global("hits".into()),
        ])
    }

    fn make_node(actor: u64, init: &InitState) -> (ServerProcess, CrdtSet) {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        init.restore(&mut s);
        let set = CrdtSet::initialize(ActorId(actor), &bindings(), init);
        (s, set)
    }

    fn init_state() -> InitState {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        // seed the bound file so it exists in the snapshot
        s.fs.write("/latest.txt", b"seed".to_vec());
        InitState::capture(&s)
    }

    #[test]
    fn edge_write_syncs_to_cloud() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let edge_to_cloud = SyncEndpoint::new();
        let mut cloud_from_edge = SyncEndpoint::new();

        // a client writes at the edge
        let out = edge
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "x", "v": 42}),
                vec![],
            ))
            .unwrap();
        edge_set.absorb_outcome(&out, &edge);

        // background sync: edge -> cloud
        let msg = edge_to_cloud.generate(&edge_set);
        assert!(!msg.changes.is_empty());
        assert!(msg.wire_size() > 0);
        cloud_from_edge.receive_owned(&mut cloud_set, &mut cloud, msg);

        // the cloud now serves the edge-written row
        let got = cloud
            .handle(&HttpRequest::get("/get", json!({"k": "x"})))
            .unwrap();
        assert_eq!(got.response.body[0]["v"], json!(42));
        // and the bound global converged
        assert_eq!(cloud_set.global("hits"), Some(&json!(1)));
    }

    #[test]
    fn bidirectional_sync_converges_concurrent_writes() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut c2e = SyncEndpoint::new();
        let mut e2c = SyncEndpoint::new();

        let oc = cloud
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "from-cloud", "v": 1}),
                vec![],
            ))
            .unwrap();
        cloud_set.absorb_outcome(&oc, &cloud);
        let oe = edge
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "from-edge", "v": 2}),
                vec![],
            ))
            .unwrap();
        edge_set.absorb_outcome(&oe, &edge);

        // exchange deltas both ways, twice (to propagate acks)
        for _ in 0..2 {
            let d1 = c2e.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, d1);
            let d2 = e2c.generate(&edge_set);
            c2e.receive_owned(&mut cloud_set, &mut cloud, d2);
        }
        assert_eq!(cloud_set.rows("kv"), edge_set.rows("kv"));
        assert_eq!(cloud_set.rows("kv").len(), 3); // seed + 2 concurrent
                                                   // both servers answer queries about both rows
        for (srv, k, v) in [(&mut cloud, "from-edge", 2), (&mut edge, "from-cloud", 1)] {
            let got = srv
                .handle(&HttpRequest::get("/get", json!({"k": k})))
                .unwrap();
            assert_eq!(got.response.body[0]["v"], json!(v));
        }
    }

    #[test]
    fn sync_is_incremental_not_cumulative() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut e2c = SyncEndpoint::new();
        let mut c_recv = SyncEndpoint::new();

        let mut sizes = Vec::new();
        for i in 0..3 {
            let out = edge
                .handle(&HttpRequest::post(
                    "/put",
                    json!({"k": format!("k{i}"), "v": i}),
                    vec![],
                ))
                .unwrap();
            edge_set.absorb_outcome(&out, &edge);
            let msg = e2c.generate(&edge_set);
            sizes.push(msg.wire_size());
            c_recv.receive_owned(&mut cloud_set, &mut cloud, msg);
            // the cloud's reply carries its ack, advancing the edge's view
            let ack = c_recv.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, ack);
        }
        // deltas stay roughly constant instead of growing with history
        assert!(sizes[2] < sizes[0] * 3);
        // nothing left to send
        assert!(e2c.generate(&edge_set).changes.is_empty());
    }

    #[test]
    fn file_changes_materialize() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let e2c = SyncEndpoint::new();
        let mut c_recv = SyncEndpoint::new();
        let out = edge
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "zzz", "v": 9}),
                vec![],
            ))
            .unwrap();
        edge_set.absorb_outcome(&out, &edge);
        let delta = e2c.generate(&edge_set);
        c_recv.receive_owned(&mut cloud_set, &mut cloud, delta);
        assert_eq!(cloud.fs.peek("/latest.txt"), Some(&b"zzz"[..]));
    }

    #[test]
    fn unbound_state_is_not_synchronized() {
        let init = init_state();
        let narrow = CrdtBindings::from_units([StateUnit::Global("hits".into())]);
        let mut edge = ServerProcess::from_source(APP).unwrap();
        edge.init().unwrap();
        init.restore(&mut edge);
        let mut edge_set = CrdtSet::initialize(ActorId(2), &narrow, &init);
        let out = edge
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "q", "v": 1}),
                vec![],
            ))
            .unwrap();
        edge_set.absorb_outcome(&out, &edge);
        let delta = edge_set.get_changes(&VClock::new());
        // only the global was written beyond genesis
        let units: Vec<_> = delta.iter().map(|c| unit_of(&narrow, c.key())).collect();
        assert_eq!(units, [Some(Unit::Globals)]);
    }

    /// Both nodes were initialised from the same snapshot (PAPER.md §1
    /// step 7), so endpoints that know nothing of their peer still have
    /// nothing to say on the first round; the snapshot does not cross the
    /// WAN. Writes after that travel as before, and the unindexed genesis
    /// survives a save/load.
    #[test]
    fn the_shared_snapshot_is_never_shipped() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        assert!(!edge_set.rows("kv").is_empty() && edge_set.file("/latest.txt").is_some());
        assert_eq!(edge_set.history_len(), 0, "genesis deletes nothing");
        assert!(edge_set.get_changes(&VClock::new()).is_empty());
        let mut e2c = SyncEndpoint::new();
        let mut c2e = SyncEndpoint::new();
        let up = e2c.generate(&edge_set);
        assert!(up.changes.is_empty());
        assert_eq!(c2e.receive_owned(&mut cloud_set, &mut cloud, up), 0);
        let down = c2e.generate(&cloud_set);
        assert!(down.changes.is_empty());
        assert_eq!(e2c.receive_owned(&mut edge_set, &mut edge, down), 0);

        let out = edge
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "x", "v": 42}),
                vec![],
            ))
            .unwrap();
        edge_set.absorb_outcome(&out, &edge);
        let up = e2c.generate(&edge_set);
        assert_eq!(up.changes.len(), 3, "row, file and global");
        c2e.receive_owned(&mut cloud_set, &mut cloud, up);
        assert_eq!(cloud_set.rows("kv"), edge_set.rows("kv"));

        let fresh = CrdtSet::initialize(ActorId(3), &bindings(), &init);
        let loaded = CrdtSet::load(ActorId(3), &bindings(), &fresh.save()).unwrap();
        assert_eq!(loaded.clock(), fresh.clock());
        assert_eq!(loaded.history_len(), 0);
        assert_eq!(loaded.rows("kv"), fresh.rows("kv"));
        assert!(loaded.get_changes(&VClock::new()).is_empty());
    }

    /// `wire_size` is the length of `encode`, whatever the message holds.
    #[test]
    fn a_set_message_is_as_long_as_its_encoding() {
        let slot = |pk: &str| {
            let mut t = Doc::new(ActorId(4));
            let row = Row::new(
                ["k".to_string(), "v".to_string()].into(),
                [Cell::Text(pk.to_string()), Cell::Int(1)].into(),
            );
            t.put(pk, Value::Row(row));
            t.get_changes(&VClock::new())
        };
        let mut clock = VClock::new();
        clock.observe(ActorId(0), 1);
        clock.observe(ActorId(2), 70_000);
        let mut base = VClock::new();
        base.observe(ActorId(2), 1);
        for (n, capped) in [(0, false), (1, true), (3, false)] {
            let ack = capped.then(|| base.clone());
            let msg = SetSyncMessage {
                sender: ActorId(300),
                base: base.clone(),
                clock: clock.clone(),
                ack,
                changes: (0..n).flat_map(|i| slot(&format!("k{i}"))).collect(),
            };
            let mut bytes = Vec::new();
            msg.encode(&mut bytes);
            assert_eq!(msg.wire_size(), bytes.len(), "{n} slots");
            // what is not the slots is the envelope: the sender (two
            // bytes), the base (three), the clock (seven), the ack's tag
            // (one, then three when it is not the clock) and the slot
            // count (one)
            let slots: usize = msg.changes.iter().map(Slot::wire_size).sum();
            let ack = if capped { 3 } else { 0 };
            assert_eq!(bytes.len() - slots, 14 + ack, "{n} slots");
        }
        // an empty message: sender, empty base and clock, the ack is the
        // clock, an empty batch
        let empty = SetSyncMessage {
            sender: ActorId(1),
            base: VClock::new(),
            clock: VClock::new(),
            ack: None,
            changes: Vec::new(),
        };
        let mut bytes = Vec::new();
        empty.encode(&mut bytes);
        assert_eq!(bytes, [1, 0, 0, 0, 0]);
    }

    /// The sync daemon's compaction loop: after a full bidirectional
    /// exchange the meet of the ack clocks covers everything, compaction
    /// drops every tombstone, and replication keeps working.
    #[test]
    fn meet_frontier_compaction_bounds_history_and_keeps_syncing() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut c2e = SyncEndpoint::new();
        let mut e2c = SyncEndpoint::new();

        for i in 0..10 {
            let out = edge
                .handle(&HttpRequest::post(
                    "/put",
                    json!({"k": format!("k{i}"), "v": i}),
                    vec![],
                ))
                .unwrap();
            edge_set.absorb_outcome(&out, &edge);
        }
        for i in 0..3 {
            let out = edge
                .handle(&HttpRequest::post(
                    "/del",
                    json!({"k": format!("k{i}")}),
                    vec![],
                ))
                .unwrap();
            edge_set.absorb_outcome(&out, &edge);
        }
        // two full rounds so both sides' acks cover everything
        for _ in 0..2 {
            let up = e2c.generate(&edge_set);
            c2e.receive_owned(&mut cloud_set, &mut cloud, up);
            let down = c2e.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, down);
        }
        assert_eq!(cloud_set.history_len(), 3);
        // the cloud's only peer is the edge: frontier = own clock ⊓ peer ack
        let frontier = cloud_set.clock().meet(&c2e.peer_clock);
        let dropped = cloud_set.compact(&frontier);
        assert_eq!(dropped, 3);
        assert_eq!(cloud_set.history_len(), 0, "every tombstone was acked");
        // replication continues across the compacted master
        let out = cloud
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "post-compaction", "v": 99}),
                vec![],
            ))
            .unwrap();
        cloud_set.absorb_outcome(&out, &cloud);
        let down = c2e.generate(&cloud_set);
        e2c.receive_owned(&mut edge_set, &mut edge, down);
        assert_eq!(cloud_set.rows("kv"), edge_set.rows("kv"));
    }

    /// A compacted master's save payload provisions a replica that reads
    /// the same state and keeps exchanging deltas.
    #[test]
    fn set_save_load_provisions_equivalent_replica() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        for i in 0..5 {
            let out = cloud
                .handle(&HttpRequest::post(
                    "/put",
                    json!({"k": format!("k{i}"), "v": i}),
                    vec![],
                ))
                .unwrap();
            cloud_set.absorb_outcome(&out, &cloud);
        }
        // compact everything: provisioning must not depend on tombstones
        let frontier = cloud_set.clock().clone();
        cloud_set.compact(&frontier);
        let bytes = cloud_set.save();

        let mut fresh = ServerProcess::from_source(APP).unwrap();
        fresh.init().unwrap();
        init.restore(&mut fresh);
        let restored = CrdtSet::load(ActorId(9), &bindings(), &bytes).unwrap();
        restored.materialize_all(&mut fresh);
        assert_eq!(restored.rows("kv"), cloud_set.rows("kv"));
        assert_eq!(fresh.fs.peek("/latest.txt"), Some(&b"k4"[..]));
        // the restored replica answers queries from its materialized DB
        let got = fresh
            .handle(&HttpRequest::get("/get", json!({"k": "k3"})))
            .unwrap();
        assert_eq!(got.response.body[0]["v"], json!(3));

        // and continues to sync: a new write at the restored edge reaches
        // the cloud
        let mut restored = restored;
        let mut r2c = SyncEndpoint::new();
        let mut c2r = SyncEndpoint::new();
        // the restored replica starts from the cloud's clock, so neither
        // side resends history
        r2c.peer_clock = cloud_set.clock().clone();
        c2r.peer_clock = restored.clock().clone();
        let out = fresh
            .handle(&HttpRequest::post(
                "/put",
                json!({"k": "from-restored", "v": 7}),
                vec![],
            ))
            .unwrap();
        restored.absorb_outcome(&out, &fresh);
        let up = r2c.generate(&restored);
        // one table row + one file write + one global update — no history
        assert_eq!(up.changes.len(), 3, "only the new writes travel");
        c2r.receive_owned(&mut cloud_set, &mut cloud, up);
        assert_eq!(cloud_set.rows("kv"), restored.rows("kv"));
    }

    /// The image is the one `Doc` image, read to the end and only as
    /// `save` writes it.
    #[test]
    fn a_set_image_is_read_strictly() {
        let (_, set) = make_node(1, &init_state());
        let load = |bytes: &[u8]| CrdtSet::load(ActorId(2), &bindings(), bytes);
        let image = set.save();
        assert_eq!(image, set.doc.save());
        assert_eq!(load(&image).unwrap().save(), image);
        for cut in 0..image.len() {
            assert!(load(&image[..cut]).is_err(), "prefix {cut}");
        }
        assert!(load(&[&image[..], &[0]].concat()).is_err());
    }

    /// The bound tables, file and global as a server holds them.
    fn replicated(server: &ServerProcess) -> (String, Option<Vec<u8>>, Option<Json>) {
        (
            format!("{:?}", server.db.table("kv").unwrap().rows),
            server.fs.peek("/latest.txt").map(<[u8]>::to_vec),
            server.global_json("hits").map(Result::unwrap),
        )
    }

    /// A half-compacted set restored from its image is the set it was
    /// saved from: clock, resident tombstones, the delta served at any
    /// cursor, the replicated state it materializes, and what a concurrent
    /// delta from an edge that has not seen the latest writes does to both.
    #[test]
    fn a_restored_set_is_the_set_that_was_saved() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut c2e = SyncEndpoint::new();
        let mut e2c = SyncEndpoint::new();
        let request = |server: &mut ServerProcess, set: &mut CrdtSet, path: &str, k: &str| {
            let out = server
                .handle(&HttpRequest::post(path, json!({"k": k, "v": 1}), vec![]))
                .unwrap();
            set.absorb_outcome(&out, server);
        };
        for i in 0..4 {
            request(&mut cloud, &mut cloud_set, "/put", &format!("c{i}"));
            request(&mut edge, &mut edge_set, "/put", &format!("e{i}"));
        }
        request(&mut cloud, &mut cloud_set, "/del", "c0");
        for _ in 0..2 {
            let up = e2c.generate(&edge_set);
            c2e.receive_owned(&mut cloud_set, &mut cloud, up);
            let down = c2e.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, down);
        }
        // drop what the edge acked; two more deletes stay resident
        let acked = cloud_set.clock().meet(&c2e.peer_clock);
        assert_eq!(cloud_set.compact(&acked), 1);
        request(&mut cloud, &mut cloud_set, "/del", "c1");
        request(&mut cloud, &mut cloud_set, "/del", "e1");
        request(&mut cloud, &mut cloud_set, "/put", "both");
        assert_eq!(cloud_set.history_len(), 2);

        let mut fresh = ServerProcess::from_source(APP).unwrap();
        fresh.init().unwrap();
        init.restore(&mut fresh);
        let mut restored = CrdtSet::load(ActorId(9), &bindings(), &cloud_set.save()).unwrap();
        restored.materialize_all(&mut fresh);
        assert_eq!(restored.actor(), ActorId(9));
        assert_eq!(restored.clock(), cloud_set.clock());
        assert_eq!(restored.history_len(), cloud_set.history_len());
        for cursor in [&VClock::new(), &acked, cloud_set.clock()] {
            assert_eq!(
                restored.get_changes(cursor),
                cloud_set.get_changes(cursor),
                "{cursor:?}"
            );
        }
        assert_eq!(replicated(&fresh), replicated(&cloud));

        // every write supersedes the file and global the cloud last wrote;
        // the second also upserts a row the cloud upserted concurrently
        request(&mut edge, &mut edge_set, "/put", "fresh");
        request(&mut edge, &mut edge_set, "/put", "both");
        let concurrent = edge_set.get_changes(&acked);
        let clock = edge_set.clock().clone();
        let apply = |set: &mut CrdtSet, server: &mut ServerProcess| {
            set.apply_remote_owned(&acked, &clock, concurrent.clone(), server)
        };
        assert_eq!(
            apply(&mut restored, &mut fresh),
            apply(&mut cloud_set, &mut cloud)
        );
        assert_eq!(restored.clock(), cloud_set.clock());
        assert_eq!(replicated(&fresh), replicated(&cloud));
        assert_eq!(restored.rows("kv"), cloud_set.rows("kv"));
        assert_eq!((restored.refused(), cloud_set.refused()), (0, 0));
    }
}

#[cfg(test)]
mod namespace_tests {
    //! Every unit is a namespace of the set's one `Doc`: units that use
    //! the same name stay apart.

    use super::*;
    use edgstr_analysis::StateUnit;
    use edgstr_net::HttpRequest;
    use serde_json::json;

    /// Three tables, a file and a global, each written under the name
    /// `cfg`.
    const APP: &str = r#"
        db.query("CREATE TABLE a (k TEXT PRIMARY KEY, v INT)");
        db.query("CREATE TABLE b (k TEXT PRIMARY KEY, w TEXT)");
        db.query("CREATE TABLE log (msg TEXT PRIMARY KEY)");
        db.query("INSERT INTO log VALUES ('seed')");
        var cfg = 0;
        app.post("/all", function (req, res) {
            db.query("INSERT INTO a VALUES ('cfg', 1)");
            db.query("INSERT INTO b VALUES ('cfg', 'two')");
            db.query("INSERT INTO log VALUES ('cfg')");
            fs.writeFile("cfg", "file");
            cfg = { v: 3 };
            res.send({ ok: 1 });
        });
    "#;

    fn bindings() -> CrdtBindings {
        CrdtBindings::from_units([
            StateUnit::DbTable("a".into()),
            StateUnit::DbTable("b".into()),
            StateUnit::DbTable("log".into()),
            StateUnit::File("cfg".into()),
            StateUnit::Global("cfg".into()),
        ])
    }

    fn node(actor: u64, init: &InitState) -> (ServerProcess, CrdtSet) {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        init.restore(&mut s);
        (s, CrdtSet::initialize(ActorId(actor), &bindings(), init))
    }

    fn rows(server: &ServerProcess, table: &str) -> Vec<Vec<SqlValue>> {
        server.db.table(table).unwrap().rows.clone()
    }

    #[test]
    fn units_named_alike_replicate_apart() {
        let init = {
            let mut s = ServerProcess::from_source(APP).unwrap();
            s.init().unwrap();
            InitState::capture(&s)
        };
        let (mut writer, mut writer_set) = node(2, &init);
        let (mut peer, mut peer_set) = node(1, &init);
        let out = writer
            .handle(&HttpRequest::post("/all", json!({}), vec![]))
            .unwrap();
        writer_set.absorb_outcome(&out, &writer);
        let msg = SyncEndpoint::new().generate(&writer_set);
        assert_eq!(
            msg.changes.len(),
            5,
            "a row in each table, a file, a global"
        );
        SyncEndpoint::new().receive_owned(&mut peer_set, &mut peer, msg);

        let text = |s: &str| SqlValue::Text(s.to_string());
        for (server, set) in [(&writer, &writer_set), (&peer, &peer_set)] {
            let row = |table| {
                let mut rows = set.rows(table).into_iter();
                rows.find(|(k, _)| *k == "'cfg'")
                    .and_then(|(_, v)| v.as_row())
            };
            assert_eq!(
                row("a").unwrap().cells(),
                [Cell::Text("cfg".into()), Cell::Int(1)]
            );
            assert_eq!(
                row("b").unwrap().cells(),
                [Cell::Text("cfg".into()), Cell::Text("two".into())]
            );
            assert_eq!(row("log").unwrap().cells(), [Cell::Text("cfg".into())]);
            assert_eq!(set.rows("a").len(), 1);
            assert_eq!(set.rows("b").len(), 1);
            assert_eq!(set.rows("log").len(), 2);
            assert_eq!(set.file("cfg"), Some(&b"file"[..]));
            assert_eq!(set.global("cfg"), Some(&json!({"v": 3})));
            assert_eq!(set.globals(), [("cfg", &json!({"v": 3}))]);
            assert_eq!(rows(server, "a"), [vec![text("cfg"), SqlValue::Int(1)]]);
            assert_eq!(rows(server, "b"), [vec![text("cfg"), text("two")]]);
            assert_eq!(server.fs.peek("cfg"), Some(&b"file"[..]));
            assert_eq!(server.global_json("cfg"), Some(Ok(json!({"v": 3}))));
        }
        // the peer wrote the one row the delta touched beside its own
        assert_eq!(rows(&peer, "log"), [vec![text("cfg")], vec![text("seed")]]);
        assert_eq!(rows(&peer, "log"), rows(&writer, "log"));
        // and a provisioned replica reads each unit back from the image
        let loaded = CrdtSet::load(ActorId(3), &bindings(), &writer_set.save()).unwrap();
        let (mut fresh, _) = node(3, &init);
        loaded.materialize_all(&mut fresh);
        for table in ["a", "b", "log"] {
            assert_eq!(rows(&fresh, table), rows(&writer, table), "{table}");
        }
        assert_eq!(fresh.fs.peek("cfg"), Some(&b"file"[..]));
        assert_eq!(fresh.global_json("cfg"), Some(Ok(json!({"v": 3}))));
    }
}

#[cfg(test)]
mod partition_tests {
    use super::*;
    use edgstr_analysis::{InitState, ServerProcess, StateUnit};
    use edgstr_core::CrdtBindings;
    use edgstr_crdt::ActorId;
    use edgstr_net::HttpRequest;
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE log (id INT PRIMARY KEY, msg TEXT)");
        app.post("/log", function (req, res) {
            db.query("INSERT INTO log VALUES (" + req.body.id + ", '" + req.body.msg + "')");
            res.send({ ok: req.body.id });
        });
    "#;

    /// An edge that was partitioned from the cloud for many local writes
    /// catches up with a single delta exchange — the weak-consistency
    /// tolerance the paper's WAN assumption requires (§III-F).
    #[test]
    fn partitioned_edge_catches_up_in_one_exchange() {
        let mut seed = ServerProcess::from_source(APP).unwrap();
        seed.init().unwrap();
        let init = InitState::capture(&seed);
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("log".into())]);

        let mut cloud = ServerProcess::from_source(APP).unwrap();
        cloud.init().unwrap();
        init.restore(&mut cloud);
        let mut cloud_set = CrdtSet::initialize(ActorId(1), &bindings, &init);

        let mut edge = ServerProcess::from_source(APP).unwrap();
        edge.init().unwrap();
        init.restore(&mut edge);
        let mut edge_set = CrdtSet::initialize(ActorId(2), &bindings, &init);

        // 25 writes at the edge while the WAN is down; cloud writes too
        for i in 0..25 {
            let out = edge
                .handle(&HttpRequest::post(
                    "/log",
                    json!({"id": i, "msg": format!("edge{i}")}),
                    vec![],
                ))
                .unwrap();
            edge_set.absorb_outcome(&out, &edge);
        }
        for i in 100..105 {
            let out = cloud
                .handle(&HttpRequest::post(
                    "/log",
                    json!({"id": i, "msg": format!("cloud{i}")}),
                    vec![],
                ))
                .unwrap();
            cloud_set.absorb_outcome(&out, &cloud);
        }

        // partition heals: one bidirectional exchange
        let mut e2c = SyncEndpoint::new();
        let mut c2e = SyncEndpoint::new();
        let up = e2c.generate(&edge_set);
        c2e.receive_owned(&mut cloud_set, &mut cloud, up);
        let down = c2e.generate(&cloud_set);
        e2c.receive_owned(&mut edge_set, &mut edge, down);

        assert_eq!(cloud_set.rows("log").len(), 30);
        assert_eq!(cloud_set.rows("log"), edge_set.rows("log"));
        // both SQL databases materialized the merged rows
        for srv in [&mut cloud, &mut edge] {
            match srv.db.exec("SELECT COUNT(*) FROM log").unwrap() {
                edgstr_sql::SqlResult::Rows { rows, .. } => {
                    assert_eq!(rows[0][0], edgstr_sql::SqlValue::Int(30));
                }
                other => panic!("{other:?}"),
            }
        }
    }

    /// A row is replicated under its key, so hand-built bindings that name
    /// a table without one are refused, by name, before anything syncs.
    #[test]
    #[should_panic(expected = "bound table `log` has no primary key")]
    fn a_bound_keyless_table_is_refused() {
        let mut s =
            ServerProcess::from_source(r#"db.query("CREATE TABLE log (msg TEXT)");"#).unwrap();
        s.init().unwrap();
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("log".into())]);
        CrdtSet::initialize(ActorId(1), &bindings, &InitState::capture(&s));
    }

    /// A replica restored from an image older than what it acknowledged
    /// cannot take a delta read above that acknowledgment: the message is
    /// refused whole, changes nothing and is counted. Once its peer's end
    /// starts over at the restored clock, the next delta lands.
    #[test]
    fn a_message_above_an_uncovered_base_is_refused_and_counted() {
        let mut seed = ServerProcess::from_source(APP).unwrap();
        seed.init().unwrap();
        let init = InitState::capture(&seed);
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("log".into())]);
        let node = |actor| {
            let mut s = ServerProcess::from_source(APP).unwrap();
            s.init().unwrap();
            init.restore(&mut s);
            (s, CrdtSet::initialize(ActorId(actor), &bindings, &init))
        };
        let ((mut cloud, mut cloud_set), (mut edge, mut edge_set)) = (node(1), node(2));
        let write = |server: &mut ServerProcess, set: &mut CrdtSet, id: u64| {
            let req = HttpRequest::post("/log", json!({"id": id, "msg": "m"}), vec![]);
            let out = server.handle(&req).unwrap();
            set.absorb_outcome(&out, server);
        };
        let old_image = edge_set.save();
        write(&mut edge, &mut edge_set, 1);
        let (mut e2c, mut c2e) = (SyncEndpoint::new(), SyncEndpoint::new());
        let up = e2c.generate(&edge_set);
        c2e.receive_owned(&mut cloud_set, &mut cloud, up);

        // the edge comes back from the image it saved before that write
        let mut restored = CrdtSet::load(ActorId(2), &bindings, &old_image).unwrap();
        restored.materialize_all(&mut edge);
        write(&mut cloud, &mut cloud_set, 2);
        let down = c2e.generate(&cloud_set);
        assert!(!restored.clock().dominates(&down.base));
        let (clock, rows) = (restored.clock().clone(), restored.rows("log").len());
        assert_eq!(e2c.receive_owned(&mut restored, &mut edge, down), 0);
        assert_eq!(restored.refused(), 1);
        assert_eq!(
            (restored.clock(), restored.rows("log").len()),
            (&clock, rows)
        );

        c2e.peer_clock = restored.clock().clone();
        let down = c2e.generate(&cloud_set);
        assert_eq!(e2c.receive_owned(&mut restored, &mut edge, down), 2);
        assert_eq!(restored.rows("log"), cloud_set.rows("log"));
        assert_eq!(restored.refused(), 1);
    }

    /// Message loss: under the ack protocol the endpoint does not advance
    /// its view of the peer on send, so a dropped delta is regenerated
    /// verbatim on the next round and a late duplicate is harmless.
    #[test]
    fn dropped_sync_message_is_recovered() {
        let mut seed = ServerProcess::from_source(APP).unwrap();
        seed.init().unwrap();
        let init = InitState::capture(&seed);
        let bindings = CrdtBindings::from_units([StateUnit::DbTable("log".into())]);
        let mut cloud = ServerProcess::from_source(APP).unwrap();
        cloud.init().unwrap();
        init.restore(&mut cloud);
        let mut cloud_set = CrdtSet::initialize(ActorId(1), &bindings, &init);
        let mut edge = ServerProcess::from_source(APP).unwrap();
        edge.init().unwrap();
        init.restore(&mut edge);
        let mut edge_set = CrdtSet::initialize(ActorId(2), &bindings, &init);

        let out = edge
            .handle(&HttpRequest::post(
                "/log",
                json!({"id": 1, "msg": "x"}),
                vec![],
            ))
            .unwrap();
        edge_set.absorb_outcome(&out, &edge);

        let mut e2c = SyncEndpoint::new();
        let mut c2e = SyncEndpoint::new();
        // first delta is LOST in transit (never received)
        let lost = e2c.generate(&edge_set);
        assert!(!lost.changes.is_empty());
        // no ack arrived, so peer_clock is unchanged and the next round
        // regenerates exactly the same changes
        let retry = e2c.generate(&edge_set);
        assert_eq!(retry.changes, lost.changes, "delta must be regenerated");
        c2e.receive_owned(&mut cloud_set, &mut cloud, retry);
        assert_eq!(cloud_set.rows("log").len(), 1);
        // the original message finally arrives late: idempotent
        c2e.receive_owned(&mut cloud_set, &mut cloud, lost);
        assert_eq!(cloud_set.rows("log").len(), 1);
        // the cloud's ack reaches the edge; nothing further to send
        let ack = c2e.generate(&cloud_set);
        e2c.receive_owned(&mut edge_set, &mut edge, ack);
        assert!(e2c.generate(&edge_set).changes.is_empty());
    }
}

#[cfg(test)]
mod array_global_tests {
    //! Globals the CRDT holds as whole values: an array is one leaf, an
    //! object a map whose arrays are leaves. A write goes edge → master →
    //! other edge through `absorb_outcome`, `generate` / `receive_owned`
    //! and `materialize_globals`, the path every bound global takes.

    use super::*;
    use edgstr_analysis::StateUnit;
    use edgstr_net::HttpRequest;
    use serde_json::json;

    const APP: &str = r#"
        var tags = [];
        var cfg = { name: "none", list: [] };
        app.post("/tags", function (req, res) {
            tags = req.body.tags;
            res.send({ ok: true });
        });
        app.post("/cfg", function (req, res) {
            cfg = { name: req.body.name, list: req.body.list };
            res.send({ ok: true });
        });
    "#;

    /// A master and two edges, each edge with its link to the master.
    struct Star {
        nodes: Vec<(ServerProcess, CrdtSet)>,
        /// `(edge's end, master's end)` of edge 1's link, then edge 2's.
        links: Vec<(SyncEndpoint, SyncEndpoint)>,
    }

    impl Star {
        fn new() -> Star {
            let mut seed = ServerProcess::from_source(APP).unwrap();
            seed.init().unwrap();
            let init = InitState::capture(&seed);
            let bindings = CrdtBindings::from_units([
                StateUnit::Global("tags".into()),
                StateUnit::Global("cfg".into()),
            ]);
            let nodes = (1..=3)
                .map(|actor| {
                    let mut s = ServerProcess::from_source(APP).unwrap();
                    s.init().unwrap();
                    init.restore(&mut s);
                    (s, CrdtSet::initialize(ActorId(actor), &bindings, &init))
                })
                .collect();
            let links = (0..2)
                .map(|_| (SyncEndpoint::new(), SyncEndpoint::new()))
                .collect();
            Star { nodes, links }
        }

        /// Serve a write at node `at` and absorb it.
        fn write(&mut self, at: usize, path: &str, body: Json) {
            let (server, set) = &mut self.nodes[at];
            let out = server
                .handle(&HttpRequest::post(path, body, vec![]))
                .unwrap();
            set.absorb_outcome(&out, server);
        }

        /// One exchange on each link, edge 1's first.
        fn sync(&mut self) {
            let (master, edges) = self.nodes.split_first_mut().unwrap();
            for ((edge_end, master_end), (server, set)) in self.links.iter_mut().zip(edges) {
                let up = edge_end.generate(set);
                master_end.receive_owned(&mut master.1, &mut master.0, up);
                let down = master_end.generate(&master.1);
                edge_end.receive_owned(set, server, down);
            }
        }

        /// Every node's server and CRDT hold `want` in global `g`.
        fn all_hold(&self, g: &str, want: &Json) {
            for (i, (server, set)) in self.nodes.iter().enumerate() {
                assert_eq!(server.global_json(g), Some(Ok(want.clone())), "node {i}");
                assert_eq!(set.global(g), Some(want));
            }
        }
    }

    #[test]
    fn array_globals_reach_the_master_and_the_other_edge_unchanged() {
        let mut star = Star::new();
        let tags = json!([1, "two", {"three": [3, null]}, [], 2.5]);
        star.write(1, "/tags", json!({ "tags": tags }));
        let cfg = json!({"name": "n", "list": [[1], {"k": [true]}, "x"]});
        star.write(2, "/cfg", json!({"name": "n", "list": cfg["list"]}));
        // edge 2's write reaches edge 1 on the round after the master has it
        star.sync();
        star.sync();
        star.all_hold("tags", &tags);
        star.all_hold("cfg", &cfg);
        // every global, an array or an object, is one write of its JSON
        let ops = |n: usize| {
            let changes = star.nodes[n].1.get_changes(&VClock::new());
            changes
                .iter()
                .filter(|c| c.stamps()[0].id.actor == ActorId(n as u64 + 1))
                .map(|c| c.stamps().len())
                .collect::<Vec<_>>()
        };
        assert_eq!(ops(1), [1], "tags");
        assert_eq!(ops(2), [1], "cfg");
    }

    #[test]
    fn concurrent_array_global_writes_converge_to_one_writer() {
        let mut star = Star::new();
        let (a, b) = (json!(["a", {"x": 1}]), json!(["b", "b"]));
        star.write(1, "/tags", json!({ "tags": a }));
        star.write(2, "/tags", json!({ "tags": b }));
        star.write(1, "/cfg", json!({"name": "a", "list": [1]}));
        star.write(2, "/cfg", json!({"name": "b", "list": [2, 2]}));
        star.sync();
        star.sync();
        let won = star.nodes[0].0.global_json("tags").unwrap().unwrap();
        assert!(won == a || won == b, "{won}");
        star.all_hold("tags", &won);
        let cfg = star.nodes[0].0.global_json("cfg").unwrap().unwrap();
        assert!(
            cfg["list"] == json!([1]) || cfg["list"] == json!([2, 2]),
            "{cfg}"
        );
        star.all_hold("cfg", &cfg);
        let clock = star.nodes[0].1.clock();
        for (_, set) in &star.nodes[1..] {
            assert_eq!(set.clock(), clock);
        }
        // once the last acks are through, nothing is left to send
        star.sync();
        let (master, edges) = star.nodes.split_first().unwrap();
        for ((edge_end, master_end), (_, set)) in star.links.iter_mut().zip(edges) {
            assert!(edge_end.generate(set).changes.is_empty());
            assert!(master_end.generate(&master.1).changes.is_empty());
        }
    }
}
