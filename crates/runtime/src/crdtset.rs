//! CRDT wiring: connecting service state changes to CRDT update
//! operations (§III-G.1).
//!
//! EdgStr wraps the replicated components — database tables, files, global
//! variables — into `CRDT-Table`, `CRDT-Files`, `CRDT-JSON`. A [`CrdtSet`]
//! holds all three for one replica, *absorbs* local state changes reported
//! by the server process (the generated wiring), and *materializes* remote
//! changes back into the server's database / file system / globals.

use crate::cache::UnitVersions;
use edgstr_analysis::{HandleOutcome, InitState, ServerProcess};
use edgstr_core::CrdtBindings;
use edgstr_crdt::wire::{put_bytes, put_changes, put_str, put_varint, Count, Reader, Sink};
use edgstr_crdt::{
    ActorId, AdvanceMode, Change, CrdtError, CrdtFiles, CrdtTable, Doc, PathSeg, VClock, ValueRef,
};
use edgstr_sql::{ColumnMeta, RowEffect, SqlDb, SqlError, SqlValue};
use serde_json::Value as Json;
use std::collections::BTreeMap;

/// Clock summary across all structures of a [`CrdtSet`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SetClock {
    pub tables: BTreeMap<String, VClock>,
    pub files: VClock,
    pub globals: VClock,
}

impl SetClock {
    /// Pointwise maximum with `other`, structure by structure.
    pub fn merge(&mut self, other: &SetClock) {
        for (n, c) in &other.tables {
            match self.tables.get_mut(n) {
                Some(mine) => mine.merge(c),
                None => {
                    self.tables.insert(n.clone(), c.clone());
                }
            }
        }
        self.files.merge(&other.files);
        self.globals.merge(&other.globals);
    }

    /// Pointwise minimum with `other`, structure by structure — the
    /// greatest clock both sides have acknowledged. Folding the meet of
    /// all live peers' ack clocks is the safe compaction frontier: no peer
    /// can still need a change at or below it.
    pub fn meet(&self, other: &SetClock) -> SetClock {
        let mut tables = BTreeMap::new();
        for (n, c) in &self.tables {
            if let Some(o) = other.tables.get(n) {
                let m = c.meet(o);
                if !m.is_empty() {
                    tables.insert(n.clone(), m);
                }
            }
        }
        SetClock {
            tables,
            files: self.files.meet(&other.files),
            globals: self.globals.meet(&other.globals),
        }
    }

    /// True if this clock has observed at least everything `other` has.
    pub fn dominates(&self, other: &SetClock) -> bool {
        let empty = VClock::new();
        other
            .tables
            .iter()
            .all(|(n, c)| self.tables.get(n).unwrap_or(&empty).dominates(c))
            && self.files.dominates(&other.files)
            && self.globals.dominates(&other.globals)
    }

    /// Wire layout: a table count, `(name, clock)` per table in name
    /// order, then the files and globals clocks.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.tables.len() as u64);
        for (n, c) in &self.tables {
            put_str(out, n);
            c.write(out);
        }
        self.files.write(out);
        self.globals.write(out);
    }
}

/// A batch of changes across all structures — the payload of one
/// `cloud_state` / `edge_state` message (Fig. 5b).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SetChanges {
    pub tables: BTreeMap<String, Vec<Change>>,
    pub files: Vec<Change>,
    pub globals: Vec<Change>,
}

impl SetChanges {
    /// Total changes carried.
    pub fn len(&self) -> usize {
        self.tables.values().map(Vec::len).sum::<usize>() + self.files.len() + self.globals.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Wire layout: a table count, `(name, batch)` per table in name
    /// order, then the files and globals batches.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.tables.len() as u64);
        for (n, cs) in &self.tables {
            put_str(out, n);
            put_changes(out, cs);
        }
        put_changes(out, &self.files);
        put_changes(out, &self.globals);
    }

    /// Bytes this batch costs on the WAN: the length of its encoding.
    pub fn wire_size(&self) -> usize {
        Count::of(|n| self.write(n))
    }
}

/// The CRDT structures of one replica.
#[derive(Debug)]
pub struct CrdtSet {
    pub bindings: CrdtBindings,
    pub tables: BTreeMap<String, CrdtTable>,
    pub files: CrdtFiles,
    pub globals: Doc,
    /// Per-state-unit version counters, bumped on every local mutation and
    /// every applied remote change — the response cache's validity signal.
    pub versions: UnitVersions,
}

impl CrdtSet {
    /// Initialize all structures from the shared init snapshot — the
    /// paper's step 1: "initialize both the master and the replicas with
    /// the same snapshot of the cloud-based service".
    pub fn initialize(actor: ActorId, bindings: &CrdtBindings, init: &InitState) -> CrdtSet {
        let db_json = init.db_json();
        let mut tables = BTreeMap::new();
        for t in &bindings.tables {
            let rows: Vec<(String, Json)> = db_json
                .get(t)
                .and_then(Json::as_object)
                .map(|m| {
                    m.iter()
                        .map(|(pk, row)| (pk.clone(), row.clone()))
                        .collect()
                })
                .unwrap_or_default();
            tables.insert(t.clone(), CrdtTable::from_snapshot(actor, t.clone(), &rows));
        }
        let file_entries: Vec<(String, Vec<u8>)> = init
            .fs
            .entries()
            .into_iter()
            .filter(|(p, _)| bindings.files.contains(p))
            .collect();
        let files = CrdtFiles::from_snapshot(actor, &file_entries);
        let globals_json = init.globals_json();
        let mut gmap = serde_json::Map::new();
        for g in &bindings.globals {
            gmap.insert(
                g.clone(),
                globals_json.get(g).cloned().unwrap_or(Json::Null),
            );
        }
        let globals = Doc::from_snapshot(actor, &Json::Object(gmap));
        CrdtSet {
            bindings: bindings.clone(),
            tables,
            files,
            globals,
            versions: UnitVersions::default(),
        }
    }

    /// The owning actor.
    pub fn actor(&self) -> ActorId {
        self.globals.actor()
    }

    /// Current clocks across all structures.
    pub fn clock(&self) -> SetClock {
        SetClock {
            tables: self
                .tables
                .iter()
                .map(|(n, t)| (n.clone(), t.clock().clone()))
                .collect(),
            files: self.files.clock().clone(),
            globals: self.globals.clock().clone(),
        }
    }

    /// Absorb the local state changes of one request — the generated
    /// CRDT wiring: SQL row effects feed `CRDT-Table` (a row goes over as
    /// its cells, never as a JSON object), file writes feed `CRDT-Files`,
    /// and bound globals are re-read from the server into `CRDT-JSON`.
    pub fn absorb_outcome(&mut self, outcome: &HandleOutcome, server: &ServerProcess) {
        let CrdtSet {
            bindings,
            tables,
            files,
            globals,
            versions,
        } = self;
        // Version bumps cover *all* concrete effects, bound or not: an
        // unreplicated table/file still invalidates cached reads of it.
        for effect in &outcome.row_effects {
            match effect {
                RowEffect::Upsert {
                    table,
                    pk,
                    columns,
                    cells,
                } => {
                    versions.touch_row(table, pk);
                    if let Some(t) = tables.get_mut(table) {
                        t.upsert_cells(pk, columns, cells, SqlValue::to_json)
                            .expect("table CRDT upsert");
                    }
                }
                RowEffect::Delete { table, pk } => {
                    versions.touch_row(table, pk);
                    if let Some(t) = tables.get_mut(table) {
                        t.delete_row(pk).expect("table CRDT delete");
                    }
                }
            }
        }
        for (path, data) in &outcome.file_writes {
            versions.touch_file(path);
            if bindings.files.contains(path) {
                files.put_file(path, data).expect("file CRDT put");
            }
        }
        // bound globals: re-read and update when changed
        for g in &bindings.globals {
            if let Some(current) = server.global_json(g) {
                let held = globals.get_ref(&[g]).map(|v| v.to_json());
                if held.as_deref() != Some(&current) {
                    versions.touch_global(g);
                    globals
                        .put(&[PathSeg::Key(g.clone())], current)
                        .expect("global CRDT put");
                }
            }
        }
        // newly-bound globals surface here even when not CRDT-bound
        for g in &outcome.global_writes {
            versions.touch_global(g);
        }
    }

    /// Changes the peer (summarized by `since`) has not observed.
    pub fn get_changes(&self, since: &SetClock) -> SetChanges {
        let empty = VClock::new();
        SetChanges {
            tables: self
                .tables
                .iter()
                .filter_map(|(n, t)| {
                    let changes = t.get_changes(since.tables.get(n).unwrap_or(&empty));
                    (!changes.is_empty()).then(|| (n.clone(), changes))
                })
                .collect(),
            files: self.files.get_changes(&since.files),
            globals: self.globals.get_changes(&since.globals),
        }
    }

    /// Apply remote changes to the CRDTs and materialize the merged state
    /// into the server (database rows, file contents, global values).
    /// Returns the number of changes applied.
    pub fn apply_remote(&mut self, changes: &SetChanges, server: &mut ServerProcess) -> usize {
        self.apply_remote_owned(changes.clone(), server)
    }

    /// Consuming variant of [`CrdtSet::apply_remote`] — the runtime sync
    /// daemon's hot path, which would otherwise clone every delta each
    /// round.
    pub fn apply_remote_owned(&mut self, changes: SetChanges, server: &mut ServerProcess) -> usize {
        let mut applied = 0;
        for (name, cs) in changes.tables {
            if let Some(t) = self.tables.get_mut(&name) {
                let (n, touch) = t.apply_changes_owned_tracked(cs).expect("table CRDT apply");
                applied += n;
                // materialize what the delta touched into the SQL engine
                if touch.whole {
                    self.versions.touch_table(&name);
                    materialize_table(t, &mut server.db);
                } else {
                    for pk in &touch.keys {
                        self.versions.touch_row(&name, pk);
                    }
                    materialize_rows(t, touch.keys.iter().map(|pk| &**pk), &mut server.db);
                }
            }
        }
        if !changes.files.is_empty() {
            let (n, touch) = self
                .files
                .apply_changes_owned_tracked(changes.files)
                .expect("files CRDT apply");
            applied += n;
            if touch.whole {
                self.versions.touch_files_all();
            } else {
                for path in &touch.keys {
                    self.versions.touch_file(path);
                }
            }
            self.materialize_files(server);
        }
        if !changes.globals.is_empty() {
            let (n, touched) = self
                .globals
                .apply_changes_owned_tracked(changes.globals)
                .expect("globals CRDT apply");
            applied += n;
            if touched.unresolved {
                self.versions.touch_globals_all();
            } else {
                for (first, _) in &touched.keys {
                    self.versions.touch_global(first);
                }
            }
            self.materialize_globals(server);
        }
        applied
    }

    /// Push the full merged CRDT state into `server` — used when a
    /// restarted replica is provisioned from a [`CrdtSet::save`] payload
    /// rather than by replaying changes.
    pub fn materialize_all(&self, server: &mut ServerProcess) {
        for t in self.tables.values() {
            materialize_table(t, &mut server.db);
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
        for effect in server.take_failed_row_effects() {
            let (RowEffect::Upsert { table, pk, .. } | RowEffect::Delete { table, pk }) = &effect;
            if let Some(t) = self.tables.get(table) {
                materialize_rows(t, [pk.as_str()], &mut server.db);
            }
        }
    }

    fn materialize_files(&self, server: &mut ServerProcess) {
        for path in self.files.list() {
            if let Some(data) = self.files.get_file(&path) {
                if server.fs.peek(&path) != Some(data.as_slice()) {
                    server.fs.write(path, data);
                }
            }
        }
    }

    fn materialize_globals(&self, server: &mut ServerProcess) {
        for g in &self.bindings.globals {
            if let Some(v) = self.globals.get_ref(&[g]) {
                server.set_global_json(g, &v.to_json());
            }
        }
    }

    /// Total retained change-log length across all structures — the
    /// resident history the sync daemon keeps bounded via
    /// [`CrdtSet::compact`].
    pub fn history_len(&self) -> usize {
        self.tables
            .values()
            .map(CrdtTable::history_len)
            .sum::<usize>()
            + self.files.history_len()
            + self.globals.history_len()
    }

    /// Fold acked history at or below `frontier` (normally the
    /// [`SetClock::meet`] of all live peers' ack clocks) into the
    /// snapshots. Returns the number of changes dropped.
    pub fn compact(&mut self, frontier: &SetClock) -> usize {
        let empty = VClock::new();
        let mut dropped = 0;
        for (n, t) in self.tables.iter_mut() {
            dropped += t.compact(frontier.tables.get(n).unwrap_or(&empty));
        }
        dropped += self.files.compact(&frontier.files);
        dropped += self.globals.compact(&frontier.globals);
        dropped
    }

    /// Serialize the whole replica set (snapshot + retained tail per
    /// structure) — the provisioning payload for a fresh or restarted
    /// replica. Bounded by state size plus uncompacted tail, not lifetime
    /// mutation count. Layout: a table count, `(name, image)` per table in
    /// name order, the files image, the globals image; each image is its
    /// structure's own `save`, length-prefixed.
    pub fn save(&self) -> Vec<u8> {
        let mut out = Vec::new();
        put_varint(&mut out, self.tables.len() as u64);
        for (n, t) in &self.tables {
            put_str(&mut out, n);
            put_bytes(&mut out, &t.save());
        }
        put_bytes(&mut out, &self.files.save());
        put_bytes(&mut out, &self.globals.save());
        out
    }

    /// Restore a replica set from [`CrdtSet::save`] bytes, owned by
    /// `actor`. The restored set reads the same state and serves the same
    /// retained tail as the original.
    ///
    /// # Errors
    ///
    /// Returns [`CrdtError`] unless `bytes` is exactly what `save` writes.
    pub fn load(
        actor: ActorId,
        bindings: &CrdtBindings,
        bytes: &[u8],
    ) -> Result<CrdtSet, CrdtError> {
        let mut r = Reader::new(bytes);
        let mut tables: BTreeMap<String, CrdtTable> = BTreeMap::new();
        // a name length and an image length at the least
        for _ in 0..r.count(2)? {
            let name = r.str()?;
            if tables
                .last_key_value()
                .is_some_and(|(last, _)| last.as_str() >= name)
            {
                return Err(CrdtError::CorruptChange(
                    "table names are not ascending".to_string(),
                ));
            }
            tables.insert(name.to_string(), CrdtTable::load(actor, name, r.bytes()?)?);
        }
        let files = CrdtFiles::load(actor, r.bytes()?)?;
        let globals = Doc::load(actor, r.bytes()?)?;
        r.end()?;
        Ok(CrdtSet {
            bindings: bindings.clone(),
            tables,
            files,
            globals,
            versions: UnitVersions::default(),
        })
    }
}

/// The SQL row a CRDT row reads as: per column, the cell under its name
/// converted by [`SqlValue::from_json`], `NULL` where there is none (and
/// everywhere when the row is not a map).
fn sql_row(columns: &[ColumnMeta], row: &ValueRef<'_>) -> Vec<SqlValue> {
    columns
        .iter()
        .map(|c| {
            row.get(&c.name)
                .map_or(SqlValue::Null, |cell| SqlValue::from_json(&cell.to_json()))
        })
        .collect()
}

/// Rebuild the whole SQL table from `t` — for provisioning, for a delta
/// that could not be pinned to rows, and for a table with no primary key
/// to address a row by.
fn materialize_table(t: &CrdtTable, db: &mut SqlDb) {
    let Some(table) = db.table(t.name()) else {
        return;
    };
    let rows = t
        .row_refs()
        .iter()
        .map(|(_, row)| sql_row(&table.columns, row))
        .collect();
    let _ = db.replace_table_rows(t.name(), rows);
}

/// Make the SQL rows at `keys` read what `t` reads there: written where
/// the CRDT has the row, deleted where it does not. Every other row is
/// left alone, which is sound because it already equals its CRDT row.
fn materialize_rows<'k>(t: &CrdtTable, keys: impl IntoIterator<Item = &'k str>, db: &mut SqlDb) {
    for pk in keys {
        let written = match (t.row(pk), db.table(t.name())) {
            (Some(row), Some(table)) => {
                let row = sql_row(&table.columns, &row);
                db.upsert_row(t.name(), row)
            }
            (Some(_), None) => return,
            (None, _) => db.delete_row_by_pk(t.name(), pk),
        };
        if let Err(SqlError::NoPrimaryKey(_)) = written {
            return materialize_table(t, db);
        }
    }
}

/// One `cloud_state` / `edge_state` sync envelope (Fig. 5b): the delta
/// batch plus the sender's full clock, which doubles as a cumulative
/// acknowledgment of everything the sender has applied.
#[derive(Debug, Clone, PartialEq)]
pub struct SetSyncMessage {
    /// The replica that produced this message.
    pub sender: ActorId,
    /// The sender's clock across all structures — acknowledges every
    /// change the sender has locally applied, including changes it
    /// received from the destination.
    pub ack: SetClock,
    /// Changes the sender believes the destination is missing.
    pub changes: SetChanges,
}

impl SetSyncMessage {
    /// Wire layout: `sender`, the ack clock, then the delta.
    fn write<S: Sink>(&self, out: &mut S) {
        put_varint(out, self.sender.0);
        self.ack.write(out);
        self.changes.write(out);
    }

    /// Append this message's wire encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        self.write(out);
    }

    /// Bytes this message costs on the WAN: the length of
    /// [`SetSyncMessage::encode`], each change counted at the length it
    /// remembers rather than encoded again.
    pub fn wire_size(&self) -> usize {
        Count::of(|n| self.write(n))
    }
}

/// Per-peer synchronization endpoint — one side of the bidirectional
/// `socket.io`-style channel (§III-G.1). Whoever carries a message sizes it
/// ([`SetSyncMessage::wire_size`]); the endpoint only tracks the peer.
///
/// Delivery tracking is **ack-driven** by default: [`SyncEndpoint::generate`]
/// does not assume its outgoing delta arrives. `peer_clock` only advances
/// when [`SyncEndpoint::receive`] merges the peer's acknowledged clock, so
/// a dropped message simply causes the same changes to be regenerated on
/// the next round (safe because `apply_remote` is idempotent). The
/// pre-fix optimistic behaviour is kept behind
/// [`AdvanceMode::Optimistic`] as an ablation.
#[derive(Debug, Default)]
pub struct SyncEndpoint {
    /// What the peer is known (or, under `Optimistic`, assumed) to have.
    pub peer_clock: SetClock,
    /// How `peer_clock` advances on send.
    pub mode: AdvanceMode,
}

impl SyncEndpoint {
    /// Fresh ack-driven endpoint assuming the peer has only the shared
    /// snapshot.
    pub fn new() -> Self {
        SyncEndpoint::default()
    }

    /// Fresh endpoint advancing in `mode` whose peer is known to hold
    /// `peer_clock` already — the empty clock for a peer initialised from
    /// the shared snapshot, the provisioning clock for one built from a
    /// save image (nothing below it is ever re-sent).
    pub fn starting(mode: AdvanceMode, peer_clock: SetClock) -> Self {
        SyncEndpoint { peer_clock, mode }
    }

    /// Build the next outgoing sync message for the peer.
    pub fn generate(&mut self, set: &CrdtSet) -> SetSyncMessage {
        let changes = set.get_changes(&self.peer_clock);
        let msg = SetSyncMessage {
            sender: set.actor(),
            ack: set.clock(),
            changes,
        };
        if self.mode == AdvanceMode::Optimistic && !msg.changes.is_empty() {
            // pre-fix behaviour: assume delivery without an ack
            for (n, cs) in &msg.changes.tables {
                let c = self.peer_clock.tables.entry(n.clone()).or_default();
                for ch in cs {
                    c.observe(ch.actor(), ch.seq());
                }
            }
            for ch in &msg.changes.files {
                self.peer_clock.files.observe(ch.actor(), ch.seq());
            }
            for ch in &msg.changes.globals {
                self.peer_clock.globals.observe(ch.actor(), ch.seq());
            }
        }
        msg
    }

    /// Record receipt of a peer's message and apply its delta. The
    /// message's ack clock tells us exactly what the peer has applied —
    /// including our own earlier deltas — so this is where `peer_clock`
    /// actually advances.
    pub fn receive(
        &mut self,
        set: &mut CrdtSet,
        server: &mut ServerProcess,
        msg: &SetSyncMessage,
    ) -> usize {
        self.receive_owned(set, server, msg.clone())
    }

    /// Consuming variant of [`SyncEndpoint::receive`]: the sync daemon
    /// hands the message over so its delta is applied without cloning.
    pub fn receive_owned(
        &mut self,
        set: &mut CrdtSet,
        server: &mut ServerProcess,
        msg: SetSyncMessage,
    ) -> usize {
        self.peer_clock.merge(&msg.ack);
        set.apply_remote_owned(msg.changes, server)
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
        let mut edge_to_cloud = SyncEndpoint::new();
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
        cloud_from_edge.receive(&mut cloud_set, &mut cloud, &msg);

        // the cloud now serves the edge-written row
        let got = cloud
            .handle(&HttpRequest::get("/get", json!({"k": "x"})))
            .unwrap();
        assert_eq!(got.response.body[0]["v"], json!(42));
        // and the bound global converged
        assert_eq!(
            cloud_set.globals.get(&[PathSeg::Key("hits".into())]),
            Some(json!(1))
        );
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
            e2c.receive(&mut edge_set, &mut edge, &d1);
            let d2 = e2c.generate(&edge_set);
            c2e.receive(&mut cloud_set, &mut cloud, &d2);
        }
        assert_eq!(
            cloud_set.tables["kv"].to_json(),
            edge_set.tables["kv"].to_json()
        );
        assert_eq!(cloud_set.tables["kv"].len(), 3); // seed + 2 concurrent
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
            c_recv.receive(&mut cloud_set, &mut cloud, &msg);
            // the cloud's reply carries its ack, advancing the edge's view
            let ack = c_recv.generate(&cloud_set);
            e2c.receive(&mut edge_set, &mut edge, &ack);
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
        let mut e2c = SyncEndpoint::new();
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
        c_recv.receive(&mut cloud_set, &mut cloud, &delta);
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
        let delta = edge_set.get_changes(&SetClock::default());
        // only the globals doc produced changes beyond genesis
        assert!(delta.tables.is_empty());
    }

    /// Both nodes were initialised from the same snapshot (PAPER.md §1
    /// step 7), so endpoints that know nothing of their peer still have
    /// nothing to say on the first round; the snapshot does not cross the
    /// WAN. Writes after that travel as before, and the folded genesis
    /// survives a save/load.
    #[test]
    fn the_shared_snapshot_is_never_shipped() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        assert!(!edge_set.tables["kv"].is_empty() && !edge_set.files.list().is_empty());
        assert_eq!(edge_set.history_len(), 0, "genesis is folded at birth");
        assert!(edge_set.get_changes(&SetClock::default()).is_empty());
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
        assert_eq!(
            cloud_set.tables["kv"].to_json(),
            edge_set.tables["kv"].to_json()
        );

        let fresh = CrdtSet::initialize(ActorId(3), &bindings(), &init);
        let loaded = CrdtSet::load(ActorId(3), &bindings(), &fresh.save()).unwrap();
        assert_eq!(loaded.clock(), fresh.clock());
        assert_eq!(loaded.history_len(), 0);
        assert_eq!(loaded.tables["kv"].to_json(), fresh.tables["kv"].to_json());
        assert!(loaded.get_changes(&SetClock::default()).is_empty());
    }

    /// `wire_size` is the length of `encode`, whatever the message holds.
    #[test]
    fn a_set_message_is_as_long_as_its_encoding() {
        let change = |table: &str, pk: &str| {
            let mut t = CrdtTable::new(ActorId(4), table);
            t.upsert_row(pk, &json!({"k": pk, "v": 1})).unwrap();
            t.get_changes(&VClock::new())
        };
        let clock = |pairs: &[(u64, u64)]| {
            let mut c = VClock::new();
            for (a, s) in pairs {
                c.observe(ActorId(*a), *s);
            }
            c
        };
        for tables in [
            vec![],
            vec!["kv"],
            vec!["authors", "books", "a-long-table-name-ü"],
        ] {
            let msg = SetSyncMessage {
                sender: ActorId(300),
                ack: SetClock {
                    tables: tables
                        .iter()
                        .map(|t| (t.to_string(), clock(&[(0, 1), (2, 70_000)])))
                        .collect(),
                    files: clock(&[(1, 1)]),
                    globals: VClock::new(),
                },
                changes: SetChanges {
                    tables: tables
                        .iter()
                        .map(|t| (t.to_string(), change(t, "a")))
                        .collect(),
                    files: change("files", "f"),
                    globals: vec![],
                },
            };
            let mut bytes = Vec::new();
            msg.encode(&mut bytes);
            assert_eq!(msg.wire_size(), bytes.len(), "{} tables", tables.len());
            // what is not the changes is the envelope, a few bytes a table
            let envelope = bytes.len() - msg.changes.len() * msg.changes.files[0].wire_size();
            assert!(envelope < 16 + tables.len() * 40, "{envelope}");
        }
        // an empty message: sender, three empty clock maps, three empty batches
        let empty = SetSyncMessage {
            sender: ActorId(1),
            ack: SetClock::default(),
            changes: SetChanges::default(),
        };
        let mut bytes = Vec::new();
        empty.encode(&mut bytes);
        assert_eq!(bytes, [1, 0, 0, 0, 0, 0, 0]);
        assert_eq!(empty.changes.wire_size(), 3);
    }

    /// The sync daemon's compaction loop: after a full bidirectional
    /// exchange the meet of the ack clocks covers everything, compaction
    /// empties the resident log, and replication keeps working.
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
        // two full rounds so both sides' acks cover everything
        for _ in 0..2 {
            let up = e2c.generate(&edge_set);
            c2e.receive_owned(&mut cloud_set, &mut cloud, up);
            let down = c2e.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, down);
        }
        assert!(cloud_set.history_len() > 0);
        // the cloud's only peer is the edge: frontier = own clock ⊓ peer ack
        let frontier = cloud_set.clock().meet(&c2e.peer_clock);
        let dropped = cloud_set.compact(&frontier);
        assert!(dropped > 0);
        assert_eq!(cloud_set.history_len(), 0, "fully acked log must empty");
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
        assert_eq!(
            cloud_set.tables["kv"].to_json(),
            edge_set.tables["kv"].to_json()
        );
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
        // compact everything: provisioning must not depend on the log
        let frontier = cloud_set.clock();
        cloud_set.compact(&frontier);
        let bytes = cloud_set.save();

        let mut fresh = ServerProcess::from_source(APP).unwrap();
        fresh.init().unwrap();
        init.restore(&mut fresh);
        let restored = CrdtSet::load(ActorId(9), &bindings(), &bytes).unwrap();
        restored.materialize_all(&mut fresh);
        assert_eq!(
            restored.tables["kv"].to_json(),
            cloud_set.tables["kv"].to_json()
        );
        assert_eq!(fresh.fs.peek("/latest.txt"), Some(&b"k4"[..]));
        // the restored replica answers queries from its materialized DB
        let got = fresh
            .handle(&HttpRequest::get("/get", json!({"k": "k3"})))
            .unwrap();
        assert_eq!(got.response.body[0]["v"], json!(3));

        // and continues to sync: a new write at the restored edge reaches
        // the cloud even though the cloud's log was compacted
        let mut restored = restored;
        let mut r2c = SyncEndpoint::new();
        let mut c2r = SyncEndpoint::new();
        // the restored replica starts from the cloud's clock, so neither
        // side resends history
        r2c.peer_clock = cloud_set.clock();
        c2r.peer_clock = restored.clock();
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
        assert_eq!(up.changes.len(), 3, "only the new delta travels");
        c2r.receive_owned(&mut cloud_set, &mut cloud, up);
        assert_eq!(
            cloud_set.tables["kv"].to_json(),
            restored.tables["kv"].to_json()
        );
    }

    /// The envelope is read like the images it carries: to the end, and
    /// only as `save` writes it.
    #[test]
    fn a_set_image_is_read_strictly() {
        let (_, set) = make_node(1, &init_state());
        let load = |bytes: &[u8]| CrdtSet::load(ActorId(2), &bindings(), bytes);
        let image = set.save();
        assert_eq!(load(&image).unwrap().save(), image);
        for cut in 0..image.len() {
            assert!(load(&image[..cut]).is_err(), "prefix {cut}");
        }
        assert!(load(&[&image[..], &[0]].concat()).is_err());
        let two_tables = |first: &str, second: &str| {
            let mut out = Vec::new();
            put_varint(&mut out, 2);
            for name in [first, second] {
                put_str(&mut out, name);
                put_bytes(&mut out, &set.tables["kv"].save());
            }
            put_bytes(&mut out, &set.files.save());
            put_bytes(&mut out, &set.globals.save());
            out
        };
        assert_eq!(load(&two_tables("kv", "kw")).unwrap().tables.len(), 2);
        assert!(load(&two_tables("kw", "kv")).is_err());
        assert!(load(&two_tables("kv", "kv")).is_err());
    }

    /// The bound tables, file and global as a server holds them.
    fn replicated(server: &ServerProcess) -> (Json, Option<Vec<u8>>, Option<Json>) {
        (
            server.db.snapshot().to_json()["kv"].clone(),
            server.fs.peek("/latest.txt").map(<[u8]>::to_vec),
            server.global_json("hits"),
        )
    }

    /// A half-compacted set restored from its image is the set it was
    /// saved from: clocks, retained log, the delta served at any cursor,
    /// the replicated state it materializes, and what a concurrent delta
    /// from an edge that has not seen the tail does to both.
    #[test]
    fn a_restored_set_is_the_set_that_was_saved() {
        let init = init_state();
        let (mut cloud, mut cloud_set) = make_node(1, &init);
        let (mut edge, mut edge_set) = make_node(2, &init);
        let mut c2e = SyncEndpoint::new();
        let mut e2c = SyncEndpoint::new();
        let write = |server: &mut ServerProcess, set: &mut CrdtSet, k: &str, v: i64| {
            let out = server
                .handle(&HttpRequest::post("/put", json!({"k": k, "v": v}), vec![]))
                .unwrap();
            set.absorb_outcome(&out, server);
        };
        for i in 0..4 {
            write(&mut cloud, &mut cloud_set, &format!("c{i}"), i);
            write(&mut edge, &mut edge_set, &format!("e{i}"), 10 + i);
        }
        for _ in 0..2 {
            let up = e2c.generate(&edge_set);
            c2e.receive_owned(&mut cloud_set, &mut cloud, up);
            let down = c2e.generate(&cloud_set);
            e2c.receive_owned(&mut edge_set, &mut edge, down);
        }
        // fold what the edge acked; two more writes stay in the tail
        let acked = cloud_set.clock().meet(&c2e.peer_clock);
        assert!(cloud_set.compact(&acked) > 0);
        write(&mut cloud, &mut cloud_set, "tail", 100);
        write(&mut cloud, &mut cloud_set, "both", 101);
        assert_eq!(cloud_set.history_len(), 6, "two writes of three changes");

        let mut fresh = ServerProcess::from_source(APP).unwrap();
        fresh.init().unwrap();
        init.restore(&mut fresh);
        let mut restored = CrdtSet::load(ActorId(9), &bindings(), &cloud_set.save()).unwrap();
        restored.materialize_all(&mut fresh);
        assert_eq!(restored.actor(), ActorId(9));
        assert_eq!(restored.clock(), cloud_set.clock());
        assert_eq!(restored.history_len(), cloud_set.history_len());
        for cursor in [&SetClock::default(), &acked, &cloud_set.clock()] {
            assert_eq!(
                restored.get_changes(cursor),
                cloud_set.get_changes(cursor),
                "{cursor:?}"
            );
        }
        assert_eq!(replicated(&fresh), replicated(&cloud));

        // every write supersedes the folded file and global; the second
        // also upserts a row the tail upserted
        write(&mut edge, &mut edge_set, "fresh", 7);
        write(&mut edge, &mut edge_set, "both", 8);
        let concurrent = edge_set.get_changes(&acked);
        assert_eq!(concurrent.len(), 6);
        assert_eq!(restored.apply_remote(&concurrent, &mut fresh), 6);
        assert_eq!(cloud_set.apply_remote(&concurrent, &mut cloud), 6);
        assert_eq!(restored.clock(), cloud_set.clock());
        assert_eq!(replicated(&fresh), replicated(&cloud));
        assert_eq!(
            restored.tables["kv"].to_json(),
            cloud_set.tables["kv"].to_json()
        );
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
        c2e.receive(&mut cloud_set, &mut cloud, &up);
        let down = c2e.generate(&cloud_set);
        e2c.receive(&mut edge_set, &mut edge, &down);

        assert_eq!(cloud_set.tables["log"].len(), 30);
        assert_eq!(
            cloud_set.tables["log"].to_json(),
            edge_set.tables["log"].to_json()
        );
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

    /// A table without a primary key has no key to address one row by, so
    /// a remote apply still rebuilds it whole.
    #[test]
    fn unkeyed_table_materializes_by_whole_rebuild() {
        const UNKEYED: &str = r#"
            db.query("CREATE TABLE log (msg TEXT)");
            app.post("/log", function (req, res) {
                db.query("INSERT INTO log VALUES ('" + req.body.msg + "')");
                res.send({ ok: true });
            });
        "#;
        let node = |actor: u64| {
            let mut s = ServerProcess::from_source(UNKEYED).unwrap();
            s.init().unwrap();
            let init = InitState::capture(&s);
            let bindings = CrdtBindings::from_units([StateUnit::DbTable("log".into())]);
            let set = CrdtSet::initialize(ActorId(actor), &bindings, &init);
            (s, set)
        };
        let (mut cloud, mut cloud_set) = node(1);
        let (mut edge, mut edge_set) = node(2);
        for msg in ["first", "second"] {
            let out = edge
                .handle(&HttpRequest::post("/log", json!({"msg": msg}), vec![]))
                .unwrap();
            edge_set.absorb_outcome(&out, &edge);
        }
        let up = SyncEndpoint::new().generate(&edge_set);
        SyncEndpoint::new().receive_owned(&mut cloud_set, &mut cloud, up);
        assert_eq!(
            cloud.db.table("log").unwrap().rows,
            edge.db.table("log").unwrap().rows
        );
        assert_eq!(cloud.db.table("log").unwrap().rows.len(), 2);
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
        c2e.receive(&mut cloud_set, &mut cloud, &retry);
        assert_eq!(cloud_set.tables["log"].len(), 1);
        // the original message finally arrives late: idempotent
        c2e.receive(&mut cloud_set, &mut cloud, &lost);
        assert_eq!(cloud_set.tables["log"].len(), 1);
        // the cloud's ack reaches the edge; nothing further to send
        let ack = c2e.generate(&cloud_set);
        e2c.receive(&mut edge_set, &mut edge, &ack);
        assert!(e2c.generate(&edge_set).changes.is_empty());
    }

    /// Pre-fix ablation: an endpoint in `Optimistic` mode assumes every
    /// generated delta is delivered, so a single dropped message leaves
    /// the replicas permanently diverged no matter how many further
    /// rounds run.
    #[test]
    fn optimistic_endpoint_diverges_on_loss() {
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

        let mut e2c = SyncEndpoint::starting(AdvanceMode::Optimistic, SetClock::default());
        let mut c2e = SyncEndpoint::starting(AdvanceMode::Optimistic, SetClock::default());
        // the delta is LOST, but the optimistic sender marks it delivered
        let _lost = e2c.generate(&edge_set);
        // further rounds never resend it
        for _ in 0..5 {
            let up = e2c.generate(&edge_set);
            assert!(up.changes.is_empty(), "optimistic endpoint never retries");
            c2e.receive(&mut cloud_set, &mut cloud, &up);
            let down = c2e.generate(&cloud_set);
            e2c.receive(&mut edge_set, &mut edge, &down);
        }
        assert_eq!(cloud_set.tables["log"].len(), 0, "cloud never sees the row");
        assert_ne!(
            cloud_set.tables["log"].to_json(),
            edge_set.tables["log"].to_json(),
            "replicas stay diverged under optimistic advancement"
        );
    }
}
