//! Init-state capture and checkpoint/restore isolation (§III-C).
//!
//! EdgStr checkpoints the server's state after `init` so that profiling
//! executions can be replayed from a fixed state:
//! `init, save "init", exec_i, restore "init", exec_{i+1}, restore "init", …`

use crate::server::ServerProcess;
use edgstr_lang::Value;
use edgstr_sql::Snapshot as DbSnapshot;
use edgstr_vfs::FsSnapshot;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::fmt;

/// One replicated unit of server state, as presented to the developer in
/// the Consult Developer step (§III-D).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StateUnit {
    /// A database table (wrapped into `CRDT-Table`).
    DbTable(String),
    /// A file (wrapped into `CRDT-Files`).
    File(String),
    /// A global program variable (wrapped into `CRDT-JSON`).
    Global(String),
}

impl fmt::Display for StateUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateUnit::DbTable(t) => write!(f, "database table '{t}'"),
            StateUnit::File(p) => write!(f, "file '{p}'"),
            StateUnit::Global(g) => write!(f, "global variable '{g}'"),
        }
    }
}

/// The checkpointed `init` state of a server process.
#[derive(Debug, Clone)]
pub struct InitState {
    pub db: DbSnapshot,
    pub fs: FsSnapshot,
    pub globals: BTreeMap<String, Value>,
}

impl InitState {
    /// Capture the state of `server` (call after [`ServerProcess::init`]).
    pub fn capture(server: &ServerProcess) -> InitState {
        InitState {
            db: server.db.snapshot(),
            fs: server.fs.snapshot(),
            globals: server.snapshot_globals(),
        }
    }

    /// Restore `server` to this checkpoint.
    pub fn restore(&self, server: &mut ServerProcess) {
        server.db.restore(&self.db);
        server.fs.restore(&self.fs);
        server.restore_globals(&self.globals);
    }

    /// Total bytes of the state — the `S_app` column of Table II: what a
    /// cross-ISA offloading system would synchronize (whole program state).
    pub fn byte_size(&self) -> usize {
        let globals: usize = self
            .globals
            .values()
            // a global that holds itself has no text, and counts nothing
            .map(|v| v.encode().map_or(0, |(_, size)| size))
            .sum();
        self.db.byte_size() + self.fs.byte_size() + globals
    }

    /// Globals as JSON, leaving out any with no JSON.
    pub fn globals_json(&self) -> Json {
        let globals = self.globals.iter();
        let globals = globals.filter_map(|(k, v)| Some((k.clone(), v.to_json().ok()?)));
        Json::Object(globals.collect())
    }
}

/// A `Send + Sync` form of [`InitState`] for shipping a replica seed
/// across threads.
///
/// [`Value`] is deliberately thread-owned (its interior is `Rc`-based for
/// the VM hot path), so globals travel here in their JSON view — the same
/// representation CRDT-JSON replication already ships them in — and are
/// rebuilt into values on the receiving thread. Function/native globals
/// are never captured ([`ServerProcess::snapshot_globals`] filters them),
/// so the round-trip is lossless for everything a snapshot can hold.
#[derive(Debug, Clone)]
pub struct InitSeed {
    pub db: DbSnapshot,
    pub fs: FsSnapshot,
    pub globals: Json,
}

impl InitSeed {
    /// Capture the Send-safe view of `state`.
    pub fn from_state(state: &InitState) -> InitSeed {
        InitSeed {
            db: state.db.clone(),
            fs: state.fs.clone(),
            globals: state.globals_json(),
        }
    }

    /// Rebuild a thread-local [`InitState`] (called on the owning thread).
    pub fn to_state(&self) -> InitState {
        let globals = self
            .globals
            .as_object()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), Value::from_json(v)))
                    .collect()
            })
            .unwrap_or_default();
        InitState {
            db: self.db.clone(),
            fs: self.fs.clone(),
            globals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edgstr_net::HttpRequest;
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)");
        db.query("INSERT INTO kv VALUES ('greeting', 'hello')");
        fs.writeFile("/seed.txt", "seed");
        var epoch = 1;
        app.post("/set", function (req, res) {
            db.query("UPDATE kv SET v = '" + req.body.v + "' WHERE k = 'greeting'");
            fs.writeFile("/seed.txt", req.body.v);
            epoch = epoch + 1;
            res.send({ epoch: epoch });
        });
    "#;

    fn server() -> ServerProcess {
        let mut s = ServerProcess::from_source(APP).unwrap();
        s.init().unwrap();
        s
    }

    #[test]
    fn capture_restores_all_three_state_kinds() {
        let mut s = server();
        let init = InitState::capture(&s);
        s.handle(&HttpRequest::post("/set", json!({"v": "bye"}), vec![]))
            .unwrap();
        // state changed
        assert_eq!(s.fs.peek("/seed.txt"), Some(&b"bye"[..]));
        assert_eq!(s.global_json("epoch"), Some(Ok(json!(2))));
        init.restore(&mut s);
        assert_eq!(s.fs.peek("/seed.txt"), Some(&b"seed"[..]));
        assert_eq!(s.global_json("epoch"), Some(Ok(json!(1))));
        let out = s.db.exec("SELECT v FROM kv WHERE k = 'greeting'").unwrap();
        match out {
            edgstr_sql::SqlResult::Rows { rows, .. } => {
                assert_eq!(rows[0][0], edgstr_sql::SqlValue::Text("hello".into()));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeated_executions_from_fixed_state_are_identical() {
        let mut s = server();
        let init = InitState::capture(&s);
        let req = HttpRequest::post("/set", json!({"v": "x"}), vec![]);
        let r1 = s.handle(&req).unwrap().response.body;
        init.restore(&mut s);
        let r2 = s.handle(&req).unwrap().response.body;
        assert_eq!(r1, r2, "state isolation must make executions reproducible");
    }

    #[test]
    fn byte_size_counts_everything() {
        let s = server();
        let init = InitState::capture(&s);
        assert!(init.byte_size() > 0);
        assert!(init.db.byte_size() > 0);
        assert!(init.fs.byte_size() > 0);
    }

    #[test]
    fn json_views() {
        let s = server();
        let init = InitState::capture(&s);
        assert_eq!(init.globals_json()["epoch"], json!(1));
        let kv = init.db.table("kv").unwrap();
        assert_eq!(
            kv.rows,
            [["greeting", "hello"].map(edgstr_sql::SqlValue::from)]
        );
    }

    #[test]
    fn state_unit_display() {
        assert_eq!(
            StateUnit::DbTable("kv".into()).to_string(),
            "database table 'kv'"
        );
        assert_eq!(StateUnit::File("/a".into()).to_string(), "file '/a'");
        assert_eq!(
            StateUnit::Global("epoch".into()).to_string(),
            "global variable 'epoch'"
        );
    }
}
