//! Per-service effect summaries: the state units a service *reads* and
//! *writes*, derived from the same profiled traces that drive slicing.
//!
//! The read set is the invalidation signal for the edge response cache
//! (DESIGN.md §9): a cached response is valid iff the version counter of
//! every read unit still matches the value recorded when the entry was
//! filled. Like slicing, the derivation is dynamic — it generalizes from
//! the base run plus fuzzed re-executions, so a read unit observed under
//! no run is invisible. The cache layer compensates by only filling
//! entries from executions that were demonstrably effect-free, by keying
//! entries on the full canonicalized request, and by refusing to fill
//! from an execution whose SQL reads ([`crate::HandleOutcome::sql_reads`])
//! the profiled units do not cover.

use crate::state::StateUnit;
use crate::trace::ExecutionTrace;
use edgstr_net::HttpRequest;
use edgstr_sql::columns::ColumnSet;
use edgstr_sql::{parse_sql, CmpOp, SqlDb, SqlValue, Statement, WhereExpr};
use serde_json::Value as Json;
use std::collections::{BTreeMap, BTreeSet};

/// A state unit a service was observed to read.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReadUnit {
    /// Whole-table read of every column (any row and any cell may
    /// influence the response).
    Table(String),
    /// Whole-table read of some columns: any row may influence the
    /// response, but only through the cells at `columns` (positions in
    /// the table's schema) and through which rows exist.
    TableColumns { table: String, columns: ColumnSet },
    /// Row-keyed read: every observed access selected exactly the row
    /// whose primary key equals the request parameter `param`
    /// (fuzz-validated across all profiled runs).
    TableKeyed { table: String, param: String },
    /// File content read.
    File(String),
    /// Top-level global variable read.
    Global(String),
}

/// Everything the cache layer needs to know about one service's effects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EffectSummary {
    /// Units read (union over profiled runs, row-keyed where validated).
    pub reads: Vec<ReadUnit>,
    /// Units written (union over profiled runs) — matches the CRDT
    /// wrapping candidates of §III-D.
    pub writes: Vec<StateUnit>,
    /// No profiled run performed any write.
    pub pure: bool,
    /// Responses are reproducible from the read set alone: no hidden
    /// nondeterminism (`util.tick`) and no param-dependent read paths the
    /// unit vocabulary cannot express.
    pub cacheable: bool,
}

/// Resolve a top-level request field: `params.key`, falling back to the
/// body when it is a JSON object. The serve-time cache key covers both
/// (canonical params + body digest), so either source is stable.
#[must_use]
pub fn request_field(req: &HttpRequest, key: &str) -> Option<Json> {
    if let Json::Object(m) = &req.params {
        if let Some(v) = m.get(key) {
            return Some(v.clone());
        }
    }
    if let Ok(Json::Object(m)) = serde_json::from_slice::<Json>(&req.body) {
        if let Some(v) = m.get(key) {
            return Some(v.clone());
        }
    }
    None
}

/// The row-counter key ([`SqlValue::pk_string`]) of the value a scalar
/// request field becomes when interpolated into SQL: a string as text, an
/// integer as an integer. The cache layer uses it to resolve a
/// `TableKeyed` read unit to a concrete row at serve time.
#[must_use]
pub fn json_pk_string(v: &Json) -> Option<String> {
    let value = match v {
        Json::String(s) => SqlValue::Text(s.clone()),
        Json::Number(n) => SqlValue::Int(n.as_i64()?),
        _ => return None,
    };
    Some(value.pk_string())
}

/// Observations about one table's reads, accumulated across runs.
#[derive(Default)]
struct TableReads {
    /// Some access could not be pinned to a single pk-equality.
    whole: bool,
    /// The columns every access referenced, together
    /// ([`ColumnSet::ALL`] once one read `*`, an unknown column or could
    /// not be parsed).
    columns: ColumnSet,
    /// Per run: the set of pk literals selected (run index aligned with
    /// the `runs` slice passed to [`derive_effects`]).
    literals: BTreeMap<usize, BTreeSet<String>>,
}

/// Derive the [`EffectSummary`] for one service from its profiled runs.
///
/// `runs` pairs each successful execution's request with its trace (base
/// run first, then fuzzed runs). `db` supplies table schemas so pk-equality
/// WHERE clauses can be recognized; `globals` is the program's top-level
/// variable vocabulary used to separate global reads from locals.
#[must_use]
pub fn derive_effects(
    db: &SqlDb,
    globals: &BTreeSet<String>,
    runs: &[(&HttpRequest, &ExecutionTrace)],
) -> EffectSummary {
    let mut cacheable = true;
    let mut tables: BTreeMap<String, TableReads> = BTreeMap::new();
    let mut file_reads_per_run: Vec<BTreeSet<String>> = Vec::new();
    let mut global_reads: BTreeSet<String> = BTreeSet::new();
    let mut writes: BTreeSet<StateUnit> = BTreeSet::new();

    for (i, (_, trace)) in runs.iter().enumerate() {
        // Hidden server-local state (the `util.tick` counter) is neither
        // versioned nor replicated: responses depending on it cannot be
        // reproduced from the read set.
        if trace.invokes.iter().any(|(_, f, _)| f == "util.tick") {
            cacheable = false;
        }

        for (_, sql) in &trace.sql_stmts {
            match parse_sql(sql) {
                Ok(stmt) if stmt.is_write() => {
                    if let Some(t) = crate::trace::table_of(sql) {
                        writes.insert(StateUnit::DbTable(t));
                    }
                }
                Ok(
                    ref stmt @ Statement::Select {
                        ref table,
                        ref where_expr,
                        ..
                    },
                ) => {
                    let obs = tables.entry(table.clone()).or_default();
                    let columns = db
                        .table(table)
                        .map_or(ColumnSet::ALL, |t| t.read_columns(stmt));
                    obs.columns = obs.columns.union(columns);
                    match pk_eq_literal(db, table, where_expr.as_ref()) {
                        Some(lit) => {
                            obs.literals.entry(i).or_default().insert(lit);
                        }
                        None => obs.whole = true,
                    }
                }
                Ok(_) => {} // BEGIN/COMMIT/ROLLBACK: no data read
                Err(_) => {
                    // Unparseable command: fall back to the crude table
                    // extraction; with no table name we cannot name the
                    // read unit at all.
                    if crate::facts::is_sql_write(sql) {
                        if let Some(t) = crate::trace::table_of(sql) {
                            writes.insert(StateUnit::DbTable(t));
                        }
                    } else if let Some(t) = crate::trace::table_of(sql) {
                        let obs = tables.entry(t).or_default();
                        obs.whole = true;
                        obs.columns = ColumnSet::ALL;
                    } else {
                        cacheable = false;
                    }
                }
            }
        }

        let mut fr = BTreeSet::new();
        for (_, path, written) in &trace.file_stmts {
            if *written {
                writes.insert(StateUnit::File(path.clone()));
            } else {
                fr.insert(path.clone());
            }
        }
        file_reads_per_run.push(fr);

        for g in trace.written_globals() {
            writes.insert(StateUnit::Global(g));
        }
        for (_, var, _) in &trace.reads {
            if globals.contains(var) {
                global_reads.insert(var.clone());
            }
        }
    }

    // File read paths that vary across fuzzed runs are param-derived; the
    // unit vocabulary has no keyed projection for files, so such services
    // stay uncacheable rather than under-approximating the read set.
    if let Some(first) = file_reads_per_run.first() {
        if file_reads_per_run.iter().any(|fr| fr != first) {
            cacheable = false;
        }
    }

    let mut reads: BTreeSet<ReadUnit> = BTreeSet::new();
    for (table, obs) in tables {
        match keyed_param(&obs, runs) {
            Some(param) => {
                reads.insert(ReadUnit::TableKeyed { table, param });
            }
            None if obs.columns == ColumnSet::ALL => {
                reads.insert(ReadUnit::Table(table));
            }
            None => {
                reads.insert(ReadUnit::TableColumns {
                    table,
                    columns: obs.columns,
                });
            }
        }
    }
    for fr in &file_reads_per_run {
        for p in fr {
            reads.insert(ReadUnit::File(p.clone()));
        }
    }
    for g in global_reads {
        reads.insert(ReadUnit::Global(g));
    }

    let pure = writes.is_empty();
    EffectSummary {
        reads: reads.into_iter().collect(),
        writes: writes.into_iter().collect(),
        pure,
        cacheable,
    }
}

/// If `where_expr` is exactly `pk_column = literal` for `table`'s primary
/// key, return the literal's canonical pk string.
fn pk_eq_literal(db: &SqlDb, table: &str, where_expr: Option<&WhereExpr>) -> Option<String> {
    let pk_col = db
        .table(table)?
        .columns
        .iter()
        .find(|c| c.primary_key)?
        .name
        .clone();
    match where_expr? {
        WhereExpr::Cmp {
            column,
            op: CmpOp::Eq,
            value,
        } if *column == pk_col => Some(value.pk_string()),
        _ => None,
    }
}

/// Find a request field that explains every pk literal this table was
/// selected by, in every run. Requires at least two distinct literals
/// across runs — the fuzzer perturbs each scalar per run, so a literal
/// that tracks the field under fuzzing is derived from it, while a
/// constant literal may be hard-coded and must stay a whole-table read.
fn keyed_param(obs: &TableReads, runs: &[(&HttpRequest, &ExecutionTrace)]) -> Option<String> {
    if obs.whole || obs.literals.is_empty() {
        return None;
    }
    let distinct: BTreeSet<&String> = obs.literals.values().flatten().collect();
    if distinct.len() < 2 {
        return None;
    }
    // candidate fields: top-level scalar keys of the first observed run
    let (&first_run, _) = obs.literals.iter().next().unwrap();
    let candidates: Vec<String> = match (&runs[first_run].0.params, parse_body(runs[first_run].0)) {
        (Json::Object(m), body) => {
            let mut keys: Vec<String> = m.keys().cloned().collect();
            if let Some(Json::Object(b)) = body {
                keys.extend(b.keys().cloned());
            }
            keys
        }
        (_, Some(Json::Object(b))) => b.keys().cloned().collect(),
        _ => return None,
    };
    candidates.into_iter().find(|p| {
        obs.literals.iter().all(|(&run, lits)| {
            let field = request_field(runs[run].0, p)
                .as_ref()
                .and_then(json_pk_string);
            match field {
                Some(f) => lits.iter().all(|l| *l == f),
                None => false,
            }
        })
    })
}

fn parse_body(req: &HttpRequest) -> Option<Json> {
    serde_json::from_slice(&req.body).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerProcess;
    use crate::state::InitState;
    use crate::trace::Tracer;
    use serde_json::json;

    const APP: &str = r#"
        db.query("CREATE TABLE books (id INT PRIMARY KEY, title TEXT)");
        db.query("INSERT INTO books VALUES (1, 'dune')");
        db.query("INSERT INTO books VALUES (1001, 'tlou')");
        var visits = 0;
        app.get("/book", function (req, res) {
            var rows = db.query("SELECT * FROM books WHERE id = " + req.params.id);
            res.send({ book: rows });
        });
        app.get("/all", function (req, res) {
            var rows = db.query("SELECT * FROM books");
            res.send({ books: rows, seen: visits });
        });
        app.get("/titles", function (req, res) {
            var rows = db.query("SELECT title FROM books WHERE title LIKE '%" + req.params.q + "%'");
            if (req.params.q == "count") {
                rows = db.query("SELECT COUNT(*) FROM books");
            }
            res.send(rows);
        });
        app.post("/visit", function (req, res) {
            visits = visits + 1;
            db.query("INSERT INTO books VALUES (" + req.body.id + ", 'new')");
            res.send({ n: visits });
        });
    "#;

    fn traced_runs(
        server: &mut ServerProcess,
        init: &InitState,
        reqs: &[HttpRequest],
    ) -> Vec<(HttpRequest, ExecutionTrace)> {
        let mut out = Vec::new();
        for r in reqs {
            init.restore(server);
            let mut tracer = Tracer::new();
            server.handle_traced(r, &mut tracer).unwrap();
            out.push((r.clone(), tracer.into_trace()));
        }
        init.restore(server);
        out
    }

    fn summarize(reqs: &[HttpRequest]) -> EffectSummary {
        let program = edgstr_lang::normalize(&edgstr_lang::parse(APP).unwrap());
        let mut server = ServerProcess::from_program(program);
        server.init().unwrap();
        let init = InitState::capture(&server);
        let runs = traced_runs(&mut server, &init, reqs);
        let globals: BTreeSet<String> = server.snapshot_globals().keys().cloned().collect();
        let refs: Vec<(&HttpRequest, &ExecutionTrace)> = runs.iter().map(|(r, t)| (r, t)).collect();
        derive_effects(&server.db, &globals, &refs)
    }

    #[test]
    fn keyed_read_tracks_fuzzed_param() {
        let s = summarize(&[
            HttpRequest::get("/book", json!({"id": 1})),
            HttpRequest::get("/book", json!({"id": 1001})),
        ]);
        assert!(s.pure && s.cacheable);
        assert_eq!(
            s.reads,
            vec![ReadUnit::TableKeyed {
                table: "books".into(),
                param: "id".into()
            }]
        );
    }

    #[test]
    fn constant_literal_stays_whole_table() {
        let s = summarize(&[
            HttpRequest::get("/book", json!({"id": 1})),
            HttpRequest::get("/book", json!({"id": 1})),
        ]);
        assert_eq!(s.reads, vec![ReadUnit::Table("books".into())]);
    }

    #[test]
    fn whole_table_and_global_read() {
        let s = summarize(&[HttpRequest::get("/all", json!({}))]);
        assert!(s.pure && s.cacheable);
        assert!(s.reads.contains(&ReadUnit::Table("books".into())));
        assert!(s.reads.contains(&ReadUnit::Global("visits".into())));
    }

    #[test]
    fn whole_table_read_carries_the_columns_of_every_run() {
        let titles = |q: &str| HttpRequest::get("/titles", json!({ "q": q }));
        let s = summarize(&[titles("u"), titles("o")]);
        assert_eq!(
            s.reads,
            vec![ReadUnit::TableColumns {
                table: "books".into(),
                columns: ColumnSet::of(1),
            }]
        );
        // a run that also counts rows adds no column
        assert_eq!(summarize(&[titles("u"), titles("count")]).reads, s.reads);
    }

    #[test]
    fn writes_make_service_impure() {
        let s = summarize(&[HttpRequest::post(
            "/visit",
            json!({}),
            b"{\"id\": 7}".to_vec(),
        )]);
        assert!(!s.pure);
        assert!(s.writes.contains(&StateUnit::DbTable("books".into())));
        assert!(s.writes.contains(&StateUnit::Global("visits".into())));
    }
}
