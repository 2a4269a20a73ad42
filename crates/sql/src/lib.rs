//! # edgstr-sql — in-memory SQL engine for the EdgStr substrate
//!
//! The paper replicates database tables by intercepting function
//! invocations whose arguments are SQL commands, snapshotting the database,
//! and wrapping write statements in `START TRANSACTION`/`ROLLBACK` shadow
//! executions (§III-C). This crate provides the database those mechanisms
//! run against: a small SQL subset engine with
//!
//! - [`parse_sql`] — parser for `CREATE TABLE` / `INSERT` / `SELECT`
//!   (filters, ordering, limits, aggregates) / `UPDATE` / `DELETE` /
//!   transaction control;
//! - [`SqlDb`] — execution with [`SqlDb::snapshot`] / [`SqlDb::restore`]
//!   checkpointing and transactional rollback;
//! - [`RowEffect`] — per-row write effects so the runtime can mirror
//!   changes into `CRDT-Table`s (§III-G.1), each saying which columns
//!   ([`columns::ColumnSet`]) it changed; [`engine::SqlRead`] — what a
//!   `SELECT` read, so the response cache can check a stamp covers it.
//!
//! ## Example
//!
//! ```
//! use edgstr_sql::{SqlDb, SqlResult, SqlValue};
//!
//! # fn main() -> Result<(), edgstr_sql::SqlError> {
//! let mut db = SqlDb::new();
//! db.exec("CREATE TABLE t (id INT PRIMARY KEY, v TEXT)")?;
//! db.exec("INSERT INTO t VALUES (1, 'hello')")?;
//! let init = db.snapshot();          // the paper's save "init"
//! db.exec("UPDATE t SET v = 'mutated'")?;
//! db.restore(&init);                 // the paper's restore "init"
//! match db.exec("SELECT v FROM t WHERE id = 1")? {
//!     SqlResult::Rows { rows, .. } => assert_eq!(rows[0][0], SqlValue::Text("hello".into())),
//!     _ => unreachable!(),
//! }
//! # Ok(())
//! # }
//! ```

#![deny(clippy::undocumented_unsafe_blocks)]

pub mod columns;
pub mod engine;
pub mod parser;
pub mod value;

pub use engine::{
    ColumnMeta, Output, RowEffect, Selected, Snapshot, SqlDb, SqlError, SqlResult, Table,
};
pub use parser::{parse_sql, CmpOp, ColumnDef, SelectItem, SqlParseError, Statement, WhereExpr};
pub use value::{SqlType, SqlValue};
