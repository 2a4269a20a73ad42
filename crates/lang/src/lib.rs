//! # edgstr-lang — NodeScript, a Node.js-like mini language
//!
//! EdgStr (ICDCS 2024) analyzes and transforms Node.js cloud services. This
//! crate provides the equivalent executable substrate for the Rust
//! reproduction: **NodeScript**, a small JavaScript-like language with
//!
//! - a lexer/parser ([`parse`]) and pretty-printer ([`print_program`]);
//! - a tree-walking interpreter ([`Interpreter`]) whose *native object*
//!   calls (`app`, `db`, `fs`, `res`, …) dispatch to an embedder-supplied
//!   [`Host`] — the hook EdgStr uses to intercept SQL commands, file
//!   accesses, and HTTP responses;
//! - Jalangi-style dynamic instrumentation ([`Instrument`], [`TraceEvent`])
//!   reporting every statement entry, variable read/write, and function
//!   invocation;
//! - the temp-var normalization pass ([`normalize()`]) of §III-E that makes
//!   marshal/unmarshal points visible to the read/write log;
//! - virtual CPU-cycle accounting ([`Interpreter::cycles`]) that drives the
//!   device performance models in `edgstr-sim`.
//!
//! ## Example
//!
//! ```
//! use edgstr_lang::{parse, Interpreter, EmptyHost, NoopInstrument, Value};
//!
//! let prog = parse("function sq(n) { return n * n; } var r = sq(6);").unwrap();
//! let mut host = EmptyHost;
//! let mut interp = Interpreter::new(&mut host);
//! interp.run_program(&prog, &mut NoopInstrument).unwrap();
//! assert_eq!(interp.globals()["r"], Value::Num(36.0));
//! ```

pub mod ast;
pub mod compile;
pub mod instrument;
pub mod interp;
pub mod normalize;
pub mod ops;
pub mod parser;
pub mod printer;
pub mod token;
pub mod value;
pub mod vm;

pub use ast::{BinOp, Expr, LValue, Program, Stmt, StmtId, UnOp};
pub use compile::{compile, CompiledChunk, CompiledProgram};
pub use instrument::{Instrument, NoopInstrument, RecordingInstrument, TraceEvent};
pub use interp::{EmptyHost, Host, HostOutcome, Interpreter, RuntimeError, STMT_CYCLES};
pub use normalize::{normalize, renumber};
pub use parser::{parse, ParseError};
pub use printer::{print_expr, print_program, print_stmts};
pub use value::{fnv1a, Array, Atom, Closure, Props, TooDeep, Value};
pub use vm::Vm;
