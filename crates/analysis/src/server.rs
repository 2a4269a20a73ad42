//! The simulated Node.js server process: a NodeScript program bound to a
//! SQL database, a virtual file system, an HTTP route table, and compute
//! host functions (the TensorFlow analog).
//!
//! [`ServerProcess`] is used in two roles: `edgstr-analysis` drives it to
//! profile services (§III-B), and `edgstr-runtime` uses the same type as
//! the live cloud server and edge replicas.

use edgstr_lang::{
    compile, parse, Host, HostOutcome, Instrument, Interpreter, NoopInstrument, Program, Props,
    RuntimeError, Value, Vm,
};
use edgstr_net::{Body, HttpRequest, HttpResponse, Verb};
use edgstr_sql::{Output, RowEffect, SqlDb, SqlError, SqlResult, SqlValue, Statement};
use edgstr_vfs::VirtualFs;
use serde_json::Value as Json;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// How a [`ServerProcess`] executes NodeScript.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Slot-resolved bytecode on the register-free VM (the default): the
    /// program is compiled once at deploy time and globals live in a
    /// persistent indexed store.
    #[default]
    Compiled,
    /// The original tree-walking interpreter, kept as the reference
    /// implementation for differential testing and `--reference` benches.
    TreeWalking,
}

/// The native objects every server program can touch.
const NATIVE_NAMES: [&str; 9] = [
    "app", "db", "fs", "res", "tensor", "JSON", "Math", "util", "console",
];

/// A registered HTTP route.
#[derive(Debug, Clone)]
pub struct Route {
    pub verb: Verb,
    pub path: String,
    pub handler: Value,
}

/// Error raised while running a server program or handling a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// NodeScript parse failure.
    Parse(String),
    /// Runtime failure inside the service (surfaced to the proxy's
    /// failure-forwarding logic).
    Runtime(String),
    /// No route matches the request.
    NoSuchRoute { verb: Verb, path: String },
    /// Handler finished without calling `res.send`.
    NoResponse,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Parse(m) => write!(f, "parse error: {m}"),
            ServerError::Runtime(m) => write!(f, "runtime error: {m}"),
            ServerError::NoSuchRoute { verb, path } => {
                write!(f, "no route for {verb} {path}")
            }
            ServerError::NoResponse => write!(f, "handler sent no response"),
        }
    }
}

impl std::error::Error for ServerError {}

impl From<RuntimeError> for ServerError {
    fn from(e: RuntimeError) -> Self {
        ServerError::Runtime(e.to_string())
    }
}

/// Outcome of handling one request.
#[derive(Debug, Clone)]
pub struct HandleOutcome {
    pub response: HttpResponse,
    /// Virtual CPU cycles the request consumed.
    pub cycles: u64,
    /// Database row effects produced (for CRDT-Table mirroring).
    pub row_effects: Vec<RowEffect>,
    /// Files written (for CRDT-Files mirroring): `(path, contents)`.
    pub file_writes: Vec<(String, Vec<u8>)>,
    /// Global variables written (for CRDT-JSON mirroring).
    pub global_writes: Vec<String>,
}

/// Cycle cost model for host functions.
mod cost {
    /// Fixed cost of dispatching any host call.
    pub const HOST_BASE: u64 = 2_000;
    /// Per-byte cost of file I/O.
    pub const FILE_PER_BYTE: u64 = 2;
    /// Fixed cost of a SQL statement.
    pub const SQL_BASE: u64 = 60_000;
    /// Cost per row a statement returns (not per row it scans: a scan
    /// that selects nothing is charged as one row).
    pub const SQL_PER_ROW: u64 = 3_000;
    /// Fixed cost of loading/binding a model.
    pub const INFER_BASE: u64 = 40_000_000;
    /// Per-input-byte cost of inference (CNN-style compute).
    pub const INFER_PER_BYTE: u64 = 900;
}

struct ServerHost<'a> {
    db: &'a mut SqlDb,
    fs: &'a mut VirtualFs,
    routes: &'a mut Vec<Route>,
    response: &'a mut Option<HttpResponse>,
    status: &'a mut u16,
    row_effects: &'a mut Vec<RowEffect>,
    /// Length of `row_effects` when the open SQL transaction began (0 for
    /// one inherited from an earlier call).
    txn_mark: Option<usize>,
    file_writes: &'a mut Vec<(String, Vec<u8>)>,
    logs: &'a mut Vec<String>,
    tick: &'a mut u64,
    fail_calls: &'a [String],
}

impl ServerHost<'_> {
    fn register(&mut self, verb: Verb, args: &[Value]) -> Result<HostOutcome, String> {
        let path = args
            .first()
            .and_then(|v| v.as_str().map(str::to_string))
            .ok_or("app route registration needs a path string")?;
        let handler = args.get(1).cloned().ok_or("app route needs a handler")?;
        if !matches!(handler, Value::Function(_)) {
            return Err("route handler must be a function".into());
        }
        self.routes.retain(|r| !(r.verb == verb && r.path == path));
        self.routes.push(Route {
            verb,
            path,
            handler,
        });
        Ok(HostOutcome::cheap(Value::Null))
    }
}

impl Host for ServerHost<'_> {
    fn call(&mut self, name: &str, args: &[Value]) -> Result<HostOutcome, String> {
        if self.fail_calls.iter().any(|f| f == name) {
            return Err(format!("injected failure in host call '{name}'"));
        }
        match name {
            "app.get" => self.register(Verb::Get, args),
            "app.post" => self.register(Verb::Post, args),
            "app.put" => self.register(Verb::Put, args),
            "app.delete" => self.register(Verb::Delete, args),
            "app.listen" => Ok(HostOutcome::cheap(Value::Null)),
            "db.query" => {
                let sql = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or("db.query needs a SQL string")?;
                let sql_error = |e: SqlError| format!("SQL error: {e}");
                let stmt = self.db.prepare(sql).map_err(sql_error)?;
                let (output, effects) = self.db.exec_lent(&stmt).map_err(sql_error)?;
                let (value, returned) = rows_value(&output);
                self.row_effects.extend(effects);
                match (self.txn_mark, self.db.in_transaction()) {
                    (None, true) => self.txn_mark = Some(self.row_effects.len()),
                    (Some(mark), false) => {
                        // COMMIT keeps what the transaction wrote; ROLLBACK
                        // took it back out of the database, so the CRDT
                        // mirror must never hear of it
                        if matches!(*stmt, Statement::Rollback) {
                            self.row_effects.truncate(mark);
                        }
                        self.txn_mark = None;
                    }
                    _ => {}
                }
                Ok(HostOutcome::with_cycles(
                    value,
                    cost::SQL_BASE + cost::SQL_PER_ROW * returned.max(1),
                ))
            }
            "fs.readFile" => {
                let path = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or("fs.readFile needs a path")?;
                let data = self.fs.read(path).map_err(|e| e.to_string())?.to_vec();
                let cycles = cost::HOST_BASE + cost::FILE_PER_BYTE * data.len() as u64;
                Ok(HostOutcome::with_cycles(Value::bytes(data), cycles))
            }
            "fs.writeFile" => {
                let path = args
                    .first()
                    .and_then(|v| v.as_str().map(str::to_string))
                    .ok_or("fs.writeFile needs a path")?;
                let data = match args.get(1) {
                    Some(Value::Bytes(b)) => b.to_vec(),
                    Some(Value::Str(s)) => s.as_bytes().to_vec(),
                    Some(other) => other.to_string().into_bytes(),
                    None => return Err("fs.writeFile needs data".into()),
                };
                let cycles = cost::HOST_BASE + cost::FILE_PER_BYTE * data.len() as u64;
                self.fs.write(path.clone(), data.clone());
                self.file_writes.push((path, data));
                Ok(HostOutcome::with_cycles(Value::Null, cycles))
            }
            "fs.exists" => {
                let path = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or("fs.exists needs a path")?;
                Ok(HostOutcome::cheap(Value::Bool(self.fs.contains(path))))
            }
            "res.send" => {
                // one walk writes the text and sizes it; no JSON tree
                let (text, size) = args.first().unwrap_or(&Value::Null).encode();
                *self.response = Some(HttpResponse {
                    status: *self.status,
                    body: Body::encoded(text, size),
                });
                Ok(HostOutcome::cheap(Value::Null))
            }
            "res.status" => {
                let code = args
                    .first()
                    .and_then(Value::as_num)
                    .ok_or("res.status needs a number")? as u16;
                *self.status = code;
                Ok(HostOutcome::cheap(Value::Null))
            }
            "tensor.infer" => {
                // Deterministic pseudo-inference: derive "detections" from a
                // content hash of the input. Exercises the same code path as
                // the paper's TensorFlow object-detection service while
                // remaining reproducible.
                let model = args.first().and_then(|v| v.as_str()).unwrap_or("default");
                // hash the payload in place — no copy of the (potentially
                // multi-megabyte) input tensor
                let (h, input_len) = match args.get(1) {
                    Some(Value::Bytes(b)) => (edgstr_lang::fnv1a(b), b.len()),
                    Some(other) => {
                        let bytes = other.to_string().into_bytes();
                        (edgstr_lang::fnv1a(&bytes), bytes.len())
                    }
                    None => (edgstr_lang::fnv1a(&[]), 0),
                };
                let n = (h % 4 + 1) as usize;
                let labels = ["person", "car", "dog", "bicycle", "chair", "bottle"];
                let detections: Vec<Json> = (0..n)
                    .map(|i| {
                        let hi = h.rotate_left((i * 13) as u32);
                        serde_json::json!({
                            "label": labels[(hi % labels.len() as u64) as usize],
                            "score": ((hi % 50) as f64 + 50.0) / 100.0,
                            "box": [
                                (hi % 100) as f64, ((hi >> 8) % 100) as f64,
                                ((hi >> 16) % 100 + 100) as f64, ((hi >> 24) % 100 + 100) as f64,
                            ],
                        })
                    })
                    .collect();
                let result = serde_json::json!({ "model": model, "detections": detections });
                let cycles = cost::INFER_BASE + cost::INFER_PER_BYTE * input_len as u64;
                Ok(HostOutcome::with_cycles(Value::from_json(&result), cycles))
            }
            "JSON.stringify" => {
                let v = args.first().unwrap_or(&Value::Null);
                let text = serde_json::to_string(v).expect("a script value serializes");
                Ok(HostOutcome::cheap(Value::str(text)))
            }
            "JSON.parse" => {
                let s = args
                    .first()
                    .and_then(|v| v.as_str())
                    .ok_or("JSON.parse needs a string")?;
                let j: Json =
                    serde_json::from_str(s).map_err(|e| format!("JSON parse error: {e}"))?;
                Ok(HostOutcome::cheap(Value::from_json(&j)))
            }
            "Math.floor" | "Math.round" | "Math.ceil" | "Math.abs" | "Math.sqrt" => {
                let n = args
                    .first()
                    .and_then(Value::as_num)
                    .ok_or_else(|| format!("{name} needs a number"))?;
                let r = match name {
                    "Math.floor" => n.floor(),
                    "Math.round" => n.round(),
                    "Math.ceil" => n.ceil(),
                    "Math.abs" => n.abs(),
                    _ => n.sqrt(),
                };
                Ok(HostOutcome::cheap(Value::Num(r)))
            }
            "Math.min" | "Math.max" => {
                let nums: Vec<f64> = args.iter().filter_map(Value::as_num).collect();
                let r = if name == "Math.min" {
                    nums.iter().cloned().fold(f64::INFINITY, f64::min)
                } else {
                    nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
                };
                Ok(HostOutcome::cheap(Value::Num(r)))
            }
            "Math.pow" => {
                let a = args.first().and_then(Value::as_num).unwrap_or(0.0);
                let b = args.get(1).and_then(Value::as_num).unwrap_or(0.0);
                Ok(HostOutcome::cheap(Value::Num(a.powf(b))))
            }
            "util.blob" => {
                // deterministic synthetic binary data (model weights, map
                // tiles, seed corpora) — the stand-in for the large assets
                // real subjects load at init
                let size = args
                    .first()
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(0)
                    .min(64 * 1024 * 1024);
                let seed = args
                    .get(1)
                    .and_then(Value::as_num)
                    .map(|n| n as u64)
                    .unwrap_or(1);
                let mut out = Vec::with_capacity(size);
                let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).max(1);
                while out.len() < size {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    out.extend_from_slice(&x.to_le_bytes());
                }
                out.truncate(size);
                let cycles = cost::HOST_BASE + out.len() as u64 / 8;
                Ok(HostOutcome::with_cycles(Value::bytes(out), cycles))
            }
            "util.hash" => {
                let bytes = match args.first() {
                    Some(Value::Bytes(b)) => b.to_vec(),
                    Some(other) => other.to_string().into_bytes(),
                    None => Vec::new(),
                };
                Ok(HostOutcome::cheap(Value::Num(
                    (edgstr_lang::fnv1a(&bytes) % 1_000_000_007) as f64,
                )))
            }
            "util.tick" => {
                *self.tick += 1;
                Ok(HostOutcome::cheap(Value::Num(*self.tick as f64)))
            }
            "console.log" => {
                let line = args
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(" ");
                self.logs.push(line);
                Ok(HostOutcome::cheap(Value::Null))
            }
            other => Err(format!("unknown host function '{other}'")),
        }
    }

    fn native_names(&self) -> Vec<String> {
        NATIVE_NAMES.iter().map(|s| s.to_string()).collect()
    }
}

/// A simulated server process: program + state + routes.
#[derive(Debug)]
pub struct ServerProcess {
    pub program: Program,
    pub db: SqlDb,
    pub fs: VirtualFs,
    mode: ExecMode,
    /// The compiled execution engine (`Some` iff `mode == Compiled`). The
    /// program is lowered exactly once, at construction; globals live in
    /// the VM's indexed store.
    vm: Option<Vm>,
    /// Globals for tree-walking mode (unused in compiled mode).
    globals: BTreeMap<String, Value>,
    /// Deep snapshot backing the checkpoint API in tree-walking mode.
    tree_checkpoint: Option<BTreeMap<String, Value>>,
    routes: Vec<Route>,
    logs: Vec<String>,
    tick: u64,
    fail_calls: Vec<String>,
    /// Row effects of the last request when it failed after writing.
    failed_row_effects: Vec<RowEffect>,
    init_cycles: u64,
}

impl ServerProcess {
    /// Parse `source` and build an un-initialized process.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Parse`] on invalid NodeScript.
    pub fn from_source(source: &str) -> Result<ServerProcess, ServerError> {
        ServerProcess::from_source_with_mode(source, ExecMode::default())
    }

    /// [`ServerProcess::from_source`] with an explicit execution mode.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError::Parse`] on invalid NodeScript.
    pub fn from_source_with_mode(
        source: &str,
        mode: ExecMode,
    ) -> Result<ServerProcess, ServerError> {
        let program = parse(source).map_err(|e| ServerError::Parse(e.to_string()))?;
        Ok(ServerProcess::from_program_with_mode(program, mode))
    }

    /// Build from an already-parsed (possibly transformed) program.
    pub fn from_program(program: Program) -> ServerProcess {
        ServerProcess::from_program_with_mode(program, ExecMode::default())
    }

    /// [`ServerProcess::from_program`] with an explicit execution mode. In
    /// compiled mode, lowering happens here — once per deploy, not per
    /// request.
    pub fn from_program_with_mode(program: Program, mode: ExecMode) -> ServerProcess {
        let vm = match mode {
            ExecMode::Compiled => {
                let natives: Vec<String> = NATIVE_NAMES.iter().map(|s| s.to_string()).collect();
                Some(Vm::new(Rc::new(compile(&program)), &natives))
            }
            ExecMode::TreeWalking => None,
        };
        ServerProcess {
            program,
            db: SqlDb::new(),
            fs: VirtualFs::new(),
            mode,
            vm,
            globals: BTreeMap::new(),
            tree_checkpoint: None,
            routes: Vec::new(),
            logs: Vec::new(),
            tick: 0,
            fail_calls: Vec::new(),
            failed_row_effects: Vec::new(),
            init_cycles: 0,
        }
    }

    /// The execution mode this process was built with.
    pub fn mode(&self) -> ExecMode {
        self.mode
    }

    /// Run the program's top-level statements (the server `init` phase,
    /// §III-B): creates tables, loads files, registers routes.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    pub fn init(&mut self) -> Result<(), ServerError> {
        self.init_traced(&mut NoopInstrument)
    }

    /// [`ServerProcess::init`] with an instrumentation hook attached.
    ///
    /// # Errors
    ///
    /// Propagates runtime failures.
    pub fn init_traced(&mut self, tracer: &mut dyn Instrument) -> Result<(), ServerError> {
        let mut response = None;
        let mut status = 200u16;
        let mut row_effects = Vec::new();
        let mut file_writes = Vec::new();
        let txn_mark = self.db.in_transaction().then_some(0);
        let mut host = ServerHost {
            db: &mut self.db,
            fs: &mut self.fs,
            routes: &mut self.routes,
            response: &mut response,
            status: &mut status,
            row_effects: &mut row_effects,
            txn_mark,
            file_writes: &mut file_writes,
            logs: &mut self.logs,
            tick: &mut self.tick,
            fail_calls: &[],
        };
        if let Some(vm) = &mut self.vm {
            self.init_cycles = vm.run_top(&mut host, tracer)?;
        } else {
            let mut interp = Interpreter::new(&mut host);
            interp.set_globals(self.globals.clone());
            interp.run_program(&self.program, tracer)?;
            self.init_cycles = interp.cycles();
            self.globals = interp.globals().clone();
        }
        Ok(())
    }

    /// Handle one HTTP request by invoking the matching route handler.
    ///
    /// # Errors
    ///
    /// Returns [`ServerError`] on missing routes, runtime failures
    /// (including injected ones), or handlers that send no response.
    pub fn handle(&mut self, req: &HttpRequest) -> Result<HandleOutcome, ServerError> {
        self.handle_traced(req, &mut NoopInstrument)
    }

    /// [`ServerProcess::handle`] with an instrumentation hook attached.
    ///
    /// # Errors
    ///
    /// As for [`ServerProcess::handle`].
    pub fn handle_traced(
        &mut self,
        req: &HttpRequest,
        tracer: &mut dyn Instrument,
    ) -> Result<HandleOutcome, ServerError> {
        let handler = self
            .route(req.verb, &req.path)
            .map(|r| r.handler.clone())
            .ok_or_else(|| ServerError::NoSuchRoute {
                verb: req.verb,
                path: req.path.clone(),
            })?;
        self.failed_row_effects.clear();
        let req_value = request_value(req);
        let mut response = None;
        let mut status = 200u16;
        let mut row_effects = Vec::new();
        let mut file_writes = Vec::new();
        let txn_mark = self.db.in_transaction().then_some(0);
        let mut host = ServerHost {
            db: &mut self.db,
            fs: &mut self.fs,
            routes: &mut self.routes,
            response: &mut response,
            status: &mut status,
            row_effects: &mut row_effects,
            txn_mark,
            file_writes: &mut file_writes,
            logs: &mut self.logs,
            tick: &mut self.tick,
            fail_calls: &self.fail_calls,
        };
        let handler_args = vec![req_value, Value::Native("res".into())];
        let (result, cycles, global_writes) = if let Some(vm) = &mut self.vm {
            // compiled path: no per-request interpreter setup or globals
            // copy — the handler runs directly against the persistent store
            vm.clear_bind_log();
            let result = vm.call_value(&handler, handler_args, &mut host, tracer);
            // globals created during the request persist (JS semantics)
            let global_writes = vm.logged_newly_bound();
            match result {
                Ok((_, cycles)) => (Ok(()), cycles, global_writes),
                Err(e) => (Err(e), 0, global_writes),
            }
        } else {
            let globals_before: Vec<String> = self.globals.keys().cloned().collect();
            let mut interp = Interpreter::new(&mut host);
            interp.set_globals(self.globals.clone());
            let result = interp.call_closure(&handler, handler_args, tracer);
            let cycles = interp.cycles();
            let new_globals = interp.globals().clone();
            // globals created during the request persist (JS semantics)
            let global_writes: Vec<String> = new_globals
                .keys()
                .filter(|k| !globals_before.contains(k))
                .cloned()
                .collect();
            self.globals = new_globals;
            (result.map(|_| ()), cycles, global_writes)
        };
        let sent = result
            .map_err(ServerError::from)
            .and_then(|()| response.ok_or(ServerError::NoResponse));
        let response = match sent {
            Ok(response) => response,
            Err(e) => {
                self.failed_row_effects = row_effects;
                return Err(e);
            }
        };
        Ok(HandleOutcome {
            response,
            cycles,
            row_effects,
            file_writes,
            global_writes,
        })
    }

    /// The row effects of the last [`ServerProcess::handle`] call if it
    /// failed: rows it wrote into [`ServerProcess::db`] before the error,
    /// which no [`HandleOutcome`] will ever report. A replica must put
    /// those rows back to their replicated state before serving again
    /// (the CRDT mirror never saw the write). Empty after a success, and
    /// once taken.
    pub fn take_failed_row_effects(&mut self) -> Vec<RowEffect> {
        std::mem::take(&mut self.failed_row_effects)
    }

    /// The registered routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// Look up a route by verb and path.
    pub fn route(&self, verb: Verb, path: &str) -> Option<&Route> {
        self.routes
            .iter()
            .find(|r| r.verb == verb && r.path == path)
    }

    /// Deep-copied snapshot of mutable global state (functions and natives
    /// excluded).
    pub fn snapshot_globals(&self) -> BTreeMap<String, Value> {
        if let Some(vm) = &self.vm {
            return vm.snapshot_globals();
        }
        self.globals
            .iter()
            .filter(|(_, v)| !matches!(v, Value::Function(_) | Value::Native(_)))
            .map(|(k, v)| (k.clone(), v.deep_clone()))
            .collect()
    }

    /// Restore globals previously captured by
    /// [`ServerProcess::snapshot_globals`].
    pub fn restore_globals(&mut self, saved: &BTreeMap<String, Value>) {
        if let Some(vm) = &mut self.vm {
            vm.restore_globals(saved);
            return;
        }
        for (k, v) in saved {
            self.globals.insert(k.clone(), v.deep_clone());
        }
    }

    /// Mark the current globals as a rollback point for the journaled
    /// checkpoint API. While armed, the compiled engine records copy-on-
    /// write undo entries for captured state instead of requiring callers
    /// to take deep snapshots up front.
    pub fn begin_checkpoint(&mut self) {
        if let Some(vm) = &mut self.vm {
            vm.begin_checkpoint();
        } else {
            self.tree_checkpoint = Some(self.snapshot_globals());
        }
    }

    /// Roll mutable globals back to the [`ServerProcess::begin_checkpoint`]
    /// point. The checkpoint stays armed, so a sequence of executions can
    /// each be rolled back in turn. No-op when no checkpoint is armed.
    pub fn rollback_checkpoint(&mut self) {
        if let Some(vm) = &mut self.vm {
            vm.rollback_checkpoint();
        } else if let Some(saved) = self.tree_checkpoint.take() {
            self.restore_globals(&saved);
            self.tree_checkpoint = Some(saved);
        }
    }

    /// Disarm the checkpoint, keeping the current state.
    pub fn end_checkpoint(&mut self) {
        if let Some(vm) = &mut self.vm {
            vm.end_checkpoint();
        }
        self.tree_checkpoint = None;
    }

    /// Read one global as JSON (for assertions and CRDT mirroring).
    pub fn global_json(&self, name: &str) -> Option<Json> {
        if let Some(vm) = &self.vm {
            return vm.get_global(name).map(|v| v.to_json());
        }
        self.globals.get(name).map(Value::to_json)
    }

    /// Set a global from JSON (CRDT inbound application).
    pub fn set_global_json(&mut self, name: &str, value: &Json) {
        if let Some(vm) = &mut self.vm {
            vm.set_global(name, Value::from_json(value));
            return;
        }
        self.globals
            .insert(name.to_string(), Value::from_json(value));
    }

    /// Names of mutable (non-function) globals.
    pub fn mutable_global_names(&self) -> Vec<String> {
        let globals;
        let map = if let Some(vm) = &self.vm {
            globals = vm.globals_map();
            &globals
        } else {
            &self.globals
        };
        map.iter()
            .filter(|(_, v)| !matches!(v, Value::Function(_) | Value::Native(_)))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Inject failures: any host call whose dotted name is in `calls`
    /// raises a runtime error (exercises the proxy's failure forwarding).
    pub fn inject_failures(&mut self, calls: Vec<String>) {
        self.fail_calls = calls;
    }

    /// Clear injected failures.
    pub fn clear_failures(&mut self) {
        self.fail_calls.clear();
    }

    /// `console.log` output accumulated so far.
    pub fn logs(&self) -> &[String] {
        &self.logs
    }

    /// Cycles consumed by the init phase.
    pub fn init_cycles(&self) -> u64 {
        self.init_cycles
    }
}

/// Build the `req` object handed to route handlers.
pub fn request_value(req: &HttpRequest) -> Value {
    let mut body_fields: Vec<(&str, Value)> = Vec::new();
    if !req.body.is_empty() {
        // one copy of the payload, shared by both aliases
        let bytes: Rc<[u8]> = Rc::from(req.body.as_slice());
        body_fields.push(("img", Value::Bytes(Rc::clone(&bytes))));
        body_fields.push(("data", Value::Bytes(bytes)));
    }
    if let Json::Object(m) = &req.params {
        for (k, v) in m {
            body_fields.push((k, Value::from_json(v)));
        }
    }
    Value::object([
        ("path", Value::str(req.path.as_str())),
        ("method", Value::str(req.verb.as_str())),
        ("params", Value::from_json(&req.params)),
        ("query", Value::from_json(&req.params)),
        ("body", Value::object(body_fields)),
    ])
}

/// One SQL cell as a script value — the direct equivalent of
/// `Value::from_json(&SqlValue::to_json(..))` without the intermediate
/// JSON allocation.
fn sql_cell_value(v: &SqlValue) -> Value {
    match v {
        SqlValue::Null => Value::Null,
        SqlValue::Int(i) => Value::Num(*i as f64),
        // non-finite reals have no JSON representation and surface as null
        SqlValue::Real(r) if r.is_finite() => Value::Num(*r),
        SqlValue::Real(_) => Value::Null,
        SqlValue::Text(s) => Value::str(s.as_str()),
        SqlValue::Blob(_) => Value::from_json(&v.to_json()),
    }
}

/// `SELECT` output as the array-of-row-objects value `db.query` returns
/// (built straight from the table's rows when they are lent), plus the
/// number of rows returned, for cycle accounting. The columns are put in
/// key order once per result set, a name given twice keeping its last
/// column, and each name is allocated once: every row is then one vector
/// filled in that order, sharing the names.
fn rows_value(output: &Output<'_>) -> (Value, u64) {
    /// `(name, cell index in a row)` per distinct name, in key order.
    fn key_order<'a>(columns: impl Iterator<Item = (&'a str, usize)>) -> Vec<(Rc<str>, usize)> {
        let mut order: Vec<(&str, usize, usize)> = columns
            .enumerate()
            .map(|(at, (name, cell))| (name, at, cell))
            .collect();
        // a repeated name's last column first, so the dedup keeps it
        order.sort_by(|a, b| a.0.cmp(b.0).then(b.1.cmp(&a.1)));
        order.dedup_by(|later, kept| later.0 == kept.0);
        order
            .into_iter()
            .map(|(name, _, cell)| (Rc::from(name), cell))
            .collect()
    }
    fn row_object(keys: &[(Rc<str>, usize)], row: &[SqlValue]) -> Value {
        Value::from(Props::from_sorted(
            keys.iter()
                .map(|(k, cell)| (Rc::clone(k), sql_cell_value(&row[*cell])))
                .collect(),
        ))
    }
    let rows: Vec<Value> = match output {
        Output::Selected(s) => {
            let keys = key_order(s.columns.iter().copied().zip(s.proj.iter().copied()));
            s.rows.iter().map(|r| row_object(&keys, r)).collect()
        }
        Output::Done(SqlResult::Rows { columns, rows }) => {
            let keys = key_order(columns.iter().map(String::as_str).zip(0..));
            rows.iter().map(|r| row_object(&keys, r)).collect()
        }
        Output::Done(_) => Vec::new(),
    };
    let returned = rows.len() as u64;
    (Value::array(rows), returned)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    const ECHO_APP: &str = r#"
        var hits = 0;
        app.get("/echo", function (req, res) {
            hits = hits + 1;
            res.send({ msg: req.params.msg, hits: hits });
        });
    "#;

    #[test]
    fn init_registers_routes() {
        let mut s = ServerProcess::from_source(ECHO_APP).unwrap();
        s.init().unwrap();
        assert_eq!(s.routes().len(), 1);
        assert!(s.route(Verb::Get, "/echo").is_some());
    }

    #[test]
    fn handle_runs_handler_and_returns_response() {
        let mut s = ServerProcess::from_source(ECHO_APP).unwrap();
        s.init().unwrap();
        let req = HttpRequest::get("/echo", json!({"msg": "hi"}));
        let out = s.handle(&req).unwrap();
        assert_eq!(out.response.status, 200);
        assert_eq!(out.response.body, json!({"msg": "hi", "hits": 1}));
        // state persists across requests
        let out2 = s.handle(&req).unwrap();
        assert_eq!(out2.response.body["hits"], json!(2));
    }

    #[test]
    fn missing_route_errors() {
        let mut s = ServerProcess::from_source(ECHO_APP).unwrap();
        s.init().unwrap();
        let err = s.handle(&HttpRequest::get("/nope", json!({}))).unwrap_err();
        assert!(matches!(err, ServerError::NoSuchRoute { .. }));
    }

    #[test]
    fn db_backed_service_reports_effects() {
        let src = r#"
            db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
            app.post("/notes", function (req, res) {
                db.query("INSERT INTO notes VALUES (" + req.body.id + ", '" + req.body.text + "')");
                var rows = db.query("SELECT * FROM notes");
                res.send(rows);
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        let out = s
            .handle(&HttpRequest::post(
                "/notes",
                json!({"id": 1, "text": "milk"}),
                vec![],
            ))
            .unwrap();
        assert_eq!(out.row_effects.len(), 1);
        assert_eq!(out.response.body[0]["text"], json!("milk"));
    }

    /// One allocation per column name per result set: every row object
    /// holds the same `Rc<str>`, and the rows stay distinct objects.
    #[test]
    fn a_result_sets_rows_share_their_keys() {
        let src = r#"
            db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
            db.query("INSERT INTO notes VALUES (1, 'a')");
            db.query("INSERT INTO notes VALUES (2, 'b')");
            db.query("INSERT INTO notes VALUES (3, 'c')");
            var rows = db.query("SELECT * FROM notes");
            rows[1].text = "edited";
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        let globals = s.snapshot_globals();
        let Value::Array(rows) = &globals["rows"] else {
            panic!("rows is not an array");
        };
        let keys_of = |row: &Value| -> Vec<Rc<str>> {
            match row {
                Value::Object(m) => m.borrow().keys().cloned().collect(),
                other => panic!("row {other} is not an object"),
            }
        };
        let rows = rows.borrow();
        let first = keys_of(&rows[0]);
        assert_eq!(first.len(), 2);
        for row in rows.iter() {
            for (k, shared) in keys_of(row).iter().zip(&first) {
                assert!(Rc::ptr_eq(k, shared), "a row owns its key {k}");
            }
        }
        // shared keys, not shared rows
        assert_eq!(
            globals["rows"].to_json(),
            json!([{"id": 1, "text": "a"}, {"id": 2, "text": "edited"}, {"id": 3, "text": "c"}])
        );
    }

    /// A result set naming a column twice keeps the last one, as assigning
    /// the row's fields in output order would.
    #[test]
    fn a_repeated_column_keeps_its_last_cell() {
        let output = Output::Done(SqlResult::Rows {
            columns: vec!["b".into(), "a".into(), "b".into()],
            rows: vec![vec![SqlValue::Int(1), SqlValue::Int(2), SqlValue::Int(3)]],
        });
        let (rows, returned) = rows_value(&output);
        assert_eq!(returned, 1);
        assert_eq!(rows.to_string(), r#"[{"a":2,"b":3}]"#);
    }

    #[test]
    fn rolled_back_writes_report_no_effects() {
        let src = r#"
            db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
            app.post("/try", function (req, res) {
                db.query("INSERT INTO notes VALUES (1, 'kept')");
                db.query("BEGIN");
                db.query("INSERT INTO notes VALUES (2, 'undone')");
                db.query("ROLLBACK");
                db.query("BEGIN");
                db.query("INSERT INTO notes VALUES (3, 'committed')");
                db.query("COMMIT");
                res.send(db.query("SELECT id FROM notes"));
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        let out = s
            .handle(&HttpRequest::post("/try", json!({}), vec![]))
            .unwrap();
        assert_eq!(out.response.body, json!([{"id": 1}, {"id": 3}]));
        // the mirror hears of exactly the rows the database kept
        let pks: Vec<&str> = out
            .row_effects
            .iter()
            .map(|e| match e {
                RowEffect::Upsert { pk, .. } | RowEffect::Delete { pk, .. } => pk.as_str(),
            })
            .collect();
        assert_eq!(pks, ["1", "3"]);
    }

    #[test]
    fn failed_call_surfaces_its_row_effects_once() {
        let src = r#"
            db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
            app.post("/half", function (req, res) {
                db.query("INSERT INTO notes VALUES (1, 'written')");
                fs.readFile("/no/such/file");
                res.send({ ok: true });
            });
            app.get("/ok", function (req, res) { res.send(1); });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        assert!(s
            .handle(&HttpRequest::post("/half", json!({}), vec![]))
            .is_err());
        let left = s.take_failed_row_effects();
        assert!(matches!(&left[..], [RowEffect::Upsert { pk, .. }] if pk == "1"));
        assert!(s.take_failed_row_effects().is_empty(), "taken once");
        // a later success does not resurrect an untaken report
        assert!(s
            .handle(&HttpRequest::post("/half", json!({}), vec![]))
            .is_err());
        s.handle(&HttpRequest::get("/ok", json!({}))).unwrap();
        assert!(s.take_failed_row_effects().is_empty());
    }

    #[test]
    fn file_backed_service_tracks_writes() {
        let src = r#"
            app.post("/save", function (req, res) {
                fs.writeFile("/uploads/latest.bin", req.body.data);
                res.send({ saved: true });
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        let out = s
            .handle(&HttpRequest::post("/save", json!({}), vec![1, 2, 3]))
            .unwrap();
        assert_eq!(out.file_writes.len(), 1);
        assert_eq!(s.fs.peek("/uploads/latest.bin"), Some(&[1u8, 2, 3][..]));
    }

    #[test]
    fn tensor_inference_is_deterministic_and_costly() {
        let src = r#"
            app.post("/predict", function (req, res) {
                var out = tensor.infer("objdet", req.body.img);
                res.send(out);
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        let img = vec![7u8; 50_000];
        let a = s
            .handle(&HttpRequest::post("/predict", json!({}), img.clone()))
            .unwrap();
        let b = s
            .handle(&HttpRequest::post("/predict", json!({}), img))
            .unwrap();
        assert_eq!(a.response.body, b.response.body);
        assert!(a.cycles > 40_000_000, "inference should be expensive");
        assert!(!a.response.body["detections"].as_array().unwrap().is_empty());
    }

    #[test]
    fn globals_snapshot_restore() {
        let mut s = ServerProcess::from_source(ECHO_APP).unwrap();
        s.init().unwrap();
        let snap = s.snapshot_globals();
        s.handle(&HttpRequest::get("/echo", json!({"msg": "x"})))
            .unwrap();
        assert_eq!(s.global_json("hits"), Some(json!(1)));
        s.restore_globals(&snap);
        assert_eq!(s.global_json("hits"), Some(json!(0)));
    }

    #[test]
    fn failure_injection_propagates() {
        let src = r#"
            app.get("/work", function (req, res) {
                var out = tensor.infer("m", req.body.data);
                res.send(out);
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        s.inject_failures(vec!["tensor.infer".to_string()]);
        let err = s.handle(&HttpRequest::get("/work", json!({}))).unwrap_err();
        assert!(matches!(err, ServerError::Runtime(_)));
        s.clear_failures();
        assert!(s.handle(&HttpRequest::get("/work", json!({}))).is_ok());
    }

    #[test]
    fn res_status_sets_code() {
        let src = r#"
            app.get("/teapot", function (req, res) {
                res.status(418);
                res.send({ short: true });
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        let out = s.handle(&HttpRequest::get("/teapot", json!({}))).unwrap();
        assert_eq!(out.response.status, 418);
    }

    #[test]
    fn handler_without_send_errors() {
        let src = r#"app.get("/mute", function (req, res) { var x = 1; });"#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        assert_eq!(
            s.handle(&HttpRequest::get("/mute", json!({}))).unwrap_err(),
            ServerError::NoResponse
        );
    }

    #[test]
    fn compiled_and_tree_modes_agree() {
        let src = r#"
            db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, v TEXT)");
            var hits = 0;
            app.post("/put", function (req, res) {
                hits = hits + 1;
                db.query("INSERT INTO kv VALUES ('" + req.body.k + "', '" + req.body.v + "')");
                var rows = db.query("SELECT * FROM kv");
                res.send({ rows: rows, hits: hits });
            });
        "#;
        let mut compiled = ServerProcess::from_source(src).unwrap();
        let mut tree = ServerProcess::from_source_with_mode(src, ExecMode::TreeWalking).unwrap();
        assert_eq!(compiled.mode(), ExecMode::Compiled);
        assert_eq!(tree.mode(), ExecMode::TreeWalking);
        compiled.init().unwrap();
        tree.init().unwrap();
        assert_eq!(compiled.init_cycles(), tree.init_cycles());
        for i in 0..3 {
            let req = HttpRequest::post(
                "/put",
                json!({"k": format!("k{i}"), "v": format!("v{i}")}),
                vec![],
            );
            let a = compiled.handle(&req).unwrap();
            let b = tree.handle(&req).unwrap();
            assert_eq!(a.response, b.response);
            assert_eq!(a.cycles, b.cycles);
            assert_eq!(a.global_writes, b.global_writes);
            assert_eq!(a.row_effects, b.row_effects);
        }
        assert_eq!(compiled.global_json("hits"), tree.global_json("hits"));
        assert_eq!(compiled.mutable_global_names(), tree.mutable_global_names());
    }

    #[test]
    fn checkpoint_rollback_isolates_requests() {
        let mut s = ServerProcess::from_source(ECHO_APP).unwrap();
        s.init().unwrap();
        s.begin_checkpoint();
        let req = HttpRequest::get("/echo", json!({"msg": "x"}));
        let r1 = s.handle(&req).unwrap().response.body;
        assert_eq!(s.global_json("hits"), Some(json!(1)));
        s.rollback_checkpoint();
        assert_eq!(s.global_json("hits"), Some(json!(0)));
        // checkpoint stays armed: a second execution rolls back too
        let r2 = s.handle(&req).unwrap().response.body;
        assert_eq!(r1, r2);
        s.rollback_checkpoint();
        assert_eq!(s.global_json("hits"), Some(json!(0)));
        s.end_checkpoint();
        s.handle(&req).unwrap();
        assert_eq!(s.global_json("hits"), Some(json!(1)));
    }

    #[test]
    fn console_log_collected() {
        let src = r#"
            app.get("/log", function (req, res) {
                console.log("handling", req.path);
                res.send(1);
            });
        "#;
        let mut s = ServerProcess::from_source(src).unwrap();
        s.init().unwrap();
        s.handle(&HttpRequest::get("/log", json!({}))).unwrap();
        assert_eq!(s.logs(), &["handling /log".to_string()]);
    }
}
