//! Tree-walking interpreter for NodeScript with instrumentation hooks and a
//! pluggable host interface.
//!
//! The interpreter plays the role of the Node.js runtime in the paper: it
//! executes cloud-service code, dispatches calls on *native* objects
//! (`app`, `db`, `fs`, `res`, `tensor`, …) to a [`Host`] supplied by the
//! embedder, counts virtual CPU cycles for the performance simulation, and
//! reports every read/write/invoke to an [`Instrument`].

use crate::ast::{BinOp, Expr, LValue, Program, Stmt, StmtId};
use crate::instrument::{Instrument, TraceEvent};
use crate::ops;
use crate::value::{Closure, Props, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Virtual cycles charged per executed statement.
pub const STMT_CYCLES: u64 = 500;

/// Result of a host-function invocation: the returned value plus the number
/// of virtual CPU cycles the call consumed (used by the device models).
#[derive(Debug, Clone)]
pub struct HostOutcome {
    pub value: Value,
    pub cycles: u64,
}

impl HostOutcome {
    /// A cheap host call returning `value`.
    pub fn cheap(value: Value) -> Self {
        HostOutcome { value, cycles: 100 }
    }

    /// A host call returning `value` that consumed `cycles` virtual cycles.
    pub fn with_cycles(value: Value, cycles: u64) -> Self {
        HostOutcome { value, cycles }
    }
}

/// The embedder-provided environment of native objects and functions.
///
/// Method calls on [`Value::Native`] objects are dispatched here with the
/// dotted name `"<object>.<method>"`, e.g. `db.query` or `res.send`.
/// Constructor expressions for unknown types arrive as `"new:<Ctor>"`.
pub trait Host {
    /// Invoke a native function.
    ///
    /// # Errors
    ///
    /// Returns a message describing the failure; the interpreter surfaces it
    /// as a [`RuntimeError`].
    fn call(&mut self, name: &str, args: &[Value]) -> Result<HostOutcome, String>;

    /// Names of native root objects this host exposes (e.g. `["app","db"]`).
    /// Bare identifiers with these names evaluate to [`Value::Native`].
    fn native_names(&self) -> Vec<String>;
}

/// A host exposing no native objects; useful for pure computations.
#[derive(Debug, Clone, Copy, Default)]
pub struct EmptyHost;

impl Host for EmptyHost {
    fn call(&mut self, name: &str, _args: &[Value]) -> Result<HostOutcome, String> {
        Err(format!("unknown host function '{name}'"))
    }

    fn native_names(&self) -> Vec<String> {
        Vec::new()
    }
}

/// Runtime error raised during interpretation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeError {
    pub stmt: Option<StmtId>,
    pub message: String,
}

impl RuntimeError {
    fn new(stmt: Option<StmtId>, message: impl Into<String>) -> Self {
        RuntimeError {
            stmt,
            message: message.into(),
        }
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stmt {
            Some(s) => write!(f, "runtime error at {s}: {}", self.message),
            None => write!(f, "runtime error: {}", self.message),
        }
    }
}

impl std::error::Error for RuntimeError {}

enum Flow {
    Normal,
    Return(Value),
}

/// The root variable of a member/index chain, if any.
fn expr_root_var(e: &Expr) -> Option<&str> {
    match e {
        Expr::Var(v) => Some(v),
        Expr::Member(base, _) => expr_root_var(base),
        Expr::Index(base, _) => expr_root_var(base),
        _ => None,
    }
}

/// The NodeScript interpreter.
///
/// One interpreter instance holds the global scope of a single server
/// program — the same way one Node.js process holds one service. Requests
/// are executed by [`Interpreter::call_function`] /
/// [`Interpreter::call_closure`] against the globals established by
/// [`Interpreter::run_program`] (the server's `init` phase, §III-B).
pub struct Interpreter<'h> {
    host: &'h mut dyn Host,
    globals: BTreeMap<String, Value>,
    scopes: Vec<BTreeMap<String, Value>>,
    natives: Vec<String>,
    cur_stmt: StmtId,
    cycles: u64,
    steps: u64,
    step_limit: u64,
    call_depth: u32,
}

impl<'h> fmt::Debug for Interpreter<'h> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interpreter")
            .field("globals", &self.globals.keys().collect::<Vec<_>>())
            .field("cycles", &self.cycles)
            .finish()
    }
}

impl<'h> Interpreter<'h> {
    /// Create an interpreter bound to `host`.
    pub fn new(host: &'h mut dyn Host) -> Self {
        let natives = host.native_names();
        Interpreter {
            host,
            globals: BTreeMap::new(),
            scopes: Vec::new(),
            natives,
            cur_stmt: StmtId(0),
            cycles: 0,
            steps: 0,
            step_limit: 50_000_000,
            call_depth: 0,
        }
    }

    /// Total virtual CPU cycles consumed so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Override the execution step budget (tests, differential harnesses).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Read-only view of the global scope.
    pub fn globals(&self) -> &BTreeMap<String, Value> {
        &self.globals
    }

    /// Replace the entire global scope (used by state restore, §III-C).
    pub fn set_globals(&mut self, globals: BTreeMap<String, Value>) {
        self.globals = globals;
    }

    /// Deep-copy the global scope, skipping functions and natives (used by
    /// state capture, §III-C).
    pub fn snapshot_globals(&self) -> BTreeMap<String, Value> {
        self.globals
            .iter()
            .filter(|(_, v)| !matches!(v, Value::Function(_) | Value::Native(_)))
            .map(|(k, v)| (k.clone(), v.deep_clone()))
            .collect()
    }

    /// Merge `saved` values back into the global scope.
    pub fn restore_globals(&mut self, saved: &BTreeMap<String, Value>) {
        for (k, v) in saved {
            self.globals.insert(k.clone(), v.deep_clone());
        }
    }

    /// Execute a whole program's top-level statements (the `init` phase).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on any runtime failure, including host
    /// errors and exceeded step budget.
    pub fn run_program(
        &mut self,
        program: &Program,
        tracer: &mut dyn Instrument,
    ) -> Result<(), RuntimeError> {
        for stmt in &program.stmts {
            if let Flow::Return(_) = self.exec_stmt(stmt, tracer)? {
                break;
            }
        }
        Ok(())
    }

    /// Call a globally-declared function by name.
    ///
    /// # Errors
    ///
    /// Fails if `name` is not bound to a function, or on runtime failure.
    pub fn call_function(
        &mut self,
        name: &str,
        args: Vec<Value>,
        tracer: &mut dyn Instrument,
    ) -> Result<Value, RuntimeError> {
        let func = match self.globals.get(name) {
            Some(Value::Function(c)) => Rc::clone(c),
            _ => {
                return Err(RuntimeError::new(
                    None,
                    format!("'{name}' is not a function"),
                ))
            }
        };
        self.call_closure_value(&func, args, tracer)
    }

    /// Call a closure value (e.g. a route handler registered with the host).
    ///
    /// # Errors
    ///
    /// Fails if `value` is not a function, or on runtime failure.
    pub fn call_closure(
        &mut self,
        value: &Value,
        args: Vec<Value>,
        tracer: &mut dyn Instrument,
    ) -> Result<Value, RuntimeError> {
        match value {
            Value::Function(c) => self.call_closure_value(c, args, tracer),
            other => Err(RuntimeError::new(
                None,
                format!("cannot call non-function value {other}"),
            )),
        }
    }

    fn call_closure_value(
        &mut self,
        closure: &Rc<Closure>,
        args: Vec<Value>,
        tracer: &mut dyn Instrument,
    ) -> Result<Value, RuntimeError> {
        if self.call_depth >= 64 {
            return Err(RuntimeError::new(
                Some(self.cur_stmt),
                "call depth limit exceeded",
            ));
        }
        let mut scope = BTreeMap::new();
        for (i, p) in closure.params.iter().enumerate() {
            scope.insert(p.clone(), args.get(i).cloned().unwrap_or(Value::Null));
        }
        self.scopes.push(scope);
        self.call_depth += 1;
        let mut result = Value::Null;
        let mut error = None;
        for stmt in &closure.body {
            match self.exec_stmt(stmt, tracer) {
                Ok(Flow::Return(v)) => {
                    result = v;
                    break;
                }
                Ok(Flow::Normal) => {}
                Err(e) => {
                    error = Some(e);
                    break;
                }
            }
        }
        self.call_depth -= 1;
        self.scopes.pop();
        match error {
            Some(e) => Err(e),
            None => Ok(result),
        }
    }

    fn budget(&mut self) -> Result<(), RuntimeError> {
        self.steps += 1;
        if self.steps > self.step_limit {
            Err(RuntimeError::new(
                Some(self.cur_stmt),
                "execution step budget exceeded",
            ))
        } else {
            Ok(())
        }
    }

    fn lookup(&self, name: &str) -> Option<Value> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Some(v.clone());
            }
        }
        if let Some(v) = self.globals.get(name) {
            return Some(v.clone());
        }
        if self.natives.iter().any(|n| n == name) {
            return Some(Value::Native(Rc::from(name)));
        }
        None
    }

    /// Bind `name` in the innermost scope (declaration).
    fn declare(&mut self, name: &str, value: Value) -> bool {
        if let Some(scope) = self.scopes.last_mut() {
            scope.insert(name.to_string(), value);
            false
        } else {
            self.globals.insert(name.to_string(), value);
            true
        }
    }

    /// Assign to an existing binding, falling back to global creation.
    /// Returns `true` if the write landed in the global scope.
    fn assign_var(&mut self, name: &str, value: Value) -> bool {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                *slot = value;
                return false;
            }
        }
        self.globals.insert(name.to_string(), value);
        true
    }

    fn exec_stmt(
        &mut self,
        stmt: &Stmt,
        tracer: &mut dyn Instrument,
    ) -> Result<Flow, RuntimeError> {
        self.budget()?;
        self.cycles += STMT_CYCLES;
        self.cur_stmt = stmt.id();
        tracer.on_event(&TraceEvent::StmtEnter { stmt: stmt.id() });
        match stmt {
            Stmt::Let { id, name, init, .. } => {
                let value = match init {
                    Some(e) => self.eval(e, tracer)?,
                    None => Value::Null,
                };
                tracer.on_event(&TraceEvent::Write {
                    stmt: *id,
                    var: name.clone(),
                    value: value.clone(),
                });
                if self.declare(name, value) {
                    tracer.on_event(&TraceEvent::GlobalWrite {
                        stmt: *id,
                        var: name.clone(),
                    });
                }
                Ok(Flow::Normal)
            }
            Stmt::Assign {
                id, target, value, ..
            } => {
                let v = self.eval(value, tracer)?;
                match target {
                    LValue::Var(name) => {
                        tracer.on_event(&TraceEvent::Write {
                            stmt: *id,
                            var: name.clone(),
                            value: v.clone(),
                        });
                        if self.assign_var(name, v) {
                            tracer.on_event(&TraceEvent::GlobalWrite {
                                stmt: *id,
                                var: name.clone(),
                            });
                        }
                    }
                    LValue::Member(base, field) => {
                        let base_v = self.eval(base, tracer)?;
                        if let Some(root) = target.root_var() {
                            tracer.on_event(&TraceEvent::Write {
                                stmt: *id,
                                var: root.to_string(),
                                value: v.clone(),
                            });
                            if self.is_global_binding(root) {
                                tracer.on_event(&TraceEvent::GlobalWrite {
                                    stmt: *id,
                                    var: root.to_string(),
                                });
                            }
                        }
                        ops::member_set(&base_v, field, v)
                            .map_err(|m| RuntimeError::new(Some(*id), m))?;
                    }
                    LValue::Index(base, index) => {
                        let base_v = self.eval(base, tracer)?;
                        let idx_v = self.eval(index, tracer)?;
                        if let Some(root) = target.root_var() {
                            tracer.on_event(&TraceEvent::Write {
                                stmt: *id,
                                var: root.to_string(),
                                value: v.clone(),
                            });
                            if self.is_global_binding(root) {
                                tracer.on_event(&TraceEvent::GlobalWrite {
                                    stmt: *id,
                                    var: root.to_string(),
                                });
                            }
                        }
                        self.index_set(&base_v, &idx_v, v, *id)?;
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Expr { expr, .. } => {
                self.eval(expr, tracer)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                let c = self.eval(cond, tracer)?;
                let block = if c.is_truthy() {
                    then_block
                } else {
                    else_block
                };
                for s in block {
                    if let Flow::Return(v) = self.exec_stmt(s, tracer)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::While { cond, body, .. } => {
                loop {
                    self.budget()?;
                    let c = self.eval(cond, tracer)?;
                    if !c.is_truthy() {
                        break;
                    }
                    for s in body {
                        if let Flow::Return(v) = self.exec_stmt(s, tracer)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::For {
                init,
                cond,
                update,
                body,
                ..
            } => {
                // loop variables live in a dedicated scope when inside a call
                if let Flow::Return(v) = self.exec_stmt(init, tracer)? {
                    return Ok(Flow::Return(v));
                }
                loop {
                    self.budget()?;
                    let c = self.eval(cond, tracer)?;
                    if !c.is_truthy() {
                        break;
                    }
                    for s in body {
                        if let Flow::Return(v) = self.exec_stmt(s, tracer)? {
                            return Ok(Flow::Return(v));
                        }
                    }
                    if let Flow::Return(v) = self.exec_stmt(update, tracer)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => self.eval(e, tracer)?,
                    None => Value::Null,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Function {
                id,
                name,
                params,
                body,
                ..
            } => {
                let closure = Value::Function(Rc::new(Closure {
                    name: Some(name.clone()),
                    params: params.clone(),
                    body: body.clone(),
                    compiled: None,
                }));
                tracer.on_event(&TraceEvent::Write {
                    stmt: *id,
                    var: name.clone(),
                    value: Value::Null,
                });
                if self.declare(name, closure) {
                    tracer.on_event(&TraceEvent::GlobalWrite {
                        stmt: *id,
                        var: name.clone(),
                    });
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn is_global_binding(&self, name: &str) -> bool {
        for scope in self.scopes.iter().rev() {
            if scope.contains_key(name) {
                return false;
            }
        }
        self.globals.contains_key(name)
    }

    fn index_set(
        &mut self,
        base: &Value,
        idx: &Value,
        v: Value,
        stmt: StmtId,
    ) -> Result<(), RuntimeError> {
        ops::index_set(base, idx, v).map_err(|m| RuntimeError::new(Some(stmt), m))
    }

    fn eval(&mut self, expr: &Expr, tracer: &mut dyn Instrument) -> Result<Value, RuntimeError> {
        self.budget()?;
        self.cycles += 50;
        match expr {
            Expr::Null => Ok(Value::Null),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Num(n) => Ok(Value::Num(*n)),
            Expr::Str(s) => Ok(Value::str(s.as_str())),
            Expr::Var(name) => {
                let v = self.lookup(name).ok_or_else(|| {
                    RuntimeError::new(Some(self.cur_stmt), format!("undefined variable '{name}'"))
                })?;
                tracer.on_event(&TraceEvent::Read {
                    stmt: self.cur_stmt,
                    var: name.clone(),
                    value: v.clone(),
                });
                Ok(v)
            }
            Expr::Array(items) => {
                let mut vs = Vec::with_capacity(items.len());
                for e in items {
                    vs.push(self.eval(e, tracer)?);
                }
                Ok(Value::array(vs))
            }
            Expr::Object(fields) => {
                let mut props = Vec::with_capacity(fields.len());
                for (k, e) in fields {
                    props.push((Rc::from(k.as_str()), self.eval(e, tracer)?));
                }
                Ok(Value::from(props.into_iter().collect::<Props>()))
            }
            Expr::Binary(op, a, b) => {
                // short-circuit logical operators
                if matches!(op, BinOp::And) {
                    let av = self.eval(a, tracer)?;
                    if !av.is_truthy() {
                        return Ok(av);
                    }
                    return self.eval(b, tracer);
                }
                if matches!(op, BinOp::Or) {
                    let av = self.eval(a, tracer)?;
                    if av.is_truthy() {
                        return Ok(av);
                    }
                    return self.eval(b, tracer);
                }
                let av = self.eval(a, tracer)?;
                let bv = self.eval(b, tracer)?;
                self.binary(*op, av, bv)
            }
            Expr::Unary(op, a) => {
                let av = self.eval(a, tracer)?;
                ops::unary(*op, &av).map_err(|m| RuntimeError::new(Some(self.cur_stmt), m))
            }
            Expr::Member(base, field) => {
                let base_v = self.eval(base, tracer)?;
                self.member_get(&base_v, field)
            }
            Expr::Index(base, index) => {
                let base_v = self.eval(base, tracer)?;
                let idx_v = self.eval(index, tracer)?;
                self.index_get(&base_v, &idx_v)
            }
            Expr::Function { params, body } => Ok(Value::Function(Rc::new(Closure {
                name: None,
                params: params.clone(),
                body: body.clone(),
                compiled: None,
            }))),
            Expr::New { ctor, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, tracer)?);
                }
                self.construct(ctor, argv, tracer)
            }
            Expr::Call { callee, args } => {
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, tracer)?);
                }
                match &**callee {
                    // method call: obj.method(args)
                    Expr::Member(base, method) => {
                        let base_v = self.eval(base, tracer)?;
                        let result = self.call_method(&base_v, method, argv, tracer)?;
                        // array mutations through methods are writes to the
                        // receiver variable (the RW-LOG must see them)
                        if matches!(method.as_str(), "push" | "pop") {
                            if let Some(root) = expr_root_var(base) {
                                tracer.on_event(&TraceEvent::Write {
                                    stmt: self.cur_stmt,
                                    var: root.to_string(),
                                    value: base_v.clone(),
                                });
                                if self.is_global_binding(root) {
                                    tracer.on_event(&TraceEvent::GlobalWrite {
                                        stmt: self.cur_stmt,
                                        var: root.to_string(),
                                    });
                                }
                            }
                        }
                        Ok(result)
                    }
                    other => {
                        let f = self.eval(other, tracer)?;
                        match f {
                            Value::Function(c) => {
                                let name =
                                    c.name.clone().unwrap_or_else(|| "<anonymous>".to_string());
                                let call_site = self.cur_stmt;
                                let ret = self.call_closure_value(&c, argv.clone(), tracer)?;
                                self.cur_stmt = call_site;
                                tracer.on_event(&TraceEvent::Invoke {
                                    stmt: call_site,
                                    func: name,
                                    args: argv,
                                    ret: ret.clone(),
                                });
                                Ok(ret)
                            }
                            Value::Native(n) => self.host_call(&n, argv, tracer).map(|o| o.value),
                            other => Err(RuntimeError::new(
                                Some(self.cur_stmt),
                                format!("cannot call {other}"),
                            )),
                        }
                    }
                }
            }
        }
    }

    fn construct(
        &mut self,
        ctor: &str,
        args: Vec<Value>,
        tracer: &mut dyn Instrument,
    ) -> Result<Value, RuntimeError> {
        match ops::construct_builtin(ctor, args) {
            ops::Constructed::Done(v) => Ok(v),
            ops::Constructed::Host(args) => self
                .host_call(&format!("new:{ctor}"), args, tracer)
                .map(|o| o.value),
        }
    }

    fn host_call(
        &mut self,
        name: &str,
        args: Vec<Value>,
        tracer: &mut dyn Instrument,
    ) -> Result<HostOutcome, RuntimeError> {
        let outcome = self
            .host
            .call(name, &args)
            .map_err(|m| RuntimeError::new(Some(self.cur_stmt), m))?;
        self.cycles += outcome.cycles;
        tracer.on_event(&TraceEvent::Invoke {
            stmt: self.cur_stmt,
            func: name.to_string(),
            args,
            ret: outcome.value.clone(),
        });
        Ok(outcome)
    }

    fn call_method(
        &mut self,
        base: &Value,
        method: &str,
        args: Vec<Value>,
        tracer: &mut dyn Instrument,
    ) -> Result<Value, RuntimeError> {
        match base {
            Value::Native(obj) => {
                let full = format!("{obj}.{method}");
                self.host_call(&full, args, tracer).map(|o| o.value)
            }
            Value::Array(items) if matches!(method, "map" | "filter" | "forEach") => {
                let f = args.first().cloned().unwrap_or(Value::Null);
                let snapshot: Vec<Value> = items.borrow().clone();
                let mut out = Vec::new();
                for (i, item) in snapshot.into_iter().enumerate() {
                    let r =
                        self.call_closure(&f, vec![item.clone(), Value::Num(i as f64)], tracer)?;
                    match method {
                        "map" => out.push(r),
                        "filter" if r.is_truthy() => {
                            out.push(item);
                        }
                        _ => {}
                    }
                }
                if method == "forEach" {
                    Ok(Value::Null)
                } else {
                    Ok(Value::array(out))
                }
            }
            Value::Object(map) => {
                // method stored as a function-valued field
                let f = map.borrow().get(method).cloned();
                match f {
                    Some(Value::Function(c)) => {
                        let call_site = self.cur_stmt;
                        let ret = self.call_closure_value(&c, args.clone(), tracer)?;
                        self.cur_stmt = call_site;
                        tracer.on_event(&TraceEvent::Invoke {
                            stmt: call_site,
                            func: method.to_string(),
                            args,
                            ret: ret.clone(),
                        });
                        Ok(ret)
                    }
                    _ => Err(RuntimeError::new(
                        Some(self.cur_stmt),
                        format!("object has no method '{method}'"),
                    )),
                }
            }
            base => ops::simple_method(base, method, &args)
                .expect("non-engine method dispatch is simple")
                .map_err(|m| RuntimeError::new(Some(self.cur_stmt), m)),
        }
    }

    fn member_get(&mut self, base: &Value, field: &str) -> Result<Value, RuntimeError> {
        ops::member_get(base, field).map_err(|m| RuntimeError::new(Some(self.cur_stmt), m))
    }

    fn index_get(&mut self, base: &Value, idx: &Value) -> Result<Value, RuntimeError> {
        ops::index_get(base, idx).map_err(|m| RuntimeError::new(Some(self.cur_stmt), m))
    }

    fn binary(&mut self, op: BinOp, a: Value, b: Value) -> Result<Value, RuntimeError> {
        ops::binary(op, &a, &b).map_err(|m| RuntimeError::new(Some(self.cur_stmt), m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{NoopInstrument, RecordingInstrument};
    use crate::parser::parse;

    fn run(src: &str) -> (BTreeMap<String, Value>, u64) {
        let prog = parse(src).unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        interp.run_program(&prog, &mut NoopInstrument).unwrap();
        let cycles = interp.cycles();
        (interp.globals().clone(), cycles)
    }

    #[test]
    fn arithmetic_and_globals() {
        let (g, _) = run("var x = 2 + 3 * 4; var y = x % 5;");
        assert_eq!(g["x"], Value::Num(14.0));
        assert_eq!(g["y"], Value::Num(4.0));
    }

    #[test]
    fn string_concatenation() {
        let (g, _) = run("var s = 'a' + 1 + 'b';");
        assert_eq!(g["s"], Value::str("a1b"));
    }

    #[test]
    fn function_call_and_return() {
        let (g, _) = run("function sq(n) { return n * n; } var r = sq(7);");
        assert_eq!(g["r"], Value::Num(49.0));
    }

    #[test]
    fn while_loop_sums() {
        let (g, _) = run("var s = 0; var i = 1; while (i <= 10) { s = s + i; i = i + 1; }");
        assert_eq!(g["s"], Value::Num(55.0));
    }

    #[test]
    fn for_loop_sums() {
        let (g, _) = run("var s = 0; for (var i = 0; i < 5; i = i + 1) { s = s + i; }");
        assert_eq!(g["s"], Value::Num(10.0));
    }

    #[test]
    fn if_else_branches() {
        let (g, _) = run("var x = 3; var r = 0; if (x > 2) { r = 1; } else { r = 2; }");
        assert_eq!(g["r"], Value::Num(1.0));
    }

    #[test]
    fn object_and_array_manipulation() {
        let (g, _) = run("var o = { a: [1, 2] }; o.a.push(3); o.b = o.a.length;");
        if let Value::Object(map) = &g["o"] {
            assert_eq!(map.borrow()["b"], Value::Num(3.0));
        } else {
            panic!("o is not an object");
        }
    }

    #[test]
    fn closures_capture_behavior() {
        let (g, _) = run("var f = function (x) { return x + 1; }; var r = f(41);");
        assert_eq!(g["r"], Value::Num(42.0));
    }

    #[test]
    fn array_map_and_filter() {
        let (g, _) = run("var a = [1, 2, 3, 4];
             var doubled = a.map(function (x) { return x * 2; });
             var evens = a.filter(function (x) { return x % 2 == 0; });
             var d1 = doubled[3]; var e0 = evens[0];");
        assert_eq!(g["d1"], Value::Num(8.0));
        assert_eq!(g["e0"], Value::Num(2.0));
    }

    #[test]
    fn string_methods() {
        let (g, _) =
            run("var s = ' Hello '; var t = s.trim().toLowerCase(); var p = t.split('l');");
        assert_eq!(g["t"], Value::str("hello"));
        if let Value::Array(items) = &g["p"] {
            assert_eq!(items.borrow().len(), 3);
        } else {
            panic!("split did not return array");
        }
    }

    #[test]
    fn uint8array_constructor() {
        let (g, _) = run("var b = new Uint8Array([65, 66, 67]); var n = b.length;");
        assert_eq!(g["n"], Value::Num(3.0));
        assert_eq!(g["b"].as_bytes(), Some(&b"ABC"[..]));
    }

    #[test]
    fn undefined_variable_errors() {
        let prog = parse("var x = nope;").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        let err = interp.run_program(&prog, &mut NoopInstrument).unwrap_err();
        assert!(err.message.contains("undefined variable"));
    }

    #[test]
    fn infinite_loop_hits_step_budget() {
        let prog = parse("while (true) { var x = 1; }").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        interp.step_limit = 10_000;
        let err = interp.run_program(&prog, &mut NoopInstrument).unwrap_err();
        assert!(err.message.contains("step budget"));
    }

    #[test]
    fn trace_records_reads_and_writes() {
        let prog = parse("var x = 1; var y = x + 1;").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        let mut rec = RecordingInstrument::new();
        interp.run_program(&prog, &mut rec).unwrap();
        let reads: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Read { var, .. } => Some(var.clone()),
                _ => None,
            })
            .collect();
        let writes: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Write { var, .. } => Some(var.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(reads, vec!["x"]);
        assert_eq!(writes, vec!["x", "y"]);
    }

    #[test]
    fn global_writes_flagged() {
        let prog = parse("var g = 1; function f() { g = 2; var local = 3; } f();").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        let mut rec = RecordingInstrument::new();
        interp.run_program(&prog, &mut rec).unwrap();
        let global_writes: Vec<_> = rec
            .events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::GlobalWrite { var, .. } => Some(var.clone()),
                _ => None,
            })
            .collect();
        assert!(global_writes.contains(&"g".to_string()));
        assert!(!global_writes.contains(&"local".to_string()));
    }

    #[test]
    fn cycles_accumulate_per_statement() {
        let (_, few) = run("var x = 1;");
        let (_, many) = run("var s = 0; for (var i = 0; i < 100; i = i + 1) { s = s + i; }");
        assert!(many > few * 10);
    }

    #[test]
    fn snapshot_and_restore_globals() {
        let prog = parse("var counter = { n: 0 };").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        interp.run_program(&prog, &mut NoopInstrument).unwrap();
        let snap = interp.snapshot_globals();
        let mutate = parse("counter.n = 99;").unwrap();
        interp.run_program(&mutate, &mut NoopInstrument).unwrap();
        interp.restore_globals(&snap);
        if let Value::Object(map) = &interp.globals()["counter"] {
            assert_eq!(map.borrow()["n"], Value::Num(0.0));
        } else {
            panic!("counter missing");
        }
    }

    #[test]
    fn short_circuit_avoids_rhs_evaluation() {
        // if || were not short-circuited, `nope` would raise
        let (g, _) = run("var r = true || nope;");
        assert_eq!(g["r"], Value::Bool(true));
    }

    #[test]
    fn recursion_depth_limited() {
        let prog = parse("function f(n) { return f(n + 1); } var x = f(0);").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        let err = interp.run_program(&prog, &mut NoopInstrument).unwrap_err();
        assert!(err.message.contains("depth"));
    }
}

#[cfg(test)]
mod bytes_method_tests {
    use super::*;
    use crate::instrument::NoopInstrument;
    use crate::parser::parse;

    fn run_src(src: &str) -> std::collections::BTreeMap<String, Value> {
        let prog = parse(src).unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        interp.run_program(&prog, &mut NoopInstrument).unwrap();
        interp.globals().clone()
    }

    #[test]
    fn bytes_to_string_decodes_utf8() {
        let g = run_src("var b = new Uint8Array([104, 105]); var s = b.toString();");
        assert_eq!(g["s"], Value::str("hi"));
    }

    #[test]
    fn bytes_slice_subranges() {
        let g = run_src(
            "var b = new Uint8Array([1, 2, 3, 4, 5]); var mid = b.slice(1, 4); var n = mid.length;",
        );
        assert_eq!(g["n"], Value::Num(3.0));
        assert_eq!(g["mid"].as_bytes(), Some(&[2u8, 3, 4][..]));
    }

    #[test]
    fn string_plus_bytes_concatenates_text() {
        let g = run_src(r#"var b = new Uint8Array([97, 98]); var s = "x" + b; var t = b + "y";"#);
        assert_eq!(g["s"], Value::str("xab"));
        assert_eq!(g["t"], Value::str("aby"));
    }

    #[test]
    fn array_push_emits_write_event() {
        use crate::instrument::{RecordingInstrument, TraceEvent};
        let prog = parse("var a = []; a.push(7);").unwrap();
        let mut host = EmptyHost;
        let mut interp = Interpreter::new(&mut host);
        let mut rec = RecordingInstrument::new();
        interp.run_program(&prog, &mut rec).unwrap();
        let push_writes = rec
            .events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Write { var, .. } if var == "a"))
            .count();
        assert!(push_writes >= 2, "declaration write + push write expected");
    }
}
