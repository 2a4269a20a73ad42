//! Stack VM executing [`CompiledProgram`]s.
//!
//! The VM is behaviorally identical to the tree-walking
//! [`Interpreter`](crate::interp::Interpreter) — same values, same trace
//! events, same error messages, same virtual-cycle accounting — but serves
//! requests without per-access name hashing or per-request deep copies:
//!
//! - locals live in slot-indexed frames; globals in a persistent
//!   [`GlobalStore`] indexed by compile-time gid;
//! - checkpoint/rollback of global state is copy-on-write: a `Journal`
//!   records the first mutation of each reachable container and each
//!   global rebind, and rollback undoes exactly those, replicating the
//!   interpreter's snapshot/merge-restore semantics without deep-copying
//!   the world per request.
//!
//! ## Send audit (parallel serving)
//!
//! The VM and everything it executes are **deliberately thread-owned**:
//! [`Value`] interns strings as `Rc<str>` and shares containers as
//! `Rc<RefCell<...>>`, and [`CompiledProgram`] shares its atom table the
//! same way, precisely so the serve hot path pays non-atomic refcounts
//! and no locks. The parallel executor therefore never moves a `Vm`
//! (or a `ServerProcess`) across threads — each worker *builds* its own
//! from the `Send + Sync` seed data (the AST [`Program`](crate::ast::Program),
//! `CrdtBindings`, and the JSON-viewed `InitSeed`) and owns it for the
//! run. The `sendable_seed_frontier` test pins the frontier at compile
//! time: if a seed type grows a non-`Send` field, the build breaks there
//! rather than at a distant spawn site.

use crate::ast::StmtId;
use crate::compile::{compile_closure, CompiledChunk, CompiledProgram, NameRef, Op};
use crate::instrument::{Instrument, TraceEvent};
use crate::interp::{Host, RuntimeError, STMT_CYCLES};
use crate::value::{Closure, Props, Value};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

/// Persistent global scope of a VM: names, values and native flags indexed
/// by gid. Unbound slots fall through to the native flag, mirroring the
/// interpreter's scopes → globals → natives lookup order.
#[derive(Debug, Default)]
pub struct GlobalStore {
    names: Vec<Rc<str>>,
    values: Vec<Option<Value>>,
    native: Vec<bool>,
    index: HashMap<Rc<str>, u32>,
}

impl GlobalStore {
    fn ensure_slot(&mut self, name: &str, native: bool) -> u32 {
        if let Some(&g) = self.index.get(name) {
            if native {
                self.native[g as usize] = true;
            }
            return g;
        }
        let rc: Rc<str> = Rc::from(name);
        let g = self.names.len() as u32;
        self.names.push(Rc::clone(&rc));
        self.values.push(None);
        self.native.push(native);
        self.index.insert(rc, g);
        g
    }
}

/// One call frame: the chunk being executed plus its local slots.
/// `gids` maps the frame program's gid space onto the store's.
struct Frame {
    program: Rc<CompiledProgram>,
    gids: Rc<Vec<u32>>,
    chunk: u16,
    slots: Vec<Option<Value>>,
}

/// Per-run execution state (one run = one `init` or one request), holding
/// what the interpreter resets by being constructed fresh per request.
struct Ctx<'a> {
    host: &'a mut dyn Host,
    tracer: &'a mut dyn Instrument,
    trace: bool,
    /// Instrument asked for per-statement cost attribution
    /// (`Instrument::wants_profile`).
    profile: bool,
    /// Absolute cycle count at the last profile flush.
    prof_mark: u64,
    /// Allocations observed since the last profile flush.
    prof_allocs: u64,
    cycles: u64,
    steps: u64,
    cur_stmt: StmtId,
    call_depth: u32,
    stack: Vec<Value>,
    frames: Vec<Frame>,
}

impl Ctx<'_> {
    /// Attribute everything accumulated since the last flush to the
    /// current statement. `cycles_now` is the caller's up-to-date absolute
    /// cycle count (the dispatch loop keeps it in a register).
    #[inline]
    fn prof_flush(&mut self, cycles_now: u64) {
        let spent = cycles_now - self.prof_mark;
        if spent > 0 || self.prof_allocs > 0 {
            self.tracer
                .on_stmt_cost(self.cur_stmt, spent, self.prof_allocs);
        }
        self.prof_mark = cycles_now;
        self.prof_allocs = 0;
    }
}

/// Copy-on-write checkpoint journal (see module docs).
struct Journal {
    /// Gids whose bindings the interpreter's `snapshot_globals` would have
    /// captured (bound, non-function, non-native) at checkpoint time.
    capture_bound: Vec<bool>,
    /// Raw pointers of every container reachable from captured bindings.
    capture_ptrs: HashSet<usize>,
    saved_globals: Vec<(u32, Option<Value>)>,
    noted_globals: HashSet<u32>,
    saved_arrays: Vec<(SharedArray, Vec<Value>)>,
    saved_objects: Vec<(SharedObject, Props)>,
    noted_ptrs: HashSet<usize>,
}

type SharedArray = Rc<RefCell<Vec<Value>>>;
type SharedObject = Rc<RefCell<Props>>;

impl Journal {
    fn note_global(&mut self, gid: u32, old: Option<Value>) {
        if self.noted_globals.insert(gid) {
            self.saved_globals.push((gid, old));
        }
    }

    /// Record the pre-mutation contents of a container, if it is one the
    /// checkpoint captured and it has not been noted yet.
    fn note_container(&mut self, v: &Value) {
        match v {
            Value::Array(items) => {
                let ptr = Rc::as_ptr(items) as usize;
                if self.capture_ptrs.contains(&ptr) && self.noted_ptrs.insert(ptr) {
                    self.saved_arrays
                        .push((Rc::clone(items), items.borrow().clone()));
                }
            }
            Value::Object(map) => {
                let ptr = Rc::as_ptr(map) as usize;
                if self.capture_ptrs.contains(&ptr) && self.noted_ptrs.insert(ptr) {
                    self.saved_objects
                        .push((Rc::clone(map), map.borrow().clone()));
                }
            }
            _ => {}
        }
    }
}

/// Collect the raw pointers of all containers reachable from `v`. The set
/// doubles as the cycle guard.
fn collect_ptrs(v: &Value, out: &mut HashSet<usize>) {
    match v {
        Value::Array(items) if out.insert(Rc::as_ptr(items) as usize) => {
            for item in items.borrow().iter() {
                collect_ptrs(item, out);
            }
        }
        Value::Object(map) if out.insert(Rc::as_ptr(map) as usize) => {
            for item in map.borrow().values() {
                collect_ptrs(item, out);
            }
        }
        _ => {}
    }
}

type AdoptedClosure = (Rc<Closure>, Rc<CompiledProgram>, Rc<Vec<u32>>);

/// The compiled-NodeScript virtual machine. One VM instance holds the
/// global state of one server program across requests, the way one
/// interpreter instance does for the tree-walking engine.
pub struct Vm {
    program: Rc<CompiledProgram>,
    identity_gids: Rc<Vec<u32>>,
    store: GlobalStore,
    step_limit: u64,
    journal: Option<Journal>,
    /// Foreign programs adopted at runtime (closures compiled on demand),
    /// with their gid remap tables, keyed by source-closure identity.
    adopted: Vec<AdoptedClosure>,
    /// Recycled frame-slot vectors — calls reuse capacity instead of
    /// allocating per invocation.
    slot_pool: Vec<Vec<Option<Value>>>,
    /// Recycled argument vectors for calls and host dispatch.
    arg_pool: Vec<Vec<Value>>,
    /// Reused buffer for `obj.method` host-call names.
    scratch_name: String,
    /// Gids that transitioned unbound -> bound since the last
    /// [`Vm::clear_bind_log`] — an O(new bindings) alternative to diffing
    /// full [`Vm::bound_mask`] snapshots around every request.
    bind_log: Vec<u32>,
    /// Recycled operand stack for [`Vm::call_value`].
    stack_buf: Vec<Value>,
    /// Recycled frame stack for [`Vm::call_value`].
    frames_buf: Vec<Frame>,
}

impl std::fmt::Debug for Vm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Vm")
            .field("chunks", &self.program.chunks.len())
            .field("globals", &self.store.values.iter().flatten().count())
            .finish()
    }
}

impl Vm {
    /// Create a VM for `program`. `natives` are the host's root object
    /// names (bare identifiers evaluating to [`Value::Native`]).
    pub fn new(program: Rc<CompiledProgram>, natives: &[String]) -> Self {
        let mut store = GlobalStore::default();
        for &atom in &program.global_names {
            let name = &program.atoms[atom as usize];
            let native = natives.iter().any(|n| n.as_str() == &**name);
            store.ensure_slot(name, native);
        }
        for n in natives {
            store.ensure_slot(n, true);
        }
        let identity_gids = Rc::new((0..program.global_names.len() as u32).collect());
        Vm {
            program,
            identity_gids,
            store,
            step_limit: 50_000_000,
            journal: None,
            adopted: Vec::new(),
            slot_pool: Vec::new(),
            arg_pool: Vec::new(),
            scratch_name: String::new(),
            bind_log: Vec::new(),
            stack_buf: Vec::new(),
            frames_buf: Vec::new(),
        }
    }

    /// Override the execution step budget (tests).
    pub fn set_step_limit(&mut self, limit: u64) {
        self.step_limit = limit;
    }

    /// Run the top-level chunk (the server's `init` phase). Returns the
    /// virtual cycles consumed.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] on any runtime failure.
    pub fn run_top(
        &mut self,
        host: &mut dyn Host,
        tracer: &mut dyn Instrument,
    ) -> Result<u64, RuntimeError> {
        let trace = tracer.wants_events();
        let profile = tracer.wants_profile();
        let mut ctx = Ctx {
            host,
            tracer,
            trace,
            profile,
            prof_mark: 0,
            prof_allocs: 0,
            cycles: 0,
            steps: 0,
            cur_stmt: StmtId(0),
            call_depth: 0,
            stack: Vec::new(),
            frames: vec![Frame {
                program: Rc::clone(&self.program),
                gids: Rc::clone(&self.identity_gids),
                chunk: 0,
                slots: Vec::new(),
            }],
        };
        self.exec(&mut ctx)?;
        if ctx.profile {
            ctx.prof_flush(ctx.cycles);
        }
        Ok(ctx.cycles)
    }

    /// Call a function value (e.g. a route handler). Returns the result
    /// and the virtual cycles consumed, with step/cycle counters starting
    /// from zero — matching the interpreter's fresh-per-request lifecycle.
    ///
    /// # Errors
    ///
    /// Fails if `value` is not a function, or on runtime failure.
    pub fn call_value(
        &mut self,
        value: &Value,
        args: Vec<Value>,
        host: &mut dyn Host,
        tracer: &mut dyn Instrument,
    ) -> Result<(Value, u64), RuntimeError> {
        let closure = match value {
            Value::Function(c) => Rc::clone(c),
            other => {
                return Err(RuntimeError {
                    stmt: None,
                    message: format!("cannot call non-function value {other}"),
                })
            }
        };
        let trace = tracer.wants_events();
        let profile = tracer.wants_profile();
        let mut ctx = Ctx {
            host,
            tracer,
            trace,
            profile,
            prof_mark: 0,
            prof_allocs: 0,
            cycles: 0,
            steps: 0,
            cur_stmt: StmtId(0),
            call_depth: 0,
            // reuse the operand/frame buffers across calls so steady-state
            // request handling does not allocate for the execution context
            stack: std::mem::take(&mut self.stack_buf),
            frames: std::mem::take(&mut self.frames_buf),
        };
        let mut args = args;
        let ret = self.call_closure_vm(&mut ctx, &closure, &mut args);
        let cycles = ctx.cycles;
        ctx.stack.clear();
        ctx.frames.clear();
        self.stack_buf = ctx.stack;
        self.frames_buf = ctx.frames;
        Ok((ret?, cycles))
    }

    /// All bound globals, including functions, as a name-keyed map.
    pub fn globals_map(&self) -> BTreeMap<String, Value> {
        self.store
            .names
            .iter()
            .zip(&self.store.values)
            .filter_map(|(n, v)| v.as_ref().map(|v| (n.to_string(), v.clone())))
            .collect()
    }

    /// Deep-copy the global scope, skipping functions and natives — the
    /// same capture the interpreter's `snapshot_globals` performs.
    pub fn snapshot_globals(&self) -> BTreeMap<String, Value> {
        self.store
            .names
            .iter()
            .zip(&self.store.values)
            .filter_map(|(n, v)| match v {
                Some(v) if !matches!(v, Value::Function(_) | Value::Native(_)) => {
                    Some((n.to_string(), v.deep_clone()))
                }
                _ => None,
            })
            .collect()
    }

    /// Merge `saved` values back into the global scope.
    pub fn restore_globals(&mut self, saved: &BTreeMap<String, Value>) {
        for (k, v) in saved {
            self.set_global(k, v.deep_clone());
        }
    }

    /// Read a global binding.
    pub fn get_global(&self, name: &str) -> Option<Value> {
        let &g = self.store.index.get(name)?;
        self.store.values[g as usize].clone()
    }

    /// Create or overwrite a global binding (journal-aware).
    pub fn set_global(&mut self, name: &str, value: Value) {
        let g = self.store.ensure_slot(name, false);
        if let Some(j) = &mut self.journal {
            j.note_global(g, self.store.values[g as usize].clone());
        }
        if self.store.values[g as usize].is_none() {
            self.bind_log.push(g);
        }
        self.store.values[g as usize] = Some(value);
    }

    /// Bound-or-not flag per global slot; pair with [`Vm::newly_bound`] to
    /// find globals created by a request.
    pub fn bound_mask(&self) -> Vec<bool> {
        self.store.values.iter().map(Option::is_some).collect()
    }

    /// Reset the unbound->bound transition log (call before a request).
    pub fn clear_bind_log(&mut self) {
        self.bind_log.clear();
    }

    /// Names of globals bound since [`Vm::clear_bind_log`], sorted — the
    /// same set [`Vm::newly_bound`] computes, without the per-request
    /// full-store scans.
    pub fn logged_newly_bound(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .bind_log
            .iter()
            .map(|&g| self.store.names[g as usize].to_string())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Names of globals bound now but not in `mask`, sorted.
    pub fn newly_bound(&self, mask: &[bool]) -> Vec<String> {
        let mut out: Vec<String> = self
            .store
            .values
            .iter()
            .enumerate()
            .filter(|(i, v)| v.is_some() && !mask.get(*i).copied().unwrap_or(false))
            .map(|(i, _)| self.store.names[i].to_string())
            .collect();
        out.sort();
        out
    }

    /// Arm copy-on-write checkpointing: record which bindings and
    /// containers the equivalent deep snapshot would capture.
    pub fn begin_checkpoint(&mut self) {
        let mut capture_bound = vec![false; self.store.values.len()];
        let mut capture_ptrs = HashSet::new();
        for (i, v) in self.store.values.iter().enumerate() {
            if let Some(v) = v {
                if !matches!(v, Value::Function(_) | Value::Native(_)) {
                    capture_bound[i] = true;
                    collect_ptrs(v, &mut capture_ptrs);
                }
            }
        }
        self.journal = Some(Journal {
            capture_bound,
            capture_ptrs,
            saved_globals: Vec::new(),
            noted_globals: HashSet::new(),
            saved_arrays: Vec::new(),
            saved_objects: Vec::new(),
            noted_ptrs: HashSet::new(),
        });
    }

    /// Undo every journaled mutation since [`Vm::begin_checkpoint`] (or
    /// the last rollback), replicating the interpreter's merge-restore:
    /// captured containers get their contents back, captured bindings get
    /// their values back, everything else (globals created or rebound
    /// outside the capture set) persists. The journal stays armed.
    pub fn rollback_checkpoint(&mut self) {
        let Some(j) = &mut self.journal else { return };
        for (rc, saved) in j.saved_arrays.drain(..) {
            *rc.borrow_mut() = saved;
        }
        for (rc, saved) in j.saved_objects.drain(..) {
            *rc.borrow_mut() = saved;
        }
        for (gid, old) in j.saved_globals.drain(..) {
            if j.capture_bound.get(gid as usize).copied().unwrap_or(false) {
                self.store.values[gid as usize] = old;
            }
        }
        j.noted_globals.clear();
        j.noted_ptrs.clear();
    }

    /// Disarm checkpointing, keeping the current state.
    pub fn end_checkpoint(&mut self) {
        self.journal = None;
    }

    fn journal_container(&mut self, v: &Value) {
        if let Some(j) = &mut self.journal {
            j.note_container(v);
        }
    }

    /// Map a foreign program's gid space onto the store, creating slots as
    /// needed.
    fn gids_for(&mut self, program: &Rc<CompiledProgram>) -> Rc<Vec<u32>> {
        if Rc::ptr_eq(program, &self.program) {
            return Rc::clone(&self.identity_gids);
        }
        for (_, p, g) in &self.adopted {
            if Rc::ptr_eq(p, program) {
                return Rc::clone(g);
            }
        }
        let map: Vec<u32> = program
            .global_names
            .iter()
            .map(|&atom| {
                let name = program.atoms[atom as usize].to_string();
                self.store.ensure_slot(&name, false)
            })
            .collect();
        Rc::new(map)
    }

    /// Resolve a closure to an executable (program, gid map, chunk),
    /// compiling interpreter-built closures on demand.
    fn entry_of(&mut self, closure: &Rc<Closure>) -> (Rc<CompiledProgram>, Rc<Vec<u32>>, u16) {
        if let Some(cc) = &closure.compiled {
            let gids = self.gids_for(&cc.program);
            return (Rc::clone(&cc.program), gids, cc.chunk);
        }
        for (c, p, g) in &self.adopted {
            if Rc::ptr_eq(c, closure) {
                return (Rc::clone(p), Rc::clone(g), 0);
            }
        }
        let program = Rc::new(compile_closure(closure));
        let gids = self.gids_for(&program);
        self.adopted
            .push((Rc::clone(closure), Rc::clone(&program), Rc::clone(&gids)));
        (program, gids, 0)
    }

    /// Invoke `closure`, consuming the values in `args` (the vector's
    /// capacity is left to the caller for reuse).
    fn call_closure_vm(
        &mut self,
        ctx: &mut Ctx<'_>,
        closure: &Rc<Closure>,
        args: &mut [Value],
    ) -> Result<Value, RuntimeError> {
        if ctx.call_depth >= 64 {
            return Err(RuntimeError {
                stmt: Some(ctx.cur_stmt),
                message: "call depth limit exceeded".into(),
            });
        }
        let (program, gids, chunk) = self.entry_of(closure);
        let chunk_ref = &program.chunks[chunk as usize];
        let mut slots = self.slot_pool.pop().unwrap_or_default();
        slots.resize(chunk_ref.locals.len(), None);
        for (i, &slot) in chunk_ref.params.iter().enumerate() {
            slots[slot as usize] = Some(args.get_mut(i).map(std::mem::take).unwrap_or(Value::Null));
        }
        if ctx.profile {
            // pre-call cost belongs to the caller's statement
            ctx.prof_flush(ctx.cycles);
            ctx.tracer.on_frame_push(closure.name.as_deref());
        }
        ctx.frames.push(Frame {
            program,
            gids,
            chunk,
            slots,
        });
        ctx.call_depth += 1;
        let result = self.exec(ctx);
        ctx.call_depth -= 1;
        if ctx.profile {
            // trailing cost belongs to the callee's last statement
            ctx.prof_flush(ctx.cycles);
            ctx.tracer.on_frame_pop();
        }
        if let Some(frame) = ctx.frames.pop() {
            let mut slots = frame.slots;
            slots.clear();
            if self.slot_pool.len() < 64 {
                self.slot_pool.push(slots);
            }
        }
        result
    }

    /// Like [`Self::call_closure_vm`], but takes the arguments directly from
    /// the operand stack (everything above `argbase`), avoiding a drain into
    /// a temporary vector on the hottest call path.
    fn call_closure_stack(
        &mut self,
        ctx: &mut Ctx<'_>,
        closure: &Rc<Closure>,
        argbase: usize,
    ) -> Result<Value, RuntimeError> {
        if ctx.call_depth >= 64 {
            return Err(RuntimeError {
                stmt: Some(ctx.cur_stmt),
                message: "call depth limit exceeded".into(),
            });
        }
        let (program, gids, chunk) = self.entry_of(closure);
        let chunk_ref = &program.chunks[chunk as usize];
        let mut slots = self.slot_pool.pop().unwrap_or_default();
        slots.resize(chunk_ref.locals.len(), None);
        for (i, &slot) in chunk_ref.params.iter().enumerate() {
            slots[slot as usize] = Some(
                ctx.stack
                    .get_mut(argbase + i)
                    .map(std::mem::take)
                    .unwrap_or(Value::Null),
            );
        }
        ctx.stack.truncate(argbase);
        if ctx.profile {
            // pre-call cost belongs to the caller's statement
            ctx.prof_flush(ctx.cycles);
            ctx.tracer.on_frame_push(closure.name.as_deref());
        }
        ctx.frames.push(Frame {
            program,
            gids,
            chunk,
            slots,
        });
        ctx.call_depth += 1;
        let result = self.exec(ctx);
        ctx.call_depth -= 1;
        if ctx.profile {
            // trailing cost belongs to the callee's last statement
            ctx.prof_flush(ctx.cycles);
            ctx.tracer.on_frame_pop();
        }
        if let Some(frame) = ctx.frames.pop() {
            let mut slots = frame.slots;
            slots.clear();
            if self.slot_pool.len() < 64 {
                self.slot_pool.push(slots);
            }
        }
        result
    }

    fn budget_err(&self, ctx: &Ctx<'_>) -> RuntimeError {
        RuntimeError {
            stmt: Some(ctx.cur_stmt),
            message: "execution step budget exceeded".into(),
        }
    }

    fn err(ctx: &Ctx<'_>, message: String) -> RuntimeError {
        RuntimeError {
            stmt: Some(ctx.cur_stmt),
            message,
        }
    }

    /// Look up a variable: bound frame slot, then bound locals of outer
    /// frames (dynamic scoping), then globals, then natives.
    fn load_name(&self, ctx: &Ctx<'_>, nref: NameRef) -> Option<Value> {
        let frame = ctx.frames.last().expect("active frame");
        if let Some(slot) = nref.slot {
            if let Some(v) = &frame.slots[slot as usize] {
                return Some(v.clone());
            }
        }
        let name = &frame.program.atoms[nref.atom as usize];
        for f in ctx.frames[..ctx.frames.len() - 1].iter().rev() {
            if let Some(v) = frame_local(f, &frame.program, nref.atom, name) {
                return Some(v.clone());
            }
        }
        let gid = frame.gids[nref.gid as usize] as usize;
        if let Some(v) = &self.store.values[gid] {
            return Some(v.clone());
        }
        if self.store.native[gid] {
            return Some(Value::Native(Rc::clone(&self.store.names[gid])));
        }
        None
    }

    /// Assign to an existing binding (frame slot, then outer frames),
    /// falling back to global creation. Returns `true` if the write landed
    /// in the global scope.
    fn assign_name(&mut self, ctx: &mut Ctx<'_>, nref: NameRef, value: Value) -> bool {
        let last = ctx.frames.len() - 1;
        if let Some(slot) = nref.slot {
            let slot = &mut ctx.frames[last].slots[slot as usize];
            if slot.is_some() {
                *slot = Some(value);
                return false;
            }
        }
        let program = Rc::clone(&ctx.frames[last].program);
        let name = Rc::clone(&program.atoms[nref.atom as usize]);
        for f in ctx.frames[..last].iter_mut().rev() {
            if let Some(slot) = frame_local_mut(f, &program, nref.atom, &name) {
                *slot = Some(value);
                return false;
            }
        }
        let gid = ctx.frames[last].gids[nref.gid as usize];
        if let Some(j) = &mut self.journal {
            j.note_global(gid, self.store.values[gid as usize].clone());
        }
        if self.store.values[gid as usize].is_none() {
            self.bind_log.push(gid);
        }
        self.store.values[gid as usize] = Some(value);
        true
    }

    /// Whether `nref` currently resolves to the global scope — no bound
    /// local in any active frame shadows it, and a global binding exists.
    fn is_global_binding(&self, ctx: &Ctx<'_>, nref: NameRef) -> bool {
        let frame = ctx.frames.last().expect("active frame");
        if let Some(slot) = nref.slot {
            if frame.slots[slot as usize].is_some() {
                return false;
            }
        }
        let name = &frame.program.atoms[nref.atom as usize];
        for f in ctx.frames[..ctx.frames.len() - 1].iter().rev() {
            if frame_local(f, &frame.program, nref.atom, name).is_some() {
                return false;
            }
        }
        let gid = frame.gids[nref.gid as usize] as usize;
        self.store.values[gid].is_some()
    }

    fn host_call(ctx: &mut Ctx<'_>, name: &str, args: &[Value]) -> Result<Value, RuntimeError> {
        let outcome = ctx.host.call(name, args).map_err(|m| Self::err(ctx, m))?;
        ctx.cycles += outcome.cycles;
        if ctx.trace {
            ctx.tracer.on_event(&TraceEvent::Invoke {
                stmt: ctx.cur_stmt,
                func: name.to_string(),
                args: args.to_vec(),
                ret: outcome.value.clone(),
            });
        }
        Ok(outcome.value)
    }

    fn exec(&mut self, ctx: &mut Ctx<'_>) -> Result<Value, RuntimeError> {
        let base = ctx.stack.len();
        let result = self.exec_ops(ctx, base);
        ctx.stack.truncate(base);
        result
    }

    #[allow(clippy::too_many_lines)]
    fn exec_ops(&mut self, ctx: &mut Ctx<'_>, base: usize) -> Result<Value, RuntimeError> {
        let frame_idx = ctx.frames.len() - 1;
        let program = Rc::clone(&ctx.frames[frame_idx].program);
        let chunk = ctx.frames[frame_idx].chunk as usize;
        let ops: &[Op] = &program.chunks[chunk].ops;
        let mut ip = 0usize;
        // the step/cycle counters stay in registers through the dispatch
        // loop and are flushed to `ctx` only around calls that observe them
        let mut steps = ctx.steps;
        let mut cycles = ctx.cycles;
        loop {
            let Some(op) = ops.get(ip) else {
                ctx.steps = steps;
                ctx.cycles = cycles;
                return Ok(Value::Null);
            };
            ip += 1;
            match op {
                Op::Stmt(id) => {
                    steps += 1;
                    if steps > self.step_limit {
                        return Err(self.budget_err(ctx));
                    }
                    if ctx.profile {
                        // close out the previous statement before moving on
                        ctx.prof_flush(cycles);
                    }
                    cycles += STMT_CYCLES;
                    ctx.cur_stmt = *id;
                    if ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::StmtEnter { stmt: *id });
                    }
                }
                Op::LoopBudget => {
                    steps += 1;
                    if steps > self.step_limit {
                        return Err(self.budget_err(ctx));
                    }
                }
                Op::Charge(n) => {
                    if *n > 0 {
                        steps += u64::from(*n);
                        if steps > self.step_limit {
                            return Err(self.budget_err(ctx));
                        }
                        cycles += 50 * u64::from(*n);
                    }
                }
                Op::Const { value, weight } => {
                    if *weight > 0 {
                        steps += u64::from(*weight);
                        if steps > self.step_limit {
                            return Err(self.budget_err(ctx));
                        }
                        cycles += 50 * u64::from(*weight);
                    }
                    ctx.stack.push(value.clone());
                }
                Op::Load(nref) => {
                    steps += 1;
                    if steps > self.step_limit {
                        return Err(self.budget_err(ctx));
                    }
                    cycles += 50;
                    // bound frame slot is the common case: resolve it inline
                    // and fall back to the full dynamic-scope walk otherwise
                    let slot_hit = nref
                        .slot
                        .and_then(|s| ctx.frames[frame_idx].slots[s as usize].clone());
                    let v = match slot_hit {
                        Some(v) => v,
                        None => self.load_name(ctx, *nref).ok_or_else(|| {
                            let name = &program.atoms[nref.atom as usize];
                            Self::err(ctx, format!("undefined variable '{name}'"))
                        })?,
                    };
                    if ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::Read {
                            stmt: ctx.cur_stmt,
                            var: program.atoms[nref.atom as usize].to_string(),
                            value: v.clone(),
                        });
                    }
                    ctx.stack.push(v);
                }
                Op::Store { stmt, name } => {
                    let v = ctx.stack.pop().expect("store operand");
                    if ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::Write {
                            stmt: *stmt,
                            var: program.atoms[name.atom as usize].to_string(),
                            value: v.clone(),
                        });
                    }
                    let slot_bound = name
                        .slot
                        .is_some_and(|s| ctx.frames[frame_idx].slots[s as usize].is_some());
                    if slot_bound {
                        let s = name.slot.expect("checked above") as usize;
                        ctx.frames[frame_idx].slots[s] = Some(v);
                    } else if self.assign_name(ctx, *name, v) && ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::GlobalWrite {
                            stmt: *stmt,
                            var: program.atoms[name.atom as usize].to_string(),
                        });
                    }
                }
                Op::Declare { stmt, name } => {
                    let v = ctx.stack.pop().expect("declare operand");
                    if ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::Write {
                            stmt: *stmt,
                            var: program.atoms[name.atom as usize].to_string(),
                            value: v.clone(),
                        });
                    }
                    if self.declare_name(ctx, *name, v) && ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::GlobalWrite {
                            stmt: *stmt,
                            var: program.atoms[name.atom as usize].to_string(),
                        });
                    }
                }
                Op::DeclareFn {
                    stmt,
                    name,
                    template,
                    chunk: fn_chunk,
                } => {
                    if ctx.profile {
                        ctx.prof_allocs += 1;
                    }
                    let v = Value::Function(Rc::new(Closure {
                        name: template.name.clone(),
                        params: template.params.clone(),
                        body: template.body.clone(),
                        compiled: Some(CompiledChunk {
                            program: Rc::clone(&program),
                            chunk: *fn_chunk,
                        }),
                    }));
                    if ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::Write {
                            stmt: *stmt,
                            var: program.atoms[name.atom as usize].to_string(),
                            value: Value::Null,
                        });
                    }
                    if self.declare_name(ctx, *name, v) && ctx.trace {
                        ctx.tracer.on_event(&TraceEvent::GlobalWrite {
                            stmt: *stmt,
                            var: program.atoms[name.atom as usize].to_string(),
                        });
                    }
                }
                Op::MakeClosure {
                    template,
                    chunk: fn_chunk,
                } => {
                    steps += 1;
                    if steps > self.step_limit {
                        return Err(self.budget_err(ctx));
                    }
                    cycles += 50;
                    if ctx.profile {
                        ctx.prof_allocs += 1;
                    }
                    ctx.stack.push(Value::Function(Rc::new(Closure {
                        name: template.name.clone(),
                        params: template.params.clone(),
                        body: template.body.clone(),
                        compiled: Some(CompiledChunk {
                            program: Rc::clone(&program),
                            chunk: *fn_chunk,
                        }),
                    })));
                }
                Op::MakeArray(n) => {
                    if ctx.profile {
                        ctx.prof_allocs += 1;
                    }
                    let vals = ctx.stack.split_off(ctx.stack.len() - *n as usize);
                    ctx.stack.push(Value::array(vals));
                }
                Op::MakeObject(keys) => {
                    if ctx.profile {
                        ctx.prof_allocs += 1;
                    }
                    let vals = ctx.stack.split_off(ctx.stack.len() - keys.len());
                    let props: Props = keys.iter().cloned().zip(vals).collect();
                    ctx.stack.push(Value::from(props));
                }
                Op::GetMember(field) => {
                    let b = ctx.stack.pop().expect("member base");
                    let v = crate::ops::member_get(&b, field).map_err(|m| Self::err(ctx, m))?;
                    ctx.stack.push(v);
                }
                Op::GetIndex => {
                    let idx = ctx.stack.pop().expect("index");
                    let b = ctx.stack.pop().expect("index base");
                    let v = crate::ops::index_get(&b, &idx).map_err(|m| Self::err(ctx, m))?;
                    ctx.stack.push(v);
                }
                Op::SetMember { stmt, field, root } => {
                    let b = ctx.stack.pop().expect("member base");
                    let v = ctx.stack.pop().expect("member value");
                    self.root_write_events(ctx, &program, *stmt, *root, &v);
                    self.journal_container(&b);
                    crate::ops::member_set(&b, field, v).map_err(|m| RuntimeError {
                        stmt: Some(*stmt),
                        message: m,
                    })?;
                }
                Op::SetIndex { stmt, root } => {
                    let idx = ctx.stack.pop().expect("index");
                    let b = ctx.stack.pop().expect("index base");
                    let v = ctx.stack.pop().expect("index value");
                    self.root_write_events(ctx, &program, *stmt, *root, &v);
                    self.journal_container(&b);
                    crate::ops::index_set(&b, &idx, v).map_err(|m| RuntimeError {
                        stmt: Some(*stmt),
                        message: m,
                    })?;
                }
                Op::Binary(op) => {
                    let b = ctx.stack.pop().expect("rhs");
                    let a = ctx.stack.pop().expect("lhs");
                    let v = crate::ops::binary(*op, &a, &b).map_err(|m| Self::err(ctx, m))?;
                    ctx.stack.push(v);
                }
                Op::Unary(op) => {
                    let a = ctx.stack.pop().expect("operand");
                    let v = crate::ops::unary(*op, &a).map_err(|m| Self::err(ctx, m))?;
                    ctx.stack.push(v);
                }
                Op::And(target) => {
                    let keep = !ctx.stack.last().expect("lhs").is_truthy();
                    if keep {
                        ip = *target as usize;
                    } else {
                        ctx.stack.pop();
                    }
                }
                Op::Or(target) => {
                    let keep = ctx.stack.last().expect("lhs").is_truthy();
                    if keep {
                        ip = *target as usize;
                    } else {
                        ctx.stack.pop();
                    }
                }
                Op::Jump(target) => ip = *target as usize,
                Op::JumpIfFalse(target) => {
                    let c = ctx.stack.pop().expect("condition");
                    if !c.is_truthy() {
                        ip = *target as usize;
                    }
                }
                Op::Call { argc } => {
                    let callee = ctx.stack.pop().expect("callee");
                    let split = ctx.stack.len() - *argc as usize;
                    match callee {
                        Value::Function(c) => {
                            let call_site = ctx.cur_stmt;
                            let traced_args = ctx.trace.then(|| {
                                (
                                    c.name.clone().unwrap_or_else(|| "<anonymous>".to_string()),
                                    ctx.stack[split..].to_vec(),
                                )
                            });
                            ctx.steps = steps;
                            ctx.cycles = cycles;
                            let ret = self.call_closure_stack(ctx, &c, split)?;
                            steps = ctx.steps;
                            cycles = ctx.cycles;
                            ctx.cur_stmt = call_site;
                            if let Some((name, args)) = traced_args {
                                ctx.tracer.on_event(&TraceEvent::Invoke {
                                    stmt: call_site,
                                    func: name,
                                    args,
                                    ret: ret.clone(),
                                });
                            }
                            ctx.stack.push(ret);
                        }
                        Value::Native(n) => {
                            let mut args = self.arg_pool.pop().unwrap_or_default();
                            args.extend(ctx.stack.drain(split..));
                            ctx.steps = steps;
                            ctx.cycles = cycles;
                            let v = Self::host_call(ctx, &n, &args)?;
                            steps = ctx.steps;
                            cycles = ctx.cycles;
                            args.clear();
                            self.arg_pool.push(args);
                            ctx.stack.push(v);
                        }
                        other => {
                            return Err(Self::err(ctx, format!("cannot call {other}")));
                        }
                    }
                }
                Op::CallMethod { method, argc, root } => {
                    let b = ctx.stack.pop().expect("method base");
                    let split = ctx.stack.len() - *argc as usize;
                    let mut args = self.arg_pool.pop().unwrap_or_default();
                    args.extend(ctx.stack.drain(split..));
                    ctx.steps = steps;
                    ctx.cycles = cycles;
                    let ret = self.call_method_vm(ctx, &b, method, &mut args)?;
                    steps = ctx.steps;
                    cycles = ctx.cycles;
                    args.clear();
                    self.arg_pool.push(args);
                    if let Some(root) = root {
                        if ctx.trace {
                            ctx.tracer.on_event(&TraceEvent::Write {
                                stmt: ctx.cur_stmt,
                                var: program.atoms[root.atom as usize].to_string(),
                                value: b.clone(),
                            });
                            if self.is_global_binding(ctx, *root) {
                                ctx.tracer.on_event(&TraceEvent::GlobalWrite {
                                    stmt: ctx.cur_stmt,
                                    var: program.atoms[root.atom as usize].to_string(),
                                });
                            }
                        }
                    }
                    ctx.stack.push(ret);
                }
                Op::New { ctor, argc } => {
                    if ctx.profile {
                        ctx.prof_allocs += 1;
                    }
                    let args = ctx.stack.split_off(ctx.stack.len() - *argc as usize);
                    match crate::ops::construct_builtin(ctor, args) {
                        crate::ops::Constructed::Done(v) => ctx.stack.push(v),
                        crate::ops::Constructed::Host(args) => {
                            ctx.steps = steps;
                            ctx.cycles = cycles;
                            let v = Self::host_call(ctx, &format!("new:{ctor}"), &args)?;
                            steps = ctx.steps;
                            cycles = ctx.cycles;
                            ctx.stack.push(v);
                        }
                    }
                }
                Op::Pop => {
                    ctx.stack.pop();
                }
                Op::Return => {
                    let v = ctx.stack.pop().expect("return value");
                    ctx.stack.truncate(base);
                    ctx.steps = steps;
                    ctx.cycles = cycles;
                    return Ok(v);
                }
                Op::ReturnNull => {
                    ctx.stack.truncate(base);
                    ctx.steps = steps;
                    ctx.cycles = cycles;
                    return Ok(Value::Null);
                }
            }
        }
    }

    /// Emit the receiver-root Write/GlobalWrite events of a member/index
    /// assignment (before the mutation, like the interpreter).
    fn root_write_events(
        &self,
        ctx: &mut Ctx<'_>,
        program: &CompiledProgram,
        stmt: StmtId,
        root: Option<NameRef>,
        value: &Value,
    ) {
        if !ctx.trace {
            return;
        }
        let Some(root) = root else { return };
        ctx.tracer.on_event(&TraceEvent::Write {
            stmt,
            var: program.atoms[root.atom as usize].to_string(),
            value: value.clone(),
        });
        if self.is_global_binding(ctx, root) {
            ctx.tracer.on_event(&TraceEvent::GlobalWrite {
                stmt,
                var: program.atoms[root.atom as usize].to_string(),
            });
        }
    }

    /// Bind `name` in the innermost scope; returns `true` for a global
    /// binding (top level).
    fn declare_name(&mut self, ctx: &mut Ctx<'_>, nref: NameRef, value: Value) -> bool {
        let last = ctx.frames.len() - 1;
        if let Some(slot) = nref.slot {
            ctx.frames[last].slots[slot as usize] = Some(value);
            return false;
        }
        let gid = ctx.frames[last].gids[nref.gid as usize];
        if let Some(j) = &mut self.journal {
            j.note_global(gid, self.store.values[gid as usize].clone());
        }
        if self.store.values[gid as usize].is_none() {
            self.bind_log.push(gid);
        }
        self.store.values[gid as usize] = Some(value);
        true
    }

    fn call_method_vm(
        &mut self,
        ctx: &mut Ctx<'_>,
        base: &Value,
        method: &str,
        args: &mut [Value],
    ) -> Result<Value, RuntimeError> {
        match base {
            Value::Native(obj) => {
                // build "obj.method" in a reused buffer instead of a fresh
                // format! allocation per host call
                let mut name = std::mem::take(&mut self.scratch_name);
                name.clear();
                name.push_str(obj);
                name.push('.');
                name.push_str(method);
                let r = Self::host_call(ctx, &name, args);
                self.scratch_name = name;
                r
            }
            Value::Array(items) if matches!(method, "map" | "filter" | "forEach") => {
                let f = if args.is_empty() {
                    Value::Null
                } else {
                    std::mem::take(&mut args[0])
                };
                let snapshot: Vec<Value> = items.borrow().clone();
                let mut out = Vec::new();
                let mut call_args = self.arg_pool.pop().unwrap_or_default();
                for (i, item) in snapshot.into_iter().enumerate() {
                    let r = match &f {
                        Value::Function(c) => {
                            call_args.clear();
                            call_args.push(item.clone());
                            call_args.push(Value::Num(i as f64));
                            self.call_closure_vm(ctx, c, &mut call_args)?
                        }
                        other => {
                            return Err(RuntimeError {
                                stmt: None,
                                message: format!("cannot call non-function value {other}"),
                            })
                        }
                    };
                    match method {
                        "map" => out.push(r),
                        "filter" if r.is_truthy() => out.push(item),
                        _ => {}
                    }
                }
                call_args.clear();
                self.arg_pool.push(call_args);
                if method == "forEach" {
                    Ok(Value::Null)
                } else {
                    Ok(Value::array(out))
                }
            }
            Value::Object(map) => {
                let f = map.borrow().get(method).cloned();
                match f {
                    Some(Value::Function(c)) => {
                        let call_site = ctx.cur_stmt;
                        let traced_args = ctx.trace.then(|| args.to_vec());
                        let ret = self.call_closure_vm(ctx, &c, args)?;
                        ctx.cur_stmt = call_site;
                        if let Some(args) = traced_args {
                            ctx.tracer.on_event(&TraceEvent::Invoke {
                                stmt: call_site,
                                func: method.to_string(),
                                args,
                                ret: ret.clone(),
                            });
                        }
                        Ok(ret)
                    }
                    _ => Err(Self::err(ctx, format!("object has no method '{method}'"))),
                }
            }
            base => {
                if matches!(base, Value::Array(_)) && matches!(method, "push" | "pop") {
                    self.journal_container(base);
                }
                crate::ops::simple_method(base, method, args)
                    .expect("non-engine method dispatch is simple")
                    .map_err(|m| Self::err(ctx, m))
            }
        }
    }
}

/// The bound local named `name` in frame `f`, if any. When the frame runs
/// the same program as the prober, locals are matched by atom id (integer
/// compares); the string comparison is only needed across programs.
fn frame_local<'f>(
    f: &'f Frame,
    program: &Rc<CompiledProgram>,
    atom: u32,
    name: &str,
) -> Option<&'f Value> {
    let chunk = &f.program.chunks[f.chunk as usize];
    if Rc::ptr_eq(&f.program, program) {
        for (i, &a) in chunk.locals.iter().enumerate() {
            if a == atom {
                return f.slots[i].as_ref();
            }
        }
        return None;
    }
    for (i, &a) in chunk.locals.iter().enumerate() {
        if &*f.program.atoms[a as usize] == name {
            return f.slots[i].as_ref();
        }
    }
    None
}

fn frame_local_mut<'f>(
    f: &'f mut Frame,
    program: &Rc<CompiledProgram>,
    atom: u32,
    name: &str,
) -> Option<&'f mut Option<Value>> {
    let chunk = &f.program.chunks[f.chunk as usize];
    let same = Rc::ptr_eq(&f.program, program);
    for (i, &a) in chunk.locals.iter().enumerate() {
        let hit = if same {
            a == atom
        } else {
            &*f.program.atoms[a as usize] == name
        };
        if hit && f.slots[i].is_some() {
            return Some(&mut f.slots[i]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use crate::instrument::NoopInstrument;
    use crate::interp::EmptyHost;
    use crate::parser::parse;

    fn run_vm(src: &str) -> (Vm, u64) {
        let prog = Rc::new(compile(&parse(src).unwrap()));
        let mut host = EmptyHost;
        let mut vm = Vm::new(prog, &host.native_names());
        let cycles = vm.run_top(&mut host, &mut NoopInstrument).unwrap();
        (vm, cycles)
    }

    #[test]
    fn arithmetic_and_globals() {
        let (vm, _) = run_vm("var x = 2 + 3 * 4; var y = x % 5;");
        assert_eq!(vm.get_global("x"), Some(Value::Num(14.0)));
        assert_eq!(vm.get_global("y"), Some(Value::Num(4.0)));
    }

    #[test]
    fn functions_and_loops() {
        let (vm, _) = run_vm(
            "function sq(n) { return n * n; }
             var s = 0;
             for (var i = 1; i <= 4; i = i + 1) { s = s + sq(i); }",
        );
        assert_eq!(vm.get_global("s"), Some(Value::Num(30.0)));
    }

    #[test]
    fn dynamic_scope_fallback() {
        // g reads its caller's local, which only dynamic scoping allows
        let (vm, _) = run_vm(
            "function g() { return y + 1; }
             function f() { var y = 5; return g(); }
             var r = f();",
        );
        assert_eq!(vm.get_global("r"), Some(Value::Num(6.0)));
    }

    /// Records the profiling hook stream, checking cost conservation and
    /// frame balance.
    #[derive(Default)]
    struct CostRecorder {
        cycles: u64,
        allocs: u64,
        pushes: Vec<Option<String>>,
        depth: i64,
    }

    impl crate::instrument::Instrument for CostRecorder {
        fn on_event(&mut self, _event: &crate::instrument::TraceEvent) {}

        fn wants_events(&self) -> bool {
            false
        }

        fn wants_profile(&self) -> bool {
            true
        }

        fn on_stmt_cost(&mut self, _stmt: StmtId, cycles: u64, allocs: u64) {
            self.cycles += cycles;
            self.allocs += allocs;
        }

        fn on_frame_push(&mut self, name: Option<&str>) {
            self.pushes.push(name.map(str::to_string));
            self.depth += 1;
        }

        fn on_frame_pop(&mut self) {
            self.depth -= 1;
        }
    }

    #[test]
    fn profile_hooks_conserve_cycles_and_balance_frames() {
        let prog = Rc::new(compile(
            &parse(
                "function sq(n) { var a = [n, n]; return a[0] * a[1]; }
                 var obj = { t: 0 };
                 var s = 0;
                 for (var i = 1; i <= 4; i = i + 1) { s = s + sq(i); }",
            )
            .unwrap(),
        ));
        let mut host = EmptyHost;
        let mut vm = Vm::new(Rc::clone(&prog), &host.native_names());
        let mut rec = CostRecorder::default();
        let cycles = vm.run_top(&mut host, &mut rec).unwrap();
        assert_eq!(
            rec.cycles, cycles,
            "every cycle is attributed to a statement"
        );
        assert!(
            rec.allocs >= 5,
            "array + object literals counted: {}",
            rec.allocs
        );
        assert_eq!(rec.depth, 0, "frame pushes and pops balance");
        assert_eq!(rec.pushes.len(), 4, "one frame per sq() call");
        assert!(rec.pushes.iter().all(|n| n.as_deref() == Some("sq")));

        // profiling must not perturb execution: same cycles as unprofiled
        let mut vm2 = Vm::new(prog, &host.native_names());
        let baseline = vm2.run_top(&mut host, &mut NoopInstrument).unwrap();
        assert_eq!(cycles, baseline);
        assert_eq!(vm.get_global("s"), vm2.get_global("s"));
    }

    #[test]
    fn step_budget_enforced() {
        let prog = Rc::new(compile(&parse("while (true) { var x = 1; }").unwrap()));
        let mut host = EmptyHost;
        let mut vm = Vm::new(prog, &[]);
        vm.set_step_limit(10_000);
        let err = vm.run_top(&mut host, &mut NoopInstrument).unwrap_err();
        assert!(err.message.contains("step budget"));
    }

    #[test]
    fn checkpoint_rollback_restores_captured_state() {
        let (mut vm, _) = run_vm(
            "var counter = { n: 0 };
             var tag = 'a';
             function mutate() { counter.n = 99; tag = 'b'; fresh = 1; }",
        );
        let mut host = EmptyHost;
        vm.begin_checkpoint();
        let handler = vm.get_global("mutate").unwrap();
        vm.call_value(&handler, vec![], &mut host, &mut NoopInstrument)
            .unwrap();
        assert_eq!(vm.get_global("tag"), Some(Value::str("b")));
        vm.rollback_checkpoint();
        // captured container contents and bindings come back …
        let counter = vm.get_global("counter").unwrap();
        assert_eq!(
            crate::ops::member_get(&counter, "n").unwrap(),
            Value::Num(0.0)
        );
        assert_eq!(vm.get_global("tag"), Some(Value::str("a")));
        // … but globals created during the run persist (merge semantics,
        // matching the interpreter's snapshot/restore)
        assert_eq!(vm.get_global("fresh"), Some(Value::Num(1.0)));

        // the journal stays armed for the next run
        vm.call_value(&handler, vec![], &mut host, &mut NoopInstrument)
            .unwrap();
        vm.rollback_checkpoint();
        assert_eq!(vm.get_global("tag"), Some(Value::str("a")));
        vm.end_checkpoint();
    }

    #[test]
    fn newly_bound_detects_created_globals() {
        let (mut vm, _) = run_vm("var a = 1;");
        let mask = vm.bound_mask();
        vm.set_global("b", Value::Num(2.0));
        assert_eq!(vm.newly_bound(&mask), vec!["b".to_string()]);
    }

    /// Compile-time pin of the Send frontier (see the module docs): the
    /// seed data a worker thread builds its VM from must be `Send + Sync`;
    /// the VM itself stays thread-owned on purpose.
    #[test]
    fn sendable_seed_frontier() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<crate::ast::Program>();
        assert_send_sync::<crate::ast::Stmt>();
        assert_send_sync::<crate::ast::Expr>();
    }
}
