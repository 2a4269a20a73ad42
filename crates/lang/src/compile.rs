//! Lowering from the NodeScript AST to a flat, execution-ready form.
//!
//! The tree-walking interpreter resolves every variable access through a
//! stack of `BTreeMap` scopes and unwinds control flow recursively. This
//! pass compiles a parsed [`Program`] once, ahead of execution:
//!
//! - **Slot resolution** — every name that is statically a local of its
//!   function (a parameter, `var` declaration, or nested `function`
//!   declaration) is assigned a frame slot; accesses become index loads
//!   instead of name hashing. Names that cannot be resolved statically
//!   (NodeScript scoping is dynamic: a callee can read its caller's
//!   locals) fall back to a by-name walk at runtime.
//! - **Atom interning** — identifiers, string literals, field names and
//!   method names are interned into a program-wide atom table of
//!   `Rc<str>`, so the hot path never allocates for a name.
//! - **Constant folding** — pure literal subtrees are evaluated at compile
//!   time; the folded [`Op::Const`] remembers how many AST nodes it
//!   replaced so virtual-cycle accounting matches the interpreter.
//! - **Flat layout** — statements become a linear [`Op`] array with jump
//!   targets; `return` exits the chunk directly instead of threading a
//!   `Flow` value through every block.
//!
//! [`StmtId`]s survive lowering unchanged: every statement begins with
//! [`Op::Stmt`], which charges the statement's cycles and reports
//! `StmtEnter` with the original id, so the profiler, fuzzer and datalog
//! slicer see exactly the trace the interpreter would have produced.

use crate::ast::{BinOp, Expr, LValue, Program, Stmt, StmtId, UnOp};
use crate::ops;
use crate::value::{Closure, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// FNV-1a hasher for the compiler's intern and slot tables. The keys are
/// short names and small integers with no DoS-resistance requirement, so
/// the single-multiply FNV round beats the default SipHash per lookup.
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// `BuildHasher` plugging [`FnvHasher`] into `HashMap`.
pub type FnvBuildHasher = BuildHasherDefault<FnvHasher>;

/// Entry point of a closure into its [`CompiledProgram`]: the program plus
/// the index of the chunk holding the function body.
#[derive(Clone)]
pub struct CompiledChunk {
    /// The program this chunk belongs to.
    pub program: Rc<CompiledProgram>,
    /// Index into [`CompiledProgram::chunks`].
    pub chunk: u16,
}

impl fmt::Debug for CompiledChunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Avoid dumping the whole program when debug-printing closures.
        write!(
            f,
            "CompiledChunk(#{} in {:p})",
            self.chunk,
            Rc::as_ptr(&self.program)
        )
    }
}

/// A fully lowered program: one chunk per function body plus chunk 0 for
/// the top level, sharing one atom table.
#[derive(Debug)]
pub struct CompiledProgram {
    /// Interned names and string literals.
    pub atoms: Vec<Rc<str>>,
    /// Global-variable table: gid → atom. Every name referenced anywhere
    /// in the program gets a gid (locals too — any name can dynamically
    /// become a global through NodeScript's assignment fallback).
    pub global_names: Vec<u32>,
    /// Chunk 0 is the top level; others are function bodies.
    pub chunks: Vec<Chunk>,
    /// Statement-id space of the source program (ids are `0..stmt_count`).
    pub stmt_count: u32,
}

/// One compiled function body (or the top level).
#[derive(Debug, Default)]
pub struct Chunk {
    /// Function name, for diagnostics.
    pub name: Option<String>,
    /// Parameter position → frame slot.
    pub params: Vec<u16>,
    /// Frame slot → atom of the local's name.
    pub locals: Vec<u32>,
    /// The flat instruction stream.
    pub ops: Vec<Op>,
}

/// A compile-time resolved variable reference.
#[derive(Debug, Clone, Copy)]
pub struct NameRef {
    /// Atom of the name, for dynamic fallback and trace events.
    pub atom: u32,
    /// Global id (index into [`CompiledProgram::global_names`]).
    pub gid: u32,
    /// Frame slot when the name is a static local of its chunk.
    pub slot: Option<u16>,
}

/// One VM instruction. Stack effects are noted as `pops → pushes`.
#[derive(Debug, Clone)]
pub enum Op {
    /// Statement entry: charge one step + `STMT_CYCLES`, set the current
    /// statement, report `StmtEnter`.
    Stmt(StmtId),
    /// Per-iteration loop budget check (one step, no cycles) — mirrors the
    /// interpreter's `budget()` call at the top of `while`/`for` bodies.
    LoopBudget,
    /// Charge `n` expression-evaluation steps (50 cycles each).
    Charge(u32),
    /// Push a folded constant, charging `weight` evaluation steps.
    Const { value: Value, weight: u32 },
    /// Load a variable (self-charges one step). `0 → 1`
    Load(NameRef),
    /// Assign to a variable. `1 → 0`
    Store { stmt: StmtId, name: NameRef },
    /// Declare a variable in the innermost scope. `1 → 0`
    Declare { stmt: StmtId, name: NameRef },
    /// Declare a named function. `0 → 0`
    DeclareFn {
        stmt: StmtId,
        name: NameRef,
        template: Rc<Closure>,
        chunk: u16,
    },
    /// Instantiate a function expression (self-charges one step). `0 → 1`
    MakeClosure { template: Rc<Closure>, chunk: u16 },
    /// Collect the top `n` values into an array. `n → 1`
    MakeArray(u32),
    /// Collect the top `keys.len()` values into an object. `n → 1`
    MakeObject(Rc<[Rc<str>]>),
    /// Read `base.field`. `1 → 1`
    GetMember(Rc<str>),
    /// Read `base[idx]`; stack is `[base, idx]`. `2 → 1`
    GetIndex,
    /// Write `base.field = value`; stack is `[value, base]`. `2 → 0`
    SetMember {
        stmt: StmtId,
        field: Rc<str>,
        root: Option<NameRef>,
    },
    /// Write `base[idx] = value`; stack is `[value, base, idx]`. `3 → 0`
    SetIndex { stmt: StmtId, root: Option<NameRef> },
    /// Apply a non-logical binary operator; stack is `[a, b]`. `2 → 1`
    Binary(BinOp),
    /// Apply a unary operator. `1 → 1`
    Unary(UnOp),
    /// Short-circuit `&&`: if the top of stack is falsy jump to `target`
    /// keeping it, else pop it and continue into the right operand.
    And(u32),
    /// Short-circuit `||`: if the top of stack is truthy jump to `target`
    /// keeping it, else pop it and continue into the right operand.
    Or(u32),
    /// Unconditional jump.
    Jump(u32),
    /// Pop the condition; jump if falsy. `1 → 0`
    JumpIfFalse(u32),
    /// Call a callee; stack is `[args..., callee]`. `argc+1 → 1`
    Call { argc: u32 },
    /// Method call; stack is `[args..., base]`. `root` is set only for
    /// `push`/`pop`, whose receiver mutation the RW-log must see.
    CallMethod {
        method: Rc<str>,
        argc: u32,
        root: Option<NameRef>,
    },
    /// `new Ctor(args...)`. `argc → 1`
    New { ctor: Rc<str>, argc: u32 },
    /// Discard the top of stack (expression statements). `1 → 0`
    Pop,
    /// Return the top of stack from the current chunk. `1 → 0`
    Return,
    /// Return `null` from the current chunk.
    ReturnNull,
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

/// Names declared with `var`/`function` anywhere in `stmts` at the current
/// function level (recursing into blocks but not into nested function
/// bodies, which get their own chunks).
fn collect_declared(stmts: &[Stmt], out: &mut Vec<String>) {
    for s in stmts {
        match s {
            Stmt::Let { name, .. } | Stmt::Function { name, .. } => out.push(name.clone()),
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                collect_declared(then_block, out);
                collect_declared(else_block, out);
            }
            Stmt::While { body, .. } => collect_declared(body, out),
            Stmt::For {
                init, update, body, ..
            } => {
                collect_declared(std::slice::from_ref(init), out);
                collect_declared(std::slice::from_ref(update), out);
                collect_declared(body, out);
            }
            Stmt::Assign { .. } | Stmt::Expr { .. } | Stmt::Return { .. } => {}
        }
    }
}

#[derive(Default)]
struct Compiler {
    atoms: Vec<Rc<str>>,
    atom_ids: HashMap<Rc<str>, u32, FnvBuildHasher>,
    global_names: Vec<u32>,
    gid_of_atom: HashMap<u32, u32, FnvBuildHasher>,
    chunks: Vec<Chunk>,
}

/// Per-chunk compilation state.
#[derive(Default)]
struct ChunkCtx {
    slot_of: HashMap<u32, u16, FnvBuildHasher>,
    locals: Vec<u32>,
    ops: Vec<Op>,
}

impl Compiler {
    /// A compiler whose constant pool and intern tables are pre-sized for
    /// `atom_refs` interning calls (an upper bound from a first AST pass),
    /// so cold compilation never rehashes or regrows them.
    fn with_atom_capacity(atom_refs: usize) -> Compiler {
        Compiler {
            atoms: Vec::with_capacity(atom_refs),
            atom_ids: HashMap::with_capacity_and_hasher(atom_refs, FnvBuildHasher::default()),
            global_names: Vec::with_capacity(atom_refs),
            gid_of_atom: HashMap::with_capacity_and_hasher(atom_refs, FnvBuildHasher::default()),
            chunks: Vec::new(),
        }
    }

    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.atom_ids.get(s) {
            return id;
        }
        let rc: Rc<str> = Rc::from(s);
        let id = self.atoms.len() as u32;
        self.atoms.push(Rc::clone(&rc));
        self.atom_ids.insert(rc, id);
        id
    }

    fn intern_rc(&mut self, s: &str) -> Rc<str> {
        let id = self.intern(s);
        Rc::clone(&self.atoms[id as usize])
    }

    fn gid(&mut self, atom: u32) -> u32 {
        if let Some(&g) = self.gid_of_atom.get(&atom) {
            return g;
        }
        let g = self.global_names.len() as u32;
        self.global_names.push(atom);
        self.gid_of_atom.insert(atom, g);
        g
    }

    fn resolve(&mut self, ctx: &ChunkCtx, name: &str) -> NameRef {
        let atom = self.intern(name);
        NameRef {
            atom,
            gid: self.gid(atom),
            slot: ctx.slot_of.get(&atom).copied(),
        }
    }

    fn compile_chunk(
        &mut self,
        name: Option<String>,
        params: &[String],
        body: &[Stmt],
        top_level: bool,
    ) -> u16 {
        assert!(self.chunks.len() < usize::from(u16::MAX), "too many chunks");
        let idx = self.chunks.len() as u16;
        self.chunks.push(Chunk::default()); // reserve the index for nesting
        let mut ctx = ChunkCtx::default();
        let mut param_slots = Vec::with_capacity(params.len());
        if !top_level {
            for p in params {
                let atom = self.intern(p);
                param_slots.push(slot_for(&mut ctx, atom));
            }
            let mut declared = Vec::new();
            collect_declared(body, &mut declared);
            for d in &declared {
                let atom = self.intern(d);
                slot_for(&mut ctx, atom);
            }
        }
        for s in body {
            self.compile_stmt(&mut ctx, s);
        }
        self.chunks[idx as usize] = Chunk {
            name,
            params: param_slots,
            locals: ctx.locals,
            ops: ctx.ops,
        };
        idx
    }

    fn compile_stmt(&mut self, ctx: &mut ChunkCtx, stmt: &Stmt) {
        match stmt {
            Stmt::Let { id, name, init, .. } => {
                ctx.ops.push(Op::Stmt(*id));
                match init {
                    Some(e) => self.compile_expr(ctx, e),
                    // no initializer: bind null without charging any
                    // evaluation steps, like the interpreter
                    None => ctx.ops.push(Op::Const {
                        value: Value::Null,
                        weight: 0,
                    }),
                }
                let name = self.resolve(ctx, name);
                ctx.ops.push(Op::Declare { stmt: *id, name });
            }
            Stmt::Assign {
                id, target, value, ..
            } => {
                ctx.ops.push(Op::Stmt(*id));
                self.compile_expr(ctx, value);
                match target {
                    LValue::Var(name) => {
                        let name = self.resolve(ctx, name);
                        ctx.ops.push(Op::Store { stmt: *id, name });
                    }
                    LValue::Member(base, field) => {
                        self.compile_expr(ctx, base);
                        let root = expr_root_var(base)
                            .map(|r| r.to_string())
                            .map(|r| self.resolve(ctx, &r));
                        let field = self.intern_rc(field);
                        ctx.ops.push(Op::SetMember {
                            stmt: *id,
                            field,
                            root,
                        });
                    }
                    LValue::Index(base, index) => {
                        self.compile_expr(ctx, base);
                        self.compile_expr(ctx, index);
                        let root = expr_root_var(base)
                            .map(|r| r.to_string())
                            .map(|r| self.resolve(ctx, &r));
                        ctx.ops.push(Op::SetIndex { stmt: *id, root });
                    }
                }
            }
            Stmt::Expr { id, expr, .. } => {
                ctx.ops.push(Op::Stmt(*id));
                self.compile_expr(ctx, expr);
                ctx.ops.push(Op::Pop);
            }
            Stmt::If {
                id,
                cond,
                then_block,
                else_block,
                ..
            } => {
                ctx.ops.push(Op::Stmt(*id));
                self.compile_expr(ctx, cond);
                let jf = ctx.ops.len();
                ctx.ops.push(Op::JumpIfFalse(0));
                for s in then_block {
                    self.compile_stmt(ctx, s);
                }
                if else_block.is_empty() {
                    patch(ctx, jf, ctx.ops.len() as u32);
                } else {
                    let jend = ctx.ops.len();
                    ctx.ops.push(Op::Jump(0));
                    patch(ctx, jf, ctx.ops.len() as u32);
                    for s in else_block {
                        self.compile_stmt(ctx, s);
                    }
                    patch(ctx, jend, ctx.ops.len() as u32);
                }
            }
            Stmt::While { id, cond, body, .. } => {
                ctx.ops.push(Op::Stmt(*id));
                let start = ctx.ops.len() as u32;
                ctx.ops.push(Op::LoopBudget);
                self.compile_expr(ctx, cond);
                let jf = ctx.ops.len();
                ctx.ops.push(Op::JumpIfFalse(0));
                for s in body {
                    self.compile_stmt(ctx, s);
                }
                ctx.ops.push(Op::Jump(start));
                patch(ctx, jf, ctx.ops.len() as u32);
            }
            Stmt::For {
                id,
                init,
                cond,
                update,
                body,
                ..
            } => {
                ctx.ops.push(Op::Stmt(*id));
                self.compile_stmt(ctx, init);
                let start = ctx.ops.len() as u32;
                ctx.ops.push(Op::LoopBudget);
                self.compile_expr(ctx, cond);
                let jf = ctx.ops.len();
                ctx.ops.push(Op::JumpIfFalse(0));
                for s in body {
                    self.compile_stmt(ctx, s);
                }
                self.compile_stmt(ctx, update);
                ctx.ops.push(Op::Jump(start));
                patch(ctx, jf, ctx.ops.len() as u32);
            }
            Stmt::Return { id, value, .. } => {
                ctx.ops.push(Op::Stmt(*id));
                match value {
                    Some(e) => {
                        self.compile_expr(ctx, e);
                        ctx.ops.push(Op::Return);
                    }
                    None => ctx.ops.push(Op::ReturnNull),
                }
            }
            Stmt::Function {
                id,
                name,
                params,
                body,
                ..
            } => {
                let chunk = self.compile_chunk(Some(name.clone()), params, body, false);
                let template = Rc::new(Closure {
                    name: Some(name.clone()),
                    params: params.clone(),
                    body: body.clone(),
                    compiled: None,
                });
                ctx.ops.push(Op::Stmt(*id));
                let name = self.resolve(ctx, name);
                ctx.ops.push(Op::DeclareFn {
                    stmt: *id,
                    name,
                    template,
                    chunk,
                });
            }
        }
    }

    fn compile_expr(&mut self, ctx: &mut ChunkCtx, e: &Expr) {
        if let Some((value, weight)) = self.fold(e) {
            ctx.ops.push(Op::Const { value, weight });
            return;
        }
        match e {
            // literals are handled by fold() above
            Expr::Null | Expr::Bool(_) | Expr::Num(_) | Expr::Str(_) => unreachable!(),
            Expr::Var(name) => {
                let name = self.resolve(ctx, name);
                ctx.ops.push(Op::Load(name));
            }
            Expr::Array(items) => {
                ctx.ops.push(Op::Charge(1));
                for item in items {
                    self.compile_expr(ctx, item);
                }
                ctx.ops.push(Op::MakeArray(items.len() as u32));
            }
            Expr::Object(fields) => {
                ctx.ops.push(Op::Charge(1));
                for (_, v) in fields {
                    self.compile_expr(ctx, v);
                }
                let keys: Rc<[Rc<str>]> =
                    fields.iter().map(|(k, _)| Rc::from(k.as_str())).collect();
                ctx.ops.push(Op::MakeObject(keys));
            }
            Expr::Binary(BinOp::And, a, b) => {
                ctx.ops.push(Op::Charge(1));
                self.compile_expr(ctx, a);
                let j = ctx.ops.len();
                ctx.ops.push(Op::And(0));
                self.compile_expr(ctx, b);
                patch(ctx, j, ctx.ops.len() as u32);
            }
            Expr::Binary(BinOp::Or, a, b) => {
                ctx.ops.push(Op::Charge(1));
                self.compile_expr(ctx, a);
                let j = ctx.ops.len();
                ctx.ops.push(Op::Or(0));
                self.compile_expr(ctx, b);
                patch(ctx, j, ctx.ops.len() as u32);
            }
            Expr::Binary(op, a, b) => {
                ctx.ops.push(Op::Charge(1));
                self.compile_expr(ctx, a);
                self.compile_expr(ctx, b);
                ctx.ops.push(Op::Binary(*op));
            }
            Expr::Unary(op, a) => {
                ctx.ops.push(Op::Charge(1));
                self.compile_expr(ctx, a);
                ctx.ops.push(Op::Unary(*op));
            }
            Expr::Member(base, field) => {
                ctx.ops.push(Op::Charge(1));
                self.compile_expr(ctx, base);
                let field = self.intern_rc(field);
                ctx.ops.push(Op::GetMember(field));
            }
            Expr::Index(base, index) => {
                ctx.ops.push(Op::Charge(1));
                self.compile_expr(ctx, base);
                self.compile_expr(ctx, index);
                ctx.ops.push(Op::GetIndex);
            }
            Expr::Function { params, body } => {
                let chunk = self.compile_chunk(None, params, body, false);
                let template = Rc::new(Closure {
                    name: None,
                    params: params.clone(),
                    body: body.clone(),
                    compiled: None,
                });
                ctx.ops.push(Op::MakeClosure { template, chunk });
            }
            Expr::New { ctor, args } => {
                ctx.ops.push(Op::Charge(1));
                for a in args {
                    self.compile_expr(ctx, a);
                }
                let ctor = self.intern_rc(ctor);
                ctx.ops.push(Op::New {
                    ctor,
                    argc: args.len() as u32,
                });
            }
            Expr::Call { callee, args } => {
                ctx.ops.push(Op::Charge(1));
                for a in args {
                    self.compile_expr(ctx, a);
                }
                match &**callee {
                    // method call: the Member node itself is not charged —
                    // the interpreter evaluates only its base
                    Expr::Member(base, method) => {
                        self.compile_expr(ctx, base);
                        let root = if matches!(method.as_str(), "push" | "pop") {
                            expr_root_var(base)
                                .map(|r| r.to_string())
                                .map(|r| self.resolve(ctx, &r))
                        } else {
                            None
                        };
                        let method = self.intern_rc(method);
                        ctx.ops.push(Op::CallMethod {
                            method,
                            argc: args.len() as u32,
                            root,
                        });
                    }
                    other => {
                        self.compile_expr(ctx, other);
                        ctx.ops.push(Op::Call {
                            argc: args.len() as u32,
                        });
                    }
                }
            }
        }
    }

    /// Evaluate a pure literal subtree at compile time. Returns the value
    /// and the number of AST nodes folded (each worth one evaluation step
    /// at runtime). Logical operators are never folded — their
    /// short-circuit step accounting depends on the left operand.
    fn fold(&mut self, e: &Expr) -> Option<(Value, u32)> {
        match e {
            Expr::Null => Some((Value::Null, 1)),
            Expr::Bool(b) => Some((Value::Bool(*b), 1)),
            Expr::Num(n) => Some((Value::Num(*n), 1)),
            Expr::Str(s) => Some((Value::Str(self.intern_rc(s)), 1)),
            Expr::Unary(op, a) => {
                let (av, wa) = self.fold(a)?;
                ops::unary(*op, &av).ok().map(|v| (v, wa + 1))
            }
            Expr::Binary(op, a, b) if !matches!(op, BinOp::And | BinOp::Or) => {
                let (av, wa) = self.fold(a)?;
                let (bv, wb) = self.fold(b)?;
                ops::binary(*op, &av, &bv).ok().map(|v| (v, wa + wb + 1))
            }
            _ => None,
        }
    }
}

/// Upper bound on the intern-table insertions one statement can cause —
/// the first pass that sizes the constant pool before compilation.
fn count_stmt_atoms(s: &Stmt, n: &mut usize) {
    match s {
        Stmt::Let { init, .. } => {
            *n += 1;
            if let Some(e) = init {
                count_expr_atoms(e, n);
            }
        }
        Stmt::Assign { target, value, .. } => {
            count_expr_atoms(value, n);
            match target {
                LValue::Var(_) => *n += 1,
                LValue::Member(base, _) => {
                    count_expr_atoms(base, n);
                    *n += 2; // field + possible root resolve
                }
                LValue::Index(base, index) => {
                    count_expr_atoms(base, n);
                    count_expr_atoms(index, n);
                    *n += 1;
                }
            }
        }
        Stmt::Expr { expr, .. } => count_expr_atoms(expr, n),
        Stmt::If {
            cond,
            then_block,
            else_block,
            ..
        } => {
            count_expr_atoms(cond, n);
            for s in then_block.iter().chain(else_block) {
                count_stmt_atoms(s, n);
            }
        }
        Stmt::While { cond, body, .. } => {
            count_expr_atoms(cond, n);
            for s in body {
                count_stmt_atoms(s, n);
            }
        }
        Stmt::For {
            init,
            cond,
            update,
            body,
            ..
        } => {
            count_stmt_atoms(init, n);
            count_expr_atoms(cond, n);
            count_stmt_atoms(update, n);
            for s in body {
                count_stmt_atoms(s, n);
            }
        }
        Stmt::Return { value, .. } => {
            if let Some(e) = value {
                count_expr_atoms(e, n);
            }
        }
        Stmt::Function {
            name: _,
            params,
            body,
            ..
        } => {
            *n += 1 + params.len();
            for s in body {
                count_stmt_atoms(s, n);
            }
        }
    }
}

fn count_expr_atoms(e: &Expr, n: &mut usize) {
    match e {
        Expr::Null | Expr::Bool(_) | Expr::Num(_) => {}
        Expr::Str(_) | Expr::Var(_) => *n += 1,
        Expr::Array(items) => {
            for i in items {
                count_expr_atoms(i, n);
            }
        }
        Expr::Object(fields) => {
            for (_, v) in fields {
                count_expr_atoms(v, n);
            }
        }
        Expr::Binary(_, a, b) => {
            count_expr_atoms(a, n);
            count_expr_atoms(b, n);
        }
        Expr::Unary(_, a) => count_expr_atoms(a, n),
        Expr::Member(base, _) => {
            count_expr_atoms(base, n);
            *n += 2; // field + possible method/root resolve
        }
        Expr::Index(base, index) => {
            count_expr_atoms(base, n);
            count_expr_atoms(index, n);
        }
        Expr::Function { params, body } => {
            *n += params.len();
            for s in body {
                count_stmt_atoms(s, n);
            }
        }
        Expr::New { args, .. } => {
            *n += 1;
            for a in args {
                count_expr_atoms(a, n);
            }
        }
        Expr::Call { callee, args } => {
            count_expr_atoms(callee, n);
            for a in args {
                count_expr_atoms(a, n);
            }
        }
    }
}

fn slot_for(ctx: &mut ChunkCtx, atom: u32) -> u16 {
    if let Some(&s) = ctx.slot_of.get(&atom) {
        return s;
    }
    assert!(ctx.locals.len() < usize::from(u16::MAX), "too many locals");
    let s = ctx.locals.len() as u16;
    ctx.locals.push(atom);
    ctx.slot_of.insert(atom, s);
    s
}

fn patch(ctx: &mut ChunkCtx, at: usize, target: u32) {
    match &mut ctx.ops[at] {
        Op::Jump(t) | Op::JumpIfFalse(t) | Op::And(t) | Op::Or(t) => *t = target,
        other => unreachable!("patching non-jump op {other:?}"),
    }
}

/// Compile a whole program. Chunk 0 holds the top level (it has no static
/// locals: top-level `var` declarations are global bindings).
pub fn compile(program: &Program) -> CompiledProgram {
    let mut refs = 0;
    for s in &program.stmts {
        count_stmt_atoms(s, &mut refs);
    }
    let mut c = Compiler::with_atom_capacity(refs);
    c.compile_chunk(None, &[], &program.stmts, true);
    CompiledProgram {
        atoms: c.atoms,
        global_names: c.global_names,
        chunks: c.chunks,
        stmt_count: program.stmt_count,
    }
}

/// Compile a single closure that was not created by the VM (e.g. one built
/// by the tree-walking interpreter and handed over through a global).
/// Chunk 0 of the result is the function body itself.
pub fn compile_closure(closure: &Closure) -> CompiledProgram {
    let mut refs = closure.params.len();
    for s in &closure.body {
        count_stmt_atoms(s, &mut refs);
    }
    let mut c = Compiler::with_atom_capacity(refs);
    c.compile_chunk(closure.name.clone(), &closure.params, &closure.body, false);
    CompiledProgram {
        atoms: c.atoms,
        global_names: c.global_names,
        chunks: c.chunks,
        stmt_count: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_src(src: &str) -> CompiledProgram {
        compile(&parse(src).unwrap())
    }

    #[test]
    fn top_level_has_no_slots() {
        let p = compile_src("var x = 1; x = x + 2;");
        assert!(p.chunks[0].locals.is_empty());
        assert!(p.chunks[0]
            .ops
            .iter()
            .all(|op| !matches!(op, Op::Load(NameRef { slot: Some(_), .. }))));
    }

    #[test]
    fn function_locals_get_slots() {
        let p = compile_src("function f(a) { var b = a + 1; return b; }");
        let f = &p.chunks[1];
        assert_eq!(f.params.len(), 1);
        assert_eq!(f.locals.len(), 2, "param a + local b");
        // every Load inside f resolves to a slot
        assert!(f
            .ops
            .iter()
            .any(|op| matches!(op, Op::Load(NameRef { slot: Some(_), .. }))));
    }

    #[test]
    fn constants_fold_with_weights() {
        let p = compile_src("var x = 2 + 3 * 4;");
        let folded = p.chunks[0].ops.iter().find_map(|op| match op {
            Op::Const { value, weight } => Some((value.clone(), *weight)),
            _ => None,
        });
        let (v, w) = folded.expect("constant should fold");
        assert_eq!(v, Value::Num(14.0));
        assert_eq!(w, 5, "five AST nodes folded");
    }

    #[test]
    fn logical_operators_never_fold() {
        let p = compile_src("var x = true || false;");
        assert!(p.chunks[0].ops.iter().any(|op| matches!(op, Op::Or(_))));
    }

    #[test]
    fn string_literals_share_atoms() {
        let p = compile_src("var a = 'hi'; var b = 'hi';");
        let count = p.atoms.iter().filter(|a| &***a == "hi").count();
        assert_eq!(count, 1, "literal interned once");
    }

    #[test]
    fn loops_get_budget_ops() {
        let p = compile_src("while (true) { } for (var i = 0; i < 3; i = i + 1) { }");
        let budgets = p.chunks[0]
            .ops
            .iter()
            .filter(|op| matches!(op, Op::LoopBudget))
            .count();
        assert_eq!(budgets, 2);
    }

    #[test]
    fn stmt_ids_survive_lowering() {
        let prog = parse("var x = 1; if (x) { x = 2; }").unwrap();
        let ids: Vec<StmtId> = prog.all_stmts().iter().map(|s| s.id()).collect();
        let p = compile(&prog);
        for id in ids {
            assert!(
                p.chunks[0]
                    .ops
                    .iter()
                    .any(|op| matches!(op, Op::Stmt(s) if *s == id)),
                "missing Op::Stmt for {id}"
            );
        }
    }

    #[test]
    fn atom_count_pass_is_an_upper_bound() {
        // the pre-sizing pass must never undercount: capacity reserved up
        // front has to cover every interning call compilation performs
        let src = r#"
            var greeting = 'hello';
            function shout(msg) {
                var out = msg + '!';
                return out;
            }
            app.post("/echo", function (req, res) {
                var body = { text: shout(req.body.text), tag: greeting };
                res.send(body);
            });
            for (var i = 0; i < 3; i = i + 1) { greeting = greeting + '.'; }
        "#;
        let prog = parse(src).unwrap();
        let mut refs = 0;
        for s in &prog.stmts {
            count_stmt_atoms(s, &mut refs);
        }
        let p = compile(&prog);
        assert!(
            refs >= p.atoms.len(),
            "counted {refs} refs but interned {} atoms",
            p.atoms.len()
        );
    }

    #[test]
    fn fnv_hasher_distinguishes_keys() {
        fn h(bytes: &[u8]) -> u64 {
            let mut hasher = FnvHasher::default();
            hasher.write(bytes);
            hasher.finish()
        }
        assert_ne!(h(b"counter"), h(b"written"));
        assert_ne!(h(b""), h(b"a"));
        assert_eq!(h(b"notes"), h(b"notes"));
    }

    #[test]
    fn nested_functions_get_chunks() {
        let p =
            compile_src("function outer() { var f = function (x) { return x; }; return f(1); }");
        assert_eq!(p.chunks.len(), 3, "top level + outer + anonymous");
    }
}
