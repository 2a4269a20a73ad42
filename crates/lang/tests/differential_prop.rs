//! Differential tests: the compiled VM and the tree-walking interpreter
//! must be observationally identical — same results, same error messages,
//! same globals, same virtual-cycle totals, same trace-event streams.
//!
//! A deterministic corpus covers every language feature and error path;
//! a property test then runs randomly generated programs (with shrinking)
//! through both engines.

use edgstr_lang::{
    compile, parse, renumber, BinOp, EmptyHost, Expr, Host, Interpreter, LValue, Program,
    RecordingInstrument, Stmt, StmtId, TraceEvent, UnOp, Value, Vm,
};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;

const STEP_LIMIT: u64 = 200_000;

/// Everything observable about one engine run.
#[derive(Debug, Clone, PartialEq)]
struct Observation {
    outcome: Result<(), String>,
    cycles: Option<u64>,
    globals: Vec<(String, String)>,
    events: Vec<String>,
}

/// `v`'s JSON text, or why it has none.
fn text(v: &Value) -> String {
    v.to_json()
        .map_or_else(|e| e.to_string(), |json| json.to_string())
}

/// A comparable fingerprint of a trace event. Values go through
/// `to_json` so reference identity (which legitimately differs between
/// engines) does not leak into the comparison.
fn fingerprint(e: &TraceEvent) -> String {
    match e {
        TraceEvent::StmtEnter { stmt } => format!("S {stmt}"),
        TraceEvent::Read { stmt, var, value } => {
            format!("R {stmt} {var} {}", text(value))
        }
        TraceEvent::Write { stmt, var, value } => {
            format!("W {stmt} {var} {}", text(value))
        }
        TraceEvent::Invoke {
            stmt,
            func,
            args,
            ret,
        } => {
            let args: Vec<String> = args.iter().map(text).collect();
            format!("I {stmt} {func}({}) -> {}", args.join(","), text(ret))
        }
        TraceEvent::GlobalWrite { stmt, var } => format!("G {stmt} {var}"),
        TraceEvent::FunctionEnter { decl, call_site } => format!("F {decl} {call_site}"),
    }
}

fn globals_fingerprint(globals: &BTreeMap<String, Value>) -> Vec<(String, String)> {
    globals.iter().map(|(k, v)| (k.clone(), text(v))).collect()
}

fn run_tree(program: &Program) -> Observation {
    let mut host = EmptyHost;
    let mut interp = Interpreter::new(&mut host);
    interp.set_step_limit(STEP_LIMIT);
    let mut rec = RecordingInstrument::new();
    let outcome = interp.run_program(program, &mut rec);
    Observation {
        cycles: outcome.is_ok().then(|| interp.cycles()),
        outcome: outcome.map_err(|e| e.to_string()),
        globals: globals_fingerprint(interp.globals()),
        events: rec.events.iter().map(fingerprint).collect(),
    }
}

fn run_vm(program: &Program) -> Observation {
    let mut host = EmptyHost;
    let compiled = Rc::new(compile(program));
    let mut vm = Vm::new(compiled, &host.native_names());
    vm.set_step_limit(STEP_LIMIT);
    let mut rec = RecordingInstrument::new();
    let outcome = vm.run_top(&mut host, &mut rec);
    Observation {
        cycles: outcome.as_ref().ok().copied(),
        outcome: outcome.map(|_| ()).map_err(|e| e.to_string()),
        globals: globals_fingerprint(&vm.globals_map()),
        events: rec.events.iter().map(fingerprint).collect(),
    }
}

fn assert_agree(src: &str) {
    let program = parse(src).unwrap_or_else(|e| panic!("parse failure: {e}\n{src}"));
    let tree = run_tree(&program);
    let vm = run_vm(&program);
    assert_eq!(tree, vm, "engines diverge on:\n{src}");
}

#[test]
fn corpus_arithmetic_and_strings() {
    for src in [
        "var x = 2 + 3 * 4 - 1; var y = x / 3; var z = x % 5;",
        "var s = 'a' + 1 + 'b' + true + null;",
        "var a = 'x' < 'y'; var b = 3 >= 3; var c = 1 != 2; var d = 'q' == 'q';",
        "var n = -5; var m = !0; var k = !'text';",
        "var big = 1e14 + 0.5;",
    ] {
        assert_agree(src);
    }
}

#[test]
fn corpus_control_flow() {
    for src in [
        "var s = 0; var i = 1; while (i <= 10) { s = s + i; i = i + 1; }",
        "var s = 0; for (var i = 0; i < 7; i = i + 1) { if (i % 2 == 0) { s = s + i; } else { s = s - 1; } }",
        "var r = 0; if (1 < 2) { r = 1; }",
        "function f(n) { if (n <= 1) { return 1; } return n * f(n - 1); } var x = f(6);",
        "var hit = false || true; var miss = false && nope;",
        "var v = null || 'fallback'; var w = 'first' || nope;",
    ] {
        assert_agree(src);
    }
}

#[test]
fn corpus_functions_and_scoping() {
    for src in [
        "function sq(n) { return n * n; } var r = sq(7) + sq(2);",
        "var f = function (x, y) { return x + y; }; var r = f(1, 2); var partial = f(1);",
        // dynamic scoping: callee reads caller's local
        "function g() { return y * 2; } function f() { var y = 21; return g(); } var r = f();",
        // assignment without declaration creates a global from inside a call
        "function f() { leaked = 9; var kept = 1; return kept; } var r = f(); var l = leaked;",
        // local declared after use site falls through to global first
        "var x = 'global'; function f() { var seen = x; var x = 'local'; return seen + ':' + x; } var r = f();",
        // duplicate parameter names: last binding wins
        "function f(a, a) { return a; } var r = f(1, 2);",
        "function outer() { var acc = 0; function inner(k) { acc = acc + k; } inner(2); inner(3); return acc; } var r = outer();",
    ] {
        assert_agree(src);
    }
}

#[test]
fn corpus_objects_arrays_methods() {
    for src in [
        "var o = { a: [1, 2], b: 'x' }; o.a.push(3); o.c = o.a.length; o['d'] = o.b + '!';",
        "var a = [1, 2, 3, 4]; var d = a.map(function (x) { return x * 2; }); var e = a.filter(function (x) { return x % 2 == 0; }); var j = d.join('-');",
        "var a = [5, 6]; var p = a.pop(); var n = a.push(7, 8); var i = a.indexOf(7); var s = a.slice(0, 2);",
        "var t = ' Hello World '; var u = t.trim().toUpperCase(); var parts = t.trim().split(' '); var c = t.charCodeAt(1); var sub = t.substring(1, 6);",
        "var o = { greet: function (who) { return 'hi ' + who; } }; var r = o.greet('x');",
        "var counts = {}; counts['k'] = (counts['k'] || 0) + 1; counts['k'] = (counts['k'] || 0) + 1;",
        "var b = new Uint8Array([65, 66, 67]); var s = b.toString(); var mid = b.slice(1, 3); var len = b.length; var first = b[0];",
        "var arr = new Array(1, 2); var obj = new Object(); var buf = new Buffer('hi');",
        "var nested = [[1, 2], [3]]; nested[0].push(9); var x = nested[0][2]; nested[1][5] = 'far'; var l = nested[1].length;",
        "var sum = 0; [10, 20, 30].forEach(function (v, i) { sum = sum + v + i; }); var r = sum;",
    ] {
        assert_agree(src);
    }
}

#[test]
fn corpus_error_paths() {
    for src in [
        "var x = nope;",
        "var x = 1 + null;",
        "var x = null - 1;",
        "var x = -'text';",
        "var x = 1 < 'a';",
        "var x = 5; var y = x();",
        "var x = 5; var y = x.field;",
        "var x = true; var y = x[0];",
        "var x = 3; x[0] = 1;",
        "var x = 'str'; x.f = 1;",
        "var a = []; var r = a.unknownMethod();",
        "var s = 'x'; var r = s.unknownMethod();",
        "var n = 5; var r = n.trim();",
        "var o = {}; var r = o.missing();",
        "function f(n) { return f(n + 1); } var x = f(0);",
        "while (true) { var x = 1; }",
        "var i = 0; while (i < 100000) { i = i + 1; } var after = i;",
        "function boom() { return nope; } var ok = 1; var r = boom(); var unreached = 2;",
        "var a = [1, 2]; var r = a.map(5);",
    ] {
        assert_agree(src);
    }
}

#[test]
fn corpus_trace_sensitive_shapes() {
    for src in [
        // push through a global emits root Write + GlobalWrite at the call
        "var log = []; function add(x) { log.push(x); } add(1); add(2);",
        // member assignment events carry the assigned value, not the base
        "var state = { n: 0 }; function bump() { state.n = state.n + 1; } bump(); bump();",
        // closure invoke events carry the call-site statement
        "function id(x) { return x; } var a = id(1); var b = id(id(2));",
        // function declarations write null, not the closure
        "function later() { return 1; } var r = later();",
        // literal-heavy expressions exercise constant folding
        "var x = 1 + 2 + 3 + 4 + 5; var y = 'a' + 'b' + 'c'; var z = (2 * 3) + (10 / 4) + -(1 - 2);",
        "var cond = 1 + 1 == 2; if (2 + 2 == 4) { var inside = 'yes'; }",
    ] {
        assert_agree(src);
    }
}

// ---------------------------------------------------------------------------
// Property test: random programs agree on outcome, globals and cycles.
// ---------------------------------------------------------------------------

fn ident() -> impl Strategy<Value = String> {
    "[a-k][a-z0-9]{0,4}".prop_filter("not a keyword", |s| {
        !matches!(
            s.as_str(),
            "var"
                | "function"
                | "if"
                | "else"
                | "while"
                | "for"
                | "return"
                | "true"
                | "false"
                | "null"
                | "new"
        )
    })
}

fn method_name() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("push".to_string()),
        Just("pop".to_string()),
        Just("join".to_string()),
        Just("slice".to_string()),
        Just("indexOf".to_string()),
        Just("trim".to_string()),
        Just("toUpperCase".to_string()),
        Just("split".to_string()),
        Just("map".to_string()),
        Just("filter".to_string()),
        Just("forEach".to_string()),
    ]
}

fn literal() -> impl Strategy<Value = Expr> {
    prop_oneof![
        Just(Expr::Null),
        any::<bool>().prop_map(Expr::Bool),
        (0u32..1000).prop_map(|n| Expr::Num(f64::from(n))),
        (0u32..100, 1u32..16).prop_map(|(a, b)| Expr::Num(f64::from(a) + f64::from(b) / 16.0)),
        "[a-z ]{0,8}".prop_map(Expr::Str),
    ]
}

fn binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::Rem),
        Just(BinOp::Eq),
        Just(BinOp::NotEq),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
        Just(BinOp::And),
        Just(BinOp::Or),
    ]
}

fn expr(depth: u32) -> BoxedStrategy<Expr> {
    if depth == 0 {
        prop_oneof![literal(), ident().prop_map(Expr::Var)].boxed()
    } else {
        let inner = expr(depth - 1);
        prop_oneof![
            literal(),
            ident().prop_map(Expr::Var),
            (binop(), inner.clone(), inner.clone()).prop_map(|(op, a, b)| Expr::Binary(
                op,
                Box::new(a),
                Box::new(b)
            )),
            (prop_oneof![Just(UnOp::Neg), Just(UnOp::Not)], inner.clone())
                .prop_map(|(op, a)| Expr::Unary(op, Box::new(a))),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Expr::Array),
            prop::collection::vec((ident(), inner.clone()), 0..3).prop_map(|fields| {
                let mut seen = std::collections::BTreeSet::new();
                Expr::Object(
                    fields
                        .into_iter()
                        .filter(|(k, _)| seen.insert(k.clone()))
                        .collect(),
                )
            }),
            (ident(), prop::collection::vec(inner.clone(), 0..3)).prop_map(|(f, args)| {
                Expr::Call {
                    callee: Box::new(Expr::Var(f)),
                    args,
                }
            }),
            (
                inner.clone(),
                method_name(),
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(base, m, args)| Expr::Call {
                    callee: Box::new(Expr::Member(Box::new(base), m)),
                    args,
                }),
            (inner.clone(), ident()).prop_map(|(b, f)| Expr::Member(Box::new(b), f)),
            (inner.clone(), inner).prop_map(|(b, i)| Expr::Index(Box::new(b), Box::new(i))),
        ]
        .boxed()
    }
}

fn stmt(depth: u32) -> BoxedStrategy<Stmt> {
    let e = || expr(2);
    let leaf = prop_oneof![
        (ident(), proptest::option::of(e())).prop_map(|(name, init)| Stmt::Let {
            id: StmtId(0),
            line: 1,
            name,
            init
        }),
        (ident(), e()).prop_map(|(v, value)| Stmt::Assign {
            id: StmtId(0),
            line: 1,
            target: LValue::Var(v),
            value
        }),
        (ident(), ident(), e()).prop_map(|(b, f, value)| Stmt::Assign {
            id: StmtId(0),
            line: 1,
            target: LValue::Member(Box::new(Expr::Var(b)), f),
            value
        }),
        (ident(), e(), e()).prop_map(|(b, i, value)| Stmt::Assign {
            id: StmtId(0),
            line: 1,
            target: LValue::Index(Box::new(Expr::Var(b)), Box::new(i)),
            value
        }),
        e().prop_map(|expr| Stmt::Expr {
            id: StmtId(0),
            line: 1,
            expr
        }),
        proptest::option::of(e()).prop_map(|value| Stmt::Return {
            id: StmtId(0),
            line: 1,
            value
        }),
    ];
    if depth == 0 {
        leaf.boxed()
    } else {
        let inner = stmt(depth - 1);
        prop_oneof![
            leaf,
            (
                e(),
                prop::collection::vec(inner.clone(), 0..3),
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(cond, then_block, else_block)| Stmt::If {
                    id: StmtId(0),
                    line: 1,
                    cond,
                    then_block,
                    else_block
                }),
            (e(), prop::collection::vec(inner.clone(), 0..3)).prop_map(|(cond, body)| {
                Stmt::While {
                    id: StmtId(0),
                    line: 1,
                    cond,
                    body,
                }
            }),
            (
                ident(),
                prop::collection::vec(ident(), 0..3),
                prop::collection::vec(inner, 0..4)
            )
                .prop_map(|(name, params, body)| Stmt::Function {
                    id: StmtId(0),
                    line: 1,
                    name,
                    params,
                    body,
                }),
        ]
        .boxed()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random programs agree between engines on outcome, error text,
    /// final globals, trace events and cycle totals.
    #[test]
    fn engines_agree_on_random_programs(stmts in prop::collection::vec(stmt(2), 1..8)) {
        let program = renumber(stmts);
        let tree = run_tree(&program);
        let vm = run_vm(&program);
        prop_assert_eq!(tree, vm);
    }
}
