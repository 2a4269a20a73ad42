//! A value that holds itself has no JSON text and no string form. Sending
//! one, stringifying one or concatenating one onto a string fails the
//! request as a script error — JavaScript's "circular structure" — and
//! comparing two of them answers `false`; none of them may take the
//! process down. The request that failed leaves its row writes for the
//! replica to revert, and the server goes on serving. Both engines agree.

use edgstr_analysis::{ExecMode, InitState, ServerError, ServerProcess};
use edgstr_net::HttpRequest;
use serde_json::json;

const LOOPS: &str = r#"
    db.query("CREATE TABLE notes (id INT PRIMARY KEY, text TEXT)");
    var served = 0;
    app.get("/send", function (req, res) {
        db.query("INSERT INTO notes VALUES (1, 'lost')");
        var a = [];
        a.push(a);
        res.send(a);
    });
    app.get("/stringify", function (req, res) {
        var o = { name: "o" };
        o.self = o;
        res.send({ json: JSON.stringify(o) });
    });
    app.get("/concat", function (req, res) {
        var a = [1];
        a.push(a);
        res.send({ text: "" + a });
    });
    app.get("/join", function (req, res) {
        var a = [1];
        a.push(a);
        res.send({ text: a.join(",") });
    });
    app.get("/log", function (req, res) {
        var o = {};
        o.o = o;
        console.log("looping", o);
        res.send({ ok: 1 });
    });
    app.get("/key", function (req, res) {
        var a = [];
        a.push(a);
        var o = {};
        o[a] = 1;
        res.send(o);
    });
    app.get("/index_of", function (req, res) {
        var a = [];
        a.push(a);
        var b = [];
        b.push(b);
        res.send({ at: [a].indexOf(b), same: a == b, self: a.indexOf(a) });
    });
    app.get("/fine", function (req, res) {
        served = served + 1;
        res.send({ served: served });
    });
"#;

fn server(mode: ExecMode) -> ServerProcess {
    let mut server = ServerProcess::from_source_with_mode(LOOPS, mode).unwrap();
    server.init().unwrap();
    server
}

fn get(server: &mut ServerProcess, route: &str) -> Result<String, ServerError> {
    server
        .handle(&HttpRequest::get(route, json!({})))
        .map(|out| out.response.body.text().to_string())
}

#[test]
fn encoding_or_coercing_a_cycle_fails_the_request_and_serving_goes_on() {
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let mut server = server(mode);
        let routes = ["/send", "/stringify", "/concat", "/join", "/log", "/key"];
        for (served, route) in routes.into_iter().enumerate() {
            let err = get(&mut server, route).unwrap_err();
            let ServerError::Runtime(message) = &err else {
                panic!("{route} on {mode:?}: {err:?}");
            };
            assert!(
                message.contains("nested deeper than 1000 levels"),
                "{route} on {mode:?}: {message}"
            );
            assert_eq!(
                get(&mut server, "/fine").unwrap(),
                format!(r#"{{"served":{}}}"#, served + 1),
                "{route} on {mode:?}: the server stopped serving"
            );
        }
    }
}

#[test]
fn a_failed_send_leaves_its_writes_for_the_replica_to_revert() {
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let mut server = server(mode);
        assert!(get(&mut server, "/send").is_err());
        let effects = server.take_failed_row_effects();
        assert_eq!(effects.len(), 1, "{mode:?}: the INSERT before the send");
    }
}

#[test]
fn cycles_compare_unequal() {
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let mut server = server(mode);
        assert_eq!(
            get(&mut server, "/index_of").unwrap(),
            r#"{"at":-1,"same":false,"self":-1}"#,
            "{mode:?}"
        );
    }
}

#[test]
fn both_engines_fail_alike() {
    let mut compiled = server(ExecMode::Compiled);
    let mut walking = server(ExecMode::TreeWalking);
    for route in ["/send", "/stringify", "/concat", "/join", "/log", "/key"] {
        assert_eq!(
            format!("{:?}", get(&mut compiled, route)),
            format!("{:?}", get(&mut walking, route)),
            "{route}"
        );
    }
}

const HOLDS_ITSELF: &str = r#"
    var g = { n: 1 };
    g.me = g;
    g.via = [g];
    app.get("/through", function (req, res) {
        g.me.via[0].me.n = g.n + 1;
        res.send({ n: g.me.me.n, via: g.via[0].via[0].n });
    });
"#;

/// A global that holds itself is captured and restored as a global that
/// holds itself: a fresh process seeded from the capture serves a request
/// that reads and writes through the cycle exactly as the process it was
/// captured from does, on both engines.
#[test]
fn a_global_that_holds_itself_is_captured_and_restored_as_itself() {
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let mut original = ServerProcess::from_source_with_mode(HOLDS_ITSELF, mode).unwrap();
        original.init().unwrap();
        let init = InitState::capture(&original);
        // what has no text counts nothing
        assert_eq!(init.byte_size(), 0, "{mode:?}");
        let mut fresh = ServerProcess::from_source_with_mode(HOLDS_ITSELF, mode).unwrap();
        fresh.init().unwrap();
        init.restore(&mut fresh);
        for round in 0..3 {
            let served = [&mut original, &mut fresh].map(|server| get(server, "/through"));
            assert_eq!(served[0], served[1], "{mode:?}, round {round}");
            let n = round + 2;
            let want = format!(r#"{{"n":{n},"via":{n}}}"#);
            assert_eq!(served[0].as_deref(), Ok(want.as_str()), "{mode:?}");
        }
    }
}

const NESTING: &str = r#"
    function nest(n) {
        var a = [];
        for (var i = 1; i < n; i = i + 1) {
            a = [a];
        }
        return a;
    }
    app.get("/deep", function (req, res) {
        res.send(nest(req.params.n));
    });
    app.get("/reparse", function (req, res) {
        var text = JSON.stringify(nest(req.params.n));
        res.send({ same: JSON.stringify(JSON.parse(text)) == text });
    });
    app.get("/parse", function (req, res) {
        JSON.parse(req.params.text);
        res.send({ parsed: 1 });
    });
"#;

/// What the language writes, its JSON parser reads back: an array nested
/// to the language's bound is a body whose tree is there to read, and its
/// text survives `JSON.parse`; text nested one deeper is refused, as
/// sending a value nested one deeper is. (Each level costs the parser and
/// the tree a few frames, which an unoptimised build does not fit in a
/// test thread's stack.)
#[test]
fn json_nested_to_the_bound_parses_back_and_no_deeper() {
    std::thread::Builder::new()
        .stack_size(32 << 20)
        .spawn(nesting_round_trip)
        .unwrap()
        .join()
        .unwrap();
}

fn nesting_round_trip() {
    let max = edgstr_lang::value::MAX_DEPTH;
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    for mode in [ExecMode::Compiled, ExecMode::TreeWalking] {
        let mut server = ServerProcess::from_source_with_mode(NESTING, mode).unwrap();
        server.init().unwrap();
        let mut call = |route: &str, params| {
            server
                .handle(&HttpRequest::get(route, params))
                .map(|out| out.response.body)
        };
        let body = call("/deep", json!({ "n": max })).unwrap();
        assert_eq!(body.text(), nested(max), "{mode:?}");
        let mut depth = 0;
        let mut tree: &serde_json::Value = &body;
        while let Some([inner]) = tree.as_array().map(Vec::as_slice) {
            depth += 1;
            tree = inner;
        }
        assert_eq!((depth, tree), (max - 1, &json!([])), "{mode:?}");
        let body = call("/reparse", json!({ "n": max })).unwrap();
        assert_eq!(body.text(), r#"{"same":true}"#, "{mode:?}");
        assert!(call("/deep", json!({ "n": max + 1 })).is_err(), "{mode:?}");
        assert!(call("/parse", json!({ "text": nested(max) })).is_ok());
        let err = call("/parse", json!({ "text": nested(max + 1) })).unwrap_err();
        assert!(
            format!("{err:?}").contains("recursion limit"),
            "{mode:?}: {err:?}"
        );
    }
}
