//! A replica set's image is hostile input: `CrdtSet::load` of arbitrary
//! bytes, of a real `CrdtSet::save` image cut short, or of one with a
//! flipped byte must return an error or a set that saves back to exactly
//! those bytes — never panic. A set that does load can be materialised
//! into a server and synced from, so a corrupt image that happens to
//! decode is one more replica state, not a crash later on.

use edgstr_analysis::{InitState, ServerProcess, StateUnit};
use edgstr_core::CrdtBindings;
use edgstr_crdt::ActorId;
use edgstr_net::HttpRequest;
use edgstr_runtime::{CrdtSet, SyncEndpoint};
use proptest::prelude::*;
use proptest::test_runner::TestCaseFailure;
use serde_json::json;

/// A keyed table with every cell kind, a bound file and a bound global.
const APP: &str = r#"
    db.query("CREATE TABLE kv (k TEXT PRIMARY KEY, n INT, r REAL, b BLOB)");
    db.query("INSERT INTO kv VALUES ('seed', 1, 0.5, X'00ff')");
    var hits = 0;
    app.post("/put", function (req, res) {
        hits = hits + 1;
        db.query("DELETE FROM kv WHERE k = '" + req.body.k + "'");
        db.query("INSERT INTO kv VALUES ('" + req.body.k + "', " + req.body.n + ", " + req.body.r + ", X'" + req.body.b + "')");
        fs.writeFile("/latest.txt", req.body.k);
        res.send({ hits: hits });
    });
    app.post("/drop", function (req, res) {
        db.query("DELETE FROM kv WHERE k = '" + req.body.k + "'");
        res.send({ ok: 1 });
    });
"#;

fn bindings() -> CrdtBindings {
    CrdtBindings::from_units([
        StateUnit::DbTable("kv".into()),
        StateUnit::File("/latest.txt".into()),
        StateUnit::Global("hits".into()),
    ])
}

fn init_state() -> InitState {
    let mut s = ServerProcess::from_source(APP).unwrap();
    s.init().unwrap();
    s.fs.write("/latest.txt", b"seed".to_vec());
    InitState::capture(&s)
}

fn node(actor: u64, init: &InitState) -> (ServerProcess, CrdtSet) {
    let mut s = ServerProcess::from_source(APP).unwrap();
    s.init().unwrap();
    init.restore(&mut s);
    (s, CrdtSet::initialize(ActorId(actor), &bindings(), init))
}

/// One thing the writer does.
#[derive(Debug, Clone)]
enum Step {
    Put {
        k: u8,
        n: i64,
        r: i16,
        b: u16,
    },
    Drop {
        k: u8,
    },
    /// Ship the writer's delta to the peer and the peer's ack back.
    Sync,
    /// Fold what the peer acknowledged.
    Compact,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..4, any::<i64>(), any::<i16>(), any::<u16>()).prop_map(|(k, n, r, b)| Step::Put {
            k,
            n,
            r,
            b
        }),
        (0u8..4).prop_map(|k| Step::Drop { k }),
        Just(Step::Sync),
        Just(Step::Compact),
    ]
}

/// The writer's image after `steps`, written through the serve path.
fn image(steps: &[Step]) -> Vec<u8> {
    let init = init_state();
    let (mut server, mut set) = node(1, &init);
    let (mut peer_server, mut peer) = node(2, &init);
    let (mut up, mut down) = (SyncEndpoint::new(), SyncEndpoint::new());
    for step in steps {
        let req = match step {
            Step::Put { k, n, r, b } => {
                let body = json!({"k": format!("k{k}"), "n": n, "r": f64::from(*r) / 4.0, "b": format!("{b:04x}")});
                HttpRequest::post("/put", body, vec![])
            }
            Step::Drop { k } => HttpRequest::post("/drop", json!({"k": format!("k{k}")}), vec![]),
            Step::Sync => {
                let msg = up.generate(&set);
                down.receive_owned(&mut peer, &mut peer_server, msg);
                let ack = down.generate(&peer);
                up.receive_owned(&mut set, &mut server, ack);
                continue;
            }
            Step::Compact => {
                set.compact(&up.peer_clock);
                continue;
            }
        };
        let out = server.handle(&req).expect("every write succeeds");
        set.absorb_outcome(&out, &server);
    }
    set.save()
}

/// `bytes` either fail to load or load to a set whose image is `bytes`,
/// which a server can be provisioned from and a peer can sync from.
fn loads_to_a_fixed_point(bytes: &[u8]) -> Result<(), TestCaseFailure> {
    let Ok(set) = CrdtSet::load(ActorId(9), &bindings(), bytes) else {
        return Ok(());
    };
    prop_assert_eq!(
        &set.save()[..],
        bytes,
        "an image that loads saves back to itself"
    );
    let init = init_state();
    let (mut server, _) = node(9, &init);
    set.materialize_all(&mut server);
    let (mut peer_server, mut peer) = node(3, &init);
    let msg = SyncEndpoint::new().generate(&set);
    SyncEndpoint::new().receive_owned(&mut peer, &mut peer_server, msg);
    Ok(())
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(step(), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..160)) {
        loads_to_a_fixed_point(&bytes)?;
    }

    #[test]
    fn a_real_image_loads_back_to_itself(steps in steps()) {
        let image = image(&steps);
        prop_assert!(CrdtSet::load(ActorId(9), &bindings(), &image).is_ok());
        loads_to_a_fixed_point(&image)?;
    }

    #[test]
    fn a_truncated_image_is_always_an_error(steps in steps(), cut in any::<u32>()) {
        let image = image(&steps);
        let cut = cut as usize % image.len();
        prop_assert!(CrdtSet::load(ActorId(9), &bindings(), &image[..cut]).is_err(), "prefix {} of {}", cut, image.len());
    }

    #[test]
    fn a_flipped_byte_never_panics(steps in steps(), at in any::<u32>(), flip in 1u8..255) {
        let mut image = image(&steps);
        let at = at as usize % image.len();
        image[at] ^= flip;
        loads_to_a_fixed_point(&image)?;
    }
}

/// A bound global set to a value `n` objects deep, or to an object that
/// holds itself.
const NESTING_APP: &str = r#"
    var deep = 0;
    app.post("/nest", function (req, res) {
        var v = 0;
        for (var i = 0; i < req.body.n; i = i + 1) {
            v = { d: v };
        }
        deep = v;
        res.send({ ok: 1 });
    });
    app.post("/loop", function (req, res) {
        deep = { d: 0 };
        deep.d = deep;
        res.send({ ok: 1 });
    });
"#;

/// A global nests on the wire as deep as the language lets a value nest:
/// a set holding one saves an image that loads back to itself and syncs
/// the global to a peer, whether the global was written by a request or
/// captured at start. One nested deeper, or one that holds itself, has no
/// JSON and is not replicated, so the image stays loadable and the process
/// lives. (The language's conversion
/// of a value 1,000 levels deep to JSON recurses once per level, which
/// in an unoptimised build needs more than a test thread's stack.)
#[test]
fn a_deeply_nested_global_saves_loads_and_syncs() {
    assert_eq!(edgstr_crdt::wire::MAX_DEPTH, edgstr_lang::value::MAX_DEPTH);
    std::thread::Builder::new()
        .stack_size(32 << 20)
        .spawn(nested_globals_round_trip)
        .unwrap()
        .join()
        .unwrap();
}

fn nested_globals_round_trip() {
    let bindings = CrdtBindings::from_units([StateUnit::Global("deep".into())]);
    let fresh = || {
        let mut s = ServerProcess::from_source(NESTING_APP).unwrap();
        s.init().unwrap();
        s
    };
    let max = edgstr_lang::value::MAX_DEPTH;
    let cycle = None;
    for (n, carried) in [
        (Some(200), true),
        (Some(max), true),
        (Some(max + 1), false),
        (cycle, false),
    ] {
        let mut server = fresh();
        let init = InitState::capture(&server);
        let mut set = CrdtSet::initialize(ActorId(1), &bindings, &init);
        let write = match n {
            Some(n) => HttpRequest::post("/nest", json!({ "n": n }), vec![]),
            None => HttpRequest::post("/loop", json!({}), vec![]),
        };
        let out = server.handle(&write).unwrap();
        set.absorb_outcome(&out, &server);
        let expected = if carried {
            server.global_json("deep").map(Result::unwrap)
        } else {
            Some(json!(0))
        };
        let image = set.save();
        let loaded = CrdtSet::load(ActorId(9), &bindings, &image)
            .unwrap_or_else(|e| panic!("{n:?} deep: {e}"));
        assert_eq!(loaded.save(), image, "{n:?} deep");
        let mut peer_server = fresh();
        let mut peer = CrdtSet::initialize(ActorId(2), &bindings, &init);
        let msg = SyncEndpoint::new().generate(&loaded);
        SyncEndpoint::new().receive_owned(&mut peer, &mut peer_server, msg);
        assert_eq!(
            peer_server.global_json("deep").map(Result::unwrap),
            expected,
            "{n:?} deep, synced"
        );
        if n.is_none() {
            // capturing a value that holds itself still recurses without a
            // bound (ROADMAP 12(d))
            continue;
        }

        // the same global captured at start: provisioned from the image
        let captured = CrdtSet::initialize(ActorId(1), &bindings, &InitState::capture(&server));
        let image = captured.save();
        let loaded = CrdtSet::load(ActorId(9), &bindings, &image)
            .unwrap_or_else(|e| panic!("{n:?} deep, captured: {e}"));
        assert_eq!(loaded.save(), image, "{n:?} deep, captured");
        let mut provisioned = fresh();
        loaded.materialize_all(&mut provisioned);
        assert_eq!(
            provisioned.global_json("deep").map(Result::unwrap),
            expected,
            "{n:?} deep, captured"
        );
    }
}
