//! A response body is its JSON text and size, fixed at construction —
//! from a `Json` (encoded eagerly) or from an encoding the caller already
//! has (`Body::encoded`) — and remembers its digest and, for the callers
//! that ask, its parsed tree. Each must equal a fresh computation, travel
//! with clones (shared, not redone), stay out of equality, and never
//! describe a different body or status.

use edgstr_net::{fnv1a, json_size, Body, HttpResponse, FNV_OFFSET};
use proptest::prelude::*;
use serde_json::{json, Value as Json};

const TEXTS: [&str; 6] = [
    "",
    "dune",
    "it's \"quoted\"\n",
    "naïve ✓",
    "\\",
    "\u{1}\u{1F600}",
];

/// Bodies whose size and encoding differ: escapes, multi-byte text,
/// floats, binary markers, nesting.
fn leaf() -> impl Strategy<Value = Json> {
    prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::from),
        any::<i64>().prop_map(Json::from),
        (-1_000_000i64..1_000_000).prop_map(|n| json!(n as f64 / 64.0)),
        (0usize..TEXTS.len()).prop_map(|i| json!(TEXTS[i])),
        (1u64..5_000_000).prop_map(|n| json!({"$bytes": n, "$hash": n % 97})),
    ]
}

fn body() -> impl Strategy<Value = Json> {
    let row = || {
        (any::<i64>(), leaf(), leaf())
            .prop_map(|(id, a, b)| json!({"id": id, "title": a, "päth/\"k\"": [b]}))
    };
    prop_oneof![
        leaf(),
        prop::collection::vec(row(), 0..8).prop_map(Json::Array),
        (prop::collection::vec(row(), 0..8), leaf())
            .prop_map(|(rows, extra)| json!({"books": rows, "version": extra})),
    ]
}

fn status() -> impl Strategy<Value = u16> {
    (0usize..4).prop_map(|i| [200u16, 201, 404, 500][i])
}

/// The digest computed from nothing but its public definition.
fn fresh_digest(status: u16, body: &Json) -> u64 {
    let h = fnv1a(FNV_OFFSET, &status.to_le_bytes());
    fnv1a(h, serde_json::to_string(body).unwrap().as_bytes())
}

/// A response over `body`, built by either constructor.
fn response(status: u16, body: &Json, encoded: bool) -> HttpResponse {
    let body = if encoded {
        Body::encoded(serde_json::to_string(body).unwrap(), json_size(body))
    } else {
        body.clone().into()
    };
    HttpResponse { status, body }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn memo_equals_fresh_computation(status in status(), body in body(), enc in any::<bool>()) {
        let resp = response(status, &body, enc);
        // asked twice: the first call computes, the second reads the memo
        for _ in 0..2 {
            prop_assert_eq!(resp.size(), 64 + json_size(&body));
            prop_assert_eq!(resp.body.text(), serde_json::to_string(&body).unwrap());
            prop_assert_eq!(resp.body.to_string(), body.to_string());
            prop_assert_eq!(resp.digest(), fresh_digest(status, &body));
        }
        // none of which needed the tree; asking for it parses the text once
        prop_assert!(!resp.body.is_parsed());
        prop_assert_eq!(&*resp.body, &body);
        prop_assert!(std::ptr::eq(&*resp.body, &*resp.body.clone()), "clone re-parsed");
    }

    #[test]
    fn clones_share_the_memo_in_both_directions(
        status in status(), body in body(), enc in any::<bool>(),
    ) {
        let original = response(status, &body, enc);
        let before = original.clone();
        // computed through the original, read through a clone taken earlier
        let text = original.body.text();
        prop_assert!(std::ptr::eq(text, before.body.text()), "clone re-encoded");
        prop_assert_eq!(before.size(), original.size());
        prop_assert_eq!(before.digest(), fresh_digest(status, &body));
        // and a clone taken afterwards carries it too
        let after = original.clone();
        prop_assert!(std::ptr::eq(text, after.body.text()));
        prop_assert_eq!(after.digest(), original.digest());
    }

    #[test]
    fn equality_ignores_the_memo(status in status(), body in body(), enc in any::<bool>()) {
        let warm = response(status, &body, enc);
        let _ = (warm.size(), warm.digest(), warm.body.is_null());
        // and the constructor: the two give the same body
        let cold = response(status, &body, !enc);
        prop_assert_eq!(&warm, &cold);
        prop_assert!(!cold.body.is_parsed(), "comparing bodies parsed one");
        prop_assert_eq!(&warm.body, &body);
        prop_assert_ne!(&warm, &response(status ^ 1, &body, enc));
        let wrapped = json!({ "other": body.clone() });
        prop_assert_ne!(&warm, &response(status, &wrapped, enc));
    }

    #[test]
    fn a_rebuilt_response_starts_with_nothing_remembered(
        status in status(), body in body(), other in body(), enc in any::<bool>(),
    ) {
        let original = response(status, &body, enc);
        let (size, digest) = (original.size(), original.digest());
        // a different body is a different `Body`
        let mut rebuilt = original.clone();
        rebuilt.body = other.clone().into();
        prop_assert_eq!(rebuilt.size(), 64 + json_size(&other));
        prop_assert_eq!(rebuilt.body.text(), serde_json::to_string(&other).unwrap());
        prop_assert_eq!(rebuilt.digest(), fresh_digest(status, &other));
        // the same shared body under another status: the remembered digest
        // belongs to the status it was computed under
        let mut restatused = original.clone();
        restatused.status ^= 1;
        prop_assert_eq!(restatused.digest(), fresh_digest(status ^ 1, &body));
        prop_assert_eq!(restatused.size(), size);
        // and none of that disturbed the original
        prop_assert_eq!(original.digest(), digest);
        prop_assert_eq!(original.body.clone().into_json(), body);
    }
}

#[test]
fn response_types_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HttpResponse>();
    assert_send_sync::<edgstr_net::Body>();
}
