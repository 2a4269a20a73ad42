//! `Props`, an object's properties, is the JSON map keyed by `Rc<str>`;
//! `serde_json`'s `map_oracle` holds the map to the `BTreeMap` it
//! replaced. What is left here is what the shared keys add: which `Rc` an
//! object holds after an overwrite, and that an object built from pairs
//! holds the pairs' own keys.

use edgstr_lang::{Props, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Few keys, so overwrites and repeats are common, listed out of byte
/// order: empty, a prefix of another, upper case before lower, `$` first,
/// a NUL inside, multi-byte characters last.
const KEYS: [&str; 10] = [
    "b", "a", "", "ab", "B", "$bytes", "é", "日本", "a\u{0}", "z",
];

/// A fresh allocation of one of [`KEYS`] each time, so two equal keys are
/// never the same `Rc`.
fn key() -> impl Strategy<Value = Rc<str>> {
    (0usize..KEYS.len()).prop_map(|i| Rc::from(KEYS[i]))
}

fn pairs() -> impl Strategy<Value = Vec<(Rc<str>, Value)>> {
    prop::collection::vec((key(), any::<i64>()), 0..24).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(k, n)| (k, Value::Num(n as f64)))
            .collect()
    })
}

/// The same entries in the same order, each key the very `Rc` the oracle
/// holds.
fn same_keys(props: &Props, oracle: &BTreeMap<Rc<str>, Value>) -> bool {
    props.len() == oracle.len()
        && props
            .iter()
            .zip(oracle)
            .all(|((k, v), (ok, ov))| Rc::ptr_eq(k, ok) && v == ov)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A key the object already has keeps the `Rc` it holds, whether the
    /// value is replaced by `insert` or through `get_mut`, as in the
    /// `BTreeMap<Rc<str>, Value>` it replaced; only a new key is held as
    /// given.
    #[test]
    fn props_follow_the_map_they_replaced(seed in pairs(), writes in pairs()) {
        let mut props: Props = seed.iter().cloned().collect();
        let mut oracle: BTreeMap<Rc<str>, Value> = seed.into_iter().collect();
        for (i, (k, v)) in writes.into_iter().enumerate() {
            let held = props.get_key_value(&k).map(|(held, _)| Rc::clone(held));
            if i % 2 == 0 {
                prop_assert_eq!(
                    props.insert(Rc::clone(&k), v.clone()),
                    oracle.insert(Rc::clone(&k), v.clone())
                );
            } else if let (Some(mine), Some(theirs)) = (props.get_mut(&k), oracle.get_mut(&k)) {
                *mine = v.clone();
                *theirs = v.clone();
            } else {
                props.insert(Rc::clone(&k), v.clone());
                oracle.insert(Rc::clone(&k), v.clone());
            }
            let (now, value) = props.get_key_value(&k).expect("just written");
            prop_assert!(Rc::ptr_eq(now, held.as_ref().unwrap_or(&k)));
            prop_assert_eq!(value, &v);
            prop_assert!(same_keys(&props, &oracle));
        }
    }

    /// Built from pairs in any order, an object holds the key of each
    /// key's last pair, with that pair's value, as a collected `BTreeMap`
    /// does; pairs already in key order with no key twice are held as
    /// given. `Value::object` builds the same object.
    #[test]
    fn collected_props_keep_the_last_of_a_repeated_key(pairs in pairs()) {
        let oracle: BTreeMap<Rc<str>, Value> = pairs.iter().cloned().collect();
        let props: Props = pairs.iter().cloned().collect();
        prop_assert!(same_keys(&props, &oracle));
        let Value::Object(object) = Value::object(pairs) else {
            unreachable!("Value::object builds an object")
        };
        prop_assert!(same_keys(&object.borrow(), &oracle));
        let sorted: Props = oracle.iter().map(|(k, v)| (Rc::clone(k), v.clone())).collect();
        prop_assert!(same_keys(&sorted, &oracle));
    }
}
