//! `Props`, an object's key-sorted property vector, against the map it
//! replaced: a `BTreeMap<Rc<str>, Value>` driven through the same
//! inserts, overwrites, lookups and walks, and built from the same pairs,
//! repeated keys included.

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

/// One step of a session: `0` insert, `1` overwrite through `get_mut`,
/// `2` look up.
fn steps() -> impl Strategy<Value = Vec<(usize, Rc<str>, i64)>> {
    prop::collection::vec((0usize..3, key(), any::<i64>()), 0..48)
}

fn same_contents(props: &Props, oracle: &BTreeMap<Rc<str>, Value>) -> bool {
    props.len() == oracle.len()
        && props.is_empty() == oracle.is_empty()
        && props.iter().eq(oracle.iter())
        && props.keys().eq(oracle.keys())
        && props.values().eq(oracle.values())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn props_follow_the_map_they_replaced(seed in pairs(), steps in steps()) {
        let mut props: Props = seed.iter().cloned().collect();
        let mut oracle: BTreeMap<Rc<str>, Value> = seed.into_iter().collect();
        prop_assert!(same_contents(&props, &oracle));
        for (op, k, n) in steps {
            let v = Value::Num(n as f64);
            match op {
                0 => {
                    let replaced = props.insert(Rc::clone(&k), v.clone());
                    prop_assert_eq!(replaced, oracle.insert(Rc::clone(&k), v));
                }
                1 => match (props.get_mut(&k), oracle.get_mut(&k)) {
                    (Some(mine), Some(theirs)) => {
                        *mine = v.clone();
                        *theirs = v;
                    }
                    (mine, theirs) => prop_assert_eq!(mine.is_some(), theirs.is_some()),
                },
                _ => {
                    prop_assert_eq!(props.get(&k), oracle.get(&k));
                    prop_assert_eq!(props.get_key_value(&k), oracle.get_key_value(&k));
                }
            }
            prop_assert!(same_contents(&props, &oracle), "after step {} on {:?}", op, k);
        }
    }

    /// Built from pairs in any order, the vector comes out in key order and
    /// a repeated key keeps its last value, as the map does — and so does
    /// an object built from them.
    #[test]
    fn collected_props_keep_the_last_of_a_repeated_key(pairs in pairs()) {
        let props: Props = pairs.iter().cloned().collect();
        let oracle: BTreeMap<Rc<str>, Value> = pairs.iter().cloned().collect();
        prop_assert!(same_contents(&props, &oracle));
        let Value::Object(object) = Value::object(pairs) else {
            unreachable!("Value::object builds an object")
        };
        prop_assert!(same_contents(&object.borrow(), &oracle));
        // pairs already in key order with no key twice are taken as given
        let sorted: Vec<(Rc<str>, Value)> = oracle.clone().into_iter().collect();
        prop_assert!(same_contents(&Props::from_sorted(sorted), &oracle));
    }
}
