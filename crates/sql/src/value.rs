//! SQL values and types.

use serde_json::Value as Json;
use std::cmp::Ordering;
use std::fmt;

/// Column type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SqlType {
    Int,
    Real,
    Text,
    Blob,
}

impl fmt::Display for SqlType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlType::Int => write!(f, "INT"),
            SqlType::Real => write!(f, "REAL"),
            SqlType::Text => write!(f, "TEXT"),
            SqlType::Blob => write!(f, "BLOB"),
        }
    }
}

/// A SQL cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum SqlValue {
    Null,
    Int(i64),
    Real(f64),
    Text(String),
    Blob(Vec<u8>),
}

impl SqlValue {
    /// Approximate storage/wire size in bytes.
    pub fn size(&self) -> usize {
        match self {
            SqlValue::Null => 1,
            SqlValue::Int(_) => 8,
            SqlValue::Real(_) => 8,
            SqlValue::Text(s) => s.len() + 2,
            SqlValue::Blob(b) => b.len(),
        }
    }

    /// SQL-style three-valued comparison (NULL is incomparable; numeric
    /// types compare cross-type, exactly — an `INT` beyond 2^53 is not
    /// rounded to the nearest `REAL` first). Inlined: it is the inner
    /// step of every scan and sort.
    #[inline]
    pub fn compare(&self, other: &SqlValue) -> Option<Ordering> {
        use SqlValue::*;
        match (self, other) {
            (Null, _) | (_, Null) => None,
            (Int(a), Int(b)) => Some(a.cmp(b)),
            (Real(a), Real(b)) => a.partial_cmp(b),
            (Int(a), Real(b)) => int_real(*a, *b),
            (Real(a), Int(b)) => int_real(*b, *a).map(Ordering::reverse),
            (Text(a), Text(b)) => Some(a.cmp(b)),
            (Blob(a), Blob(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Convert to JSON for HTTP responses.
    pub fn to_json(&self) -> Json {
        match self {
            SqlValue::Null => Json::Null,
            SqlValue::Int(i) => Json::from(*i),
            SqlValue::Real(r) => serde_json::Number::from_f64(*r)
                .map(Json::Number)
                .unwrap_or(Json::Null),
            SqlValue::Text(s) => Json::String(s.clone()),
            SqlValue::Blob(b) => Json::String(format!("0x{}", hex(b))),
        }
    }

    /// The name a replica keeps a row under when this is its primary key:
    /// its SQL literal as [`Display`](fmt::Display) writes it, quotes and
    /// all, except that a `REAL` holding an `INT`'s value is written as
    /// that `INT` (so `-0.0` is `0`). Values [`SqlValue::pk_cmp`] calls
    /// equal have one key and unequal values two, and
    /// [`SqlValue::from_key`] reads a key back.
    pub fn key(&self) -> String {
        let mut key = String::new();
        self.write_key(&mut key).expect("a String takes any text");
        key
    }

    /// Write [`SqlValue::key`] to `out`, failing only where `out` does.
    pub fn write_key(&self, out: &mut impl fmt::Write) -> fmt::Result {
        match self {
            // in range and integral, so the cast is exact
            SqlValue::Real(r) if r.fract() == 0.0 && (-TWO_63..TWO_63).contains(r) => {
                write!(out, "{}", *r as i64)
            }
            v => write!(out, "{v}"),
        }
    }

    /// A value [`SqlValue::pk_cmp`]-equal to the one whose
    /// [`SqlValue::key`] is `key`; `None` when `key` is no value's key.
    pub fn from_key(key: &str) -> Option<SqlValue> {
        fn quoted<'k>(key: &'k str, open: &str) -> Option<&'k str> {
            key.strip_prefix(open)?.strip_suffix('\'')
        }
        if key == "NULL" {
            Some(SqlValue::Null)
        } else if let Some(text) = quoted(key, "'") {
            Some(SqlValue::Text(text.to_string()))
        } else if let Some(hex) = quoted(key, "X'") {
            unhex(hex).map(SqlValue::Blob)
        } else if let Ok(i) = key.parse() {
            Some(SqlValue::Int(i))
        } else {
            key.parse().ok().map(SqlValue::Real)
        }
    }

    /// The coarser key the response cache counts a row's changes under, as
    /// a request parameter names the row (`edgstr_analysis::json_pk_string`):
    /// [`SqlValue::key`] with its quotes trimmed, so `INT 5` and `TEXT '5'`
    /// share `5`. A shared counter only invalidates more.
    pub fn pk_string(&self) -> String {
        let key = self.key();
        match Self::pk_string_of(&key) {
            trimmed if trimmed.len() == key.len() => key,
            trimmed => trimmed.to_string(),
        }
    }

    /// [`SqlValue::pk_string`] of the value whose [`SqlValue::key`] (or
    /// keyless row's name) is `key`.
    pub fn pk_string_of(key: &str) -> &str {
        key.trim_matches('\'')
    }

    /// Whether `self` and `other` are the same cell: the same kind and the
    /// same value, a `REAL` compared by its bits (`NaN` is itself, `-0.0`
    /// is not `0.0`). Writing an identical cell over a cell changes nothing
    /// a read can see.
    #[must_use]
    pub fn identical(&self, other: &SqlValue) -> bool {
        match (self, other) {
            (SqlValue::Real(a), SqlValue::Real(b)) => a.to_bits() == b.to_bits(),
            _ => self == other,
        }
    }

    /// The total order a table with a primary key keeps its rows in, and
    /// the one every primary-key lookup searches by. Where
    /// [`SqlValue::compare`] has an answer this is that answer, so a row
    /// found here is exactly a row `pk = literal` selects; the pairs it
    /// leaves incomparable are ordered by kind — `NULL`, then numbers, then
    /// NaN, then text, then blobs — and equal within `NULL` and NaN.
    pub fn pk_cmp(&self, other: &SqlValue) -> Ordering {
        fn kind(v: &SqlValue) -> u8 {
            match v {
                SqlValue::Null => 0,
                SqlValue::Int(_) => 1,
                SqlValue::Real(r) if !r.is_nan() => 1,
                SqlValue::Real(_) => 2,
                SqlValue::Text(_) => 3,
                SqlValue::Blob(_) => 4,
            }
        }
        self.compare(other)
            .unwrap_or_else(|| kind(self).cmp(&kind(other)))
    }
}

/// 2^63, the first double past `i64::MAX`.
const TWO_63: f64 = 9_223_372_036_854_775_808.0;

/// Exact comparison of an integer with a float (`None` for NaN). An
/// integer of magnitude at most 2^53 is a double exactly, so the two
/// compare as doubles; a wider one takes [`cmp_int_real`].
#[inline]
fn int_real(i: i64, r: f64) -> Option<Ordering> {
    if i.unsigned_abs() <= 1 << 53 {
        (i as f64).partial_cmp(&r)
    } else {
        cmp_int_real(i, r)
    }
}

/// [`int_real`] for any integer: the float is split into its integral
/// part, which an `i64` either holds exactly or lies wholly to one side
/// of, and a fraction that breaks ties.
fn cmp_int_real(i: i64, r: f64) -> Option<Ordering> {
    if r.is_nan() {
        None
    } else if r >= TWO_63 {
        Some(Ordering::Less)
    } else if r < -TWO_63 {
        Some(Ordering::Greater)
    } else {
        let whole = r.trunc();
        // in [-2^63, 2^63) and integral, so the cast is exact
        Some(
            i.cmp(&(whole as i64))
                .then_with(|| 0.0_f64.partial_cmp(&(r - whole)).expect("finite")),
        )
    }
}

fn hex(data: &[u8]) -> String {
    data.iter().map(|b| format!("{b:02x}")).collect()
}

/// The bytes [`hex`] wrote `text` from.
fn unhex(text: &str) -> Option<Vec<u8>> {
    let byte = |i| u8::from_str_radix(text.get(i..i + 2)?, 16).ok();
    (0..text.len()).step_by(2).map(byte).collect()
}

impl fmt::Display for SqlValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlValue::Null => write!(f, "NULL"),
            SqlValue::Int(i) => write!(f, "{i}"),
            SqlValue::Real(r) => write!(f, "{r}"),
            SqlValue::Text(s) => write!(f, "'{s}'"),
            SqlValue::Blob(b) => write!(f, "X'{}'", hex(b)),
        }
    }
}

impl From<i64> for SqlValue {
    fn from(i: i64) -> Self {
        SqlValue::Int(i)
    }
}

impl From<f64> for SqlValue {
    fn from(r: f64) -> Self {
        SqlValue::Real(r)
    }
}

impl From<&str> for SqlValue {
    fn from(s: &str) -> Self {
        SqlValue::Text(s.to_string())
    }
}

impl From<String> for SqlValue {
    fn from(s: String) -> Self {
        SqlValue::Text(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn cross_type_numeric_compare() {
        assert_eq!(
            SqlValue::Int(2).compare(&SqlValue::Real(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            SqlValue::Real(3.0).compare(&SqlValue::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn int_real_comparison_is_exact() {
        use SqlValue::{Int, Real};
        let two_53 = 9_007_199_254_740_992_i64;
        // as f64 both integers round to 2^53; only one of them equals it
        assert_eq!(
            Int(two_53).compare(&Real(two_53 as f64)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Int(two_53 + 1).compare(&Real(two_53 as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(Int(i64::MAX).compare(&Real(1e19)), Some(Ordering::Less));
        assert_eq!(Int(i64::MIN).compare(&Real(-1e19)), Some(Ordering::Greater));
        assert_eq!(Int(3).compare(&Real(3.5)), Some(Ordering::Less));
        assert_eq!(Int(-3).compare(&Real(-3.5)), Some(Ordering::Greater));
        assert_eq!(Real(-3.5).compare(&Int(-3)), Some(Ordering::Less));
        assert_eq!(Int(1).compare(&Real(f64::NAN)), None);
    }

    #[test]
    fn pk_order_is_total_and_agrees_with_equality() {
        use SqlValue::{Blob, Int, Null, Real, Text};
        let ascending = [
            Null,
            Real(f64::NEG_INFINITY),
            Int(-1),
            Real(-0.5),
            Int(5),
            Real(5.5),
            Int(9),
            Int(10),
            Real(f64::INFINITY),
            Real(f64::NAN),
            Text("10".into()),
            Text("9".into()),
            Blob(vec![1]),
        ];
        for (i, a) in ascending.iter().enumerate() {
            for (j, b) in ascending.iter().enumerate() {
                assert_eq!(a.pk_cmp(b), i.cmp(&j), "{a} vs {b}");
            }
        }
        assert_eq!(Int(5).pk_cmp(&Real(5.0)), Ordering::Equal);
        assert_eq!(Real(0.0).pk_cmp(&Real(-0.0)), Ordering::Equal);
    }

    /// Values a key must tell apart or must not: every kind, both zeros,
    /// NaN, integers next to 2^53 and at the ends of `INT`, the `REAL`s
    /// that equal them, and text and blobs that look like other kinds'
    /// keys.
    fn edge_values() -> Vec<SqlValue> {
        use SqlValue::{Blob, Int, Null, Real, Text};
        let two_53 = 1_i64 << 53;
        let ints = [0, 5, -1, two_53 - 1, two_53, two_53 + 1, i64::MIN, i64::MAX];
        let reals = [
            0.0,
            -0.0,
            5.0,
            2.5,
            two_53 as f64,
            (two_53 + 2) as f64,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e300,
            i64::MIN as f64,
            i64::MAX as f64,
        ];
        let texts = [
            "", "a", "'a", "a'", "''", "5", "NULL", "X'0aff'", "it's", "𝄞",
        ];
        let blobs: [&[u8]; 3] = [b"", b"\x0a\xff", b"5"];
        let mut values = vec![Null];
        values.extend(ints.map(Int));
        values.extend(reals.map(Real));
        values.extend(texts.map(|t| Text(t.into())));
        values.extend(blobs.map(|b| Blob(b.to_vec())));
        values
    }

    fn key_domain() -> impl Strategy<Value = SqlValue> {
        let edges = edge_values();
        prop_oneof![
            (0..edges.len()).prop_map(move |i| edges[i].clone()),
            any::<i64>().prop_map(SqlValue::Int),
            any::<u64>().prop_map(|bits| SqlValue::Real(f64::from_bits(bits))),
            any::<i32>().prop_map(|i| SqlValue::Real(f64::from(i))),
            "[a'X0-9]{0,4}".prop_map(SqlValue::Text),
            prop::collection::vec(any::<u8>(), 0..4).prop_map(SqlValue::Blob),
        ]
    }

    /// A row's key tells apart exactly the values its table does:
    /// `pk_cmp`-equal values share one key and unequal ones have two, a
    /// key reads back as a value its table finds the row by, and the
    /// cache's coarser key never splits what a key joins.
    fn check_keys(a: &SqlValue, b: &SqlValue) {
        let (ka, kb) = (a.key(), b.key());
        assert_eq!(
            ka == kb,
            a.pk_cmp(b).is_eq(),
            "{a:?} and {b:?}: {ka} and {kb}"
        );
        let back = SqlValue::from_key(&ka);
        assert!(
            back.as_ref().is_some_and(|v| v.pk_cmp(a).is_eq()),
            "{a:?} read back as {back:?}"
        );
        if ka == kb {
            assert_eq!(a.pk_string(), b.pk_string(), "{a:?} and {b:?}");
        }
    }

    #[test]
    fn keys_are_one_per_pk_class_and_read_back() {
        let edges = edge_values();
        for a in &edges {
            for b in &edges {
                check_keys(a, b);
            }
        }
    }

    proptest! {
        #[test]
        fn keys_are_one_per_pk_class_over_any_values(a in key_domain(), b in key_domain()) {
            check_keys(&a, &b);
        }
    }

    #[test]
    fn keys_keep_quotes_and_pk_strings_trim_them() {
        use SqlValue::{Blob, Int, Real, Text};
        for (v, key, pk) in [
            (Int(5), "5", "5"),
            (Real(-0.0), "0", "0"),
            (Text("5".into()), "'5'", "5"),
            (Text("'a".into()), "''a'", "a"),
            (Blob(vec![0x0a, 0xff]), "X'0aff'", "X'0aff"),
        ] {
            assert_eq!((v.key().as_str(), v.pk_string().as_str()), (key, pk), "{v}");
        }
        for key in ["", "'", "X'0", "X'0g'", "row1", "5x"] {
            assert_eq!(SqlValue::from_key(key), None, "{key}");
        }
    }

    #[test]
    fn null_is_incomparable() {
        assert_eq!(SqlValue::Null.compare(&SqlValue::Int(1)), None);
        assert_eq!(SqlValue::Int(1).compare(&SqlValue::Null), None);
    }

    /// A scalar's JSON form is what the engine answers with, and it
    /// survives a JSON text round trip unchanged.
    #[test]
    fn json_round_trip_scalars() {
        use serde_json::json;
        for (v, j) in [
            (SqlValue::Null, json!(null)),
            (SqlValue::Int(-7), json!(-7)),
            (SqlValue::Real(2.25), json!(2.25)),
            (SqlValue::Text("hello".into()), json!("hello")),
            (SqlValue::Blob(vec![0x0a, 0xff]), json!("0x0aff")),
        ] {
            assert_eq!(v.to_json(), j);
            let text = v.to_json().to_string();
            assert_eq!(serde_json::from_str::<serde_json::Value>(&text).unwrap(), j);
        }
    }

    #[test]
    fn display_forms() {
        assert_eq!(SqlValue::Text("a".into()).to_string(), "'a'");
        assert_eq!(SqlValue::Blob(vec![0xab]).to_string(), "X'ab'");
        assert_eq!(SqlValue::Null.to_string(), "NULL");
    }

    #[test]
    fn size_scales() {
        assert!(SqlValue::Blob(vec![0; 100]).size() > SqlValue::Int(1).size());
    }
}
