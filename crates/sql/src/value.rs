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

    /// Canonical primary-key string for this value: the form under which a
    /// row is keyed in the CRDT mirror (`Text 'x'` → `x`, `Int 5` → `5`).
    /// Anything that derives row-level identity from a SQL value — the
    /// engine's row mirroring and the analysis layer's read-set keying —
    /// must agree on this exact stringification.
    pub fn pk_string(&self) -> String {
        // the display form with its quotes trimmed: only text and blobs
        // display any
        match self {
            SqlValue::Text(s) => s.trim_matches('\'').to_string(),
            SqlValue::Blob(_) => self.to_string().trim_matches('\'').to_string(),
            _ => self.to_string(),
        }
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

    /// The values [`SqlValue::pk_string`] can have produced `pk` from, for
    /// finding a row by its canonical key: `5` is `INT 5`, `REAL 5.0` or
    /// `TEXT '5'`. Text that itself begins or ends with a quote is the one
    /// preimage not listed (the trim is not invertible).
    pub fn pk_candidates(pk: &str) -> Vec<SqlValue> {
        let mut out = Vec::with_capacity(3);
        if pk == "NULL" {
            out.push(SqlValue::Null);
        }
        if let Ok(i) = pk.parse::<i64>() {
            out.push(SqlValue::Int(i));
        } else if let Ok(r) = pk.parse::<f64>() {
            out.push(SqlValue::Real(r));
        }
        out.push(SqlValue::Text(pk.to_string()));
        out
    }
}

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
    const TWO_63: f64 = 9_223_372_036_854_775_808.0;
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

    #[test]
    fn pk_candidates_cover_the_kinds_a_key_string_can_come_from() {
        let has = |pk: &str, v: SqlValue| SqlValue::pk_candidates(pk).contains(&v);
        assert!(has("5", SqlValue::Int(5)) && has("5", SqlValue::Text("5".into())));
        assert!(has("2.5", SqlValue::Real(2.5)));
        assert!(has("NULL", SqlValue::Null) && has("NULL", SqlValue::Text("NULL".into())));
        for v in [
            SqlValue::Int(-7),
            SqlValue::Real(1e21),
            SqlValue::Real(0.1),
            SqlValue::Text("dune".into()),
            SqlValue::Null,
        ] {
            let pk = v.pk_string();
            let found = SqlValue::pk_candidates(&pk)
                .iter()
                .any(|c| c.pk_cmp(&v) == Ordering::Equal);
            assert!(found, "{v} not reachable from its key {pk}");
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
