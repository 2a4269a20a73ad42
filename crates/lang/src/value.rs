//! Runtime values for the NodeScript interpreter.

use crate::ast::Stmt;
use serde_json::{Serialize, Value as Json};
use std::cell::RefCell;
use std::fmt;
use std::ops::Index;
use std::rc::Rc;

/// A user-defined function value (closure).
#[derive(Debug, Clone)]
pub struct Closure {
    pub name: Option<String>,
    pub params: Vec<String>,
    pub body: Vec<Stmt>,
    /// Entry point into a [`CompiledProgram`](crate::compile::CompiledProgram)
    /// when the closure was created by the compiled VM; `None` for closures
    /// built by the tree-walking interpreter. Ignored by equality — the two
    /// engines must produce indistinguishable values.
    pub compiled: Option<crate::compile::CompiledChunk>,
}

impl PartialEq for Closure {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.params == other.params && self.body == other.body
    }
}

/// A NodeScript runtime value.
///
/// Objects and arrays have reference semantics (shared, interior-mutable),
/// matching JavaScript. Use [`Value::deep_clone`] to snapshot a value — the
/// operation EdgStr applies to global variables when capturing the `init`
/// state (§III-C).
#[derive(Debug, Clone, Default)]
pub enum Value {
    #[default]
    Null,
    Bool(bool),
    Num(f64),
    Str(Rc<str>),
    /// Binary payloads (e.g. images in the motivating example).
    Bytes(Rc<[u8]>),
    Array(Rc<RefCell<Vec<Value>>>),
    /// Keys are shared: an object literal's come from the compiled
    /// program, a result set's rows all hold the one allocation per
    /// column name, and copying an object bumps reference counts.
    Object(Rc<RefCell<Props>>),
    Function(Rc<Closure>),
    /// A host-provided object addressed by name (e.g. `app`, `db`, `res`);
    /// member calls on it dispatch to the [`Host`](crate::interp::Host).
    Native(Rc<str>),
}

impl Value {
    /// Construct a string value.
    pub fn str(s: impl Into<Rc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Construct a bytes value.
    pub fn bytes(b: impl Into<Vec<u8>>) -> Value {
        Value::Bytes(Rc::from(b.into().into_boxed_slice()))
    }

    /// Construct an empty array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(RefCell::new(items)))
    }

    /// Construct an object value from key/value pairs in any order; a
    /// repeated key keeps its last value.
    pub fn object<K: Into<Rc<str>>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
        Value::from(
            fields
                .into_iter()
                .map(|(k, v)| (k.into(), v))
                .collect::<Props>(),
        )
    }

    /// JavaScript-style truthiness.
    pub fn is_truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Str(s) => !s.is_empty(),
            Value::Bytes(b) => !b.is_empty(),
            Value::Array(_) | Value::Object(_) | Value::Function(_) | Value::Native(_) => true,
        }
    }

    /// The value as a number, if numeric.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a byte slice, if it is a bytes value.
    pub fn as_bytes(&self) -> Option<&[u8]> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Structural deep copy: arrays and objects are recursively duplicated
    /// so later mutation of the original does not affect the copy.
    pub fn deep_clone(&self) -> Value {
        match self {
            Value::Array(items) => Value::Array(Rc::new(RefCell::new(
                items.borrow().iter().map(Value::deep_clone).collect(),
            ))),
            Value::Object(map) => Value::from(Props(
                map.borrow()
                    .0
                    .iter()
                    .map(|(k, v)| (Rc::clone(k), v.deep_clone()))
                    .collect(),
            )),
            other => other.clone(),
        }
    }

    /// Convert to a JSON tree, for consumers that need one (global and
    /// CRDT mirroring, the offline analyses). Functions and natives become
    /// null; bytes become a `{"$bytes": len, "$hash": h}` marker so payload
    /// identity survives the conversion without embedding megabytes of
    /// data. The text and size of that tree are available without building
    /// it, from one walk: see [`Value::encode`].
    pub fn to_json(&self) -> Json {
        match self {
            Value::Null => Json::Null,
            Value::Bool(b) => Json::Bool(*b),
            Value::Num(n) => match json_int(*n) {
                Some(i) => Json::from(i),
                None => Json::from(*n),
            },
            Value::Str(s) => Json::String(s.to_string()),
            Value::Bytes(b) => serde_json::json!({
                "$bytes": b.len(),
                "$hash": fnv1a(b),
            }),
            Value::Array(items) => Json::Array(items.borrow().iter().map(Value::to_json).collect()),
            Value::Object(map) => Json::Object(
                map.borrow()
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.to_json()))
                    .collect(),
            ),
            Value::Function(_) | Value::Native(_) => Json::Null,
        }
    }

    /// The compact JSON text of [`Value::to_json`] and the transfer size
    /// `edgstr_net::json_size` reports of it, from one walk with no tree in
    /// between.
    pub fn encode(&self) -> (String, usize) {
        let mut text = String::new();
        let size = self.write_sized(&mut text);
        (text, size)
    }

    /// Append this value's compact JSON text to `out` and return its
    /// transfer size: scalars at fixed costs, strings and keys at their
    /// length, and a binary payload (or any object announcing one under a
    /// non-negative integer `$bytes`) at the payload's size.
    fn write_sized(&self, out: &mut String) -> usize {
        match self {
            Value::Null | Value::Function(_) | Value::Native(_) => {
                out.push_str("null");
                4
            }
            Value::Bool(b) => {
                b.write_json(out);
                5
            }
            Value::Num(n) => match json_int(*n) {
                Some(i) => {
                    i.write_json(out);
                    8
                }
                // non-finite numbers have no JSON form and travel as null
                None => {
                    n.write_json(out);
                    if n.is_finite() {
                        8
                    } else {
                        4
                    }
                }
            },
            Value::Str(s) => {
                str::write_json(s, out);
                s.len() + 2
            }
            Value::Bytes(b) => {
                out.push_str("{\"$bytes\":");
                b.len().write_json(out);
                out.push_str(",\"$hash\":");
                fnv1a(b).write_json(out);
                out.push('}');
                b.len()
            }
            Value::Array(items) => {
                out.push('[');
                let mut size = 2;
                for (i, item) in items.borrow().iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    size += item.write_sized(out) + 1;
                }
                out.push(']');
                size
            }
            Value::Object(map) => {
                let map = map.borrow();
                out.push('{');
                let mut size = 2;
                for (i, (k, v)) in map.0.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    str::write_json(k, out);
                    out.push(':');
                    size += k.len() + 3 + v.write_sized(out);
                }
                out.push('}');
                match map.get("$bytes") {
                    Some(Value::Num(n)) => json_int(*n)
                        .and_then(|n| usize::try_from(n).ok())
                        .unwrap_or(size),
                    _ => size,
                }
            }
        }
    }

    /// Convert a JSON value into a NodeScript value.
    pub fn from_json(json: &Json) -> Value {
        match json {
            Json::Null => Value::Null,
            Json::Bool(b) => Value::Bool(*b),
            Json::Number(n) => Value::Num(n.as_f64().unwrap_or(f64::NAN)),
            Json::String(s) => Value::str(s.as_str()),
            Json::Array(items) => Value::array(items.iter().map(Value::from_json).collect()),
            Json::Object(map) => {
                Value::object(map.iter().map(|(k, v)| (k.as_str(), Value::from_json(v))))
            }
        }
    }

    /// Structural equality (by value, not by reference).
    pub fn structural_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.structural_eq(y))
            }
            (Value::Object(a), Value::Object(b)) => {
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.structural_eq(vb))
            }
            (Value::Function(a), Value::Function(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => a == b,
            _ => false,
        }
    }

    /// Collect the *atoms* (strings, numbers, byte-payload hashes) contained
    /// in this value. EdgStr fingerprints HTTP parameters this way to track
    /// fuzzed payload fragments through execution traces (§III-E).
    pub fn atoms(&self, out: &mut Vec<Atom>) {
        match self {
            Value::Null | Value::Function(_) | Value::Native(_) => {}
            Value::Bool(b) => out.push(Atom::Bool(*b)),
            Value::Num(n) => out.push(Atom::Num(n.to_bits())),
            Value::Str(s) => out.push(Atom::Str(s.to_string())),
            Value::Bytes(b) => out.push(Atom::BytesHash(fnv1a(b))),
            Value::Array(items) => {
                for v in items.borrow().iter() {
                    v.atoms(out);
                }
            }
            Value::Object(map) => {
                for v in map.borrow().values() {
                    v.atoms(out);
                }
            }
        }
    }
}

/// An object's properties: `(key, value)` pairs sorted by the keys' bytes,
/// no key twice. The order is the JSON order, so an object encodes front to
/// back; a lookup is a binary search; and a result set's row, whose
/// columns were put in key order once, is built as one vector.
#[derive(Debug, Clone, Default)]
pub struct Props(Vec<(Rc<str>, Value)>);

impl Props {
    /// Properties from pairs already in key order with no key twice.
    ///
    /// # Panics
    ///
    /// In debug builds, when `entries` is out of order or repeats a key.
    pub fn from_sorted(entries: Vec<(Rc<str>, Value)>) -> Props {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "properties out of key order"
        );
        Props(entries)
    }

    /// Number of properties.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether there are no properties.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    fn find(&self, key: &str) -> Result<usize, usize> {
        self.0.binary_search_by(|(k, _)| (**k).cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// The key held for `key`, and its value.
    pub fn get_key_value(&self, key: &str) -> Option<(&Rc<str>, &Value)> {
        let (k, v) = &self.0[self.find(key).ok()?];
        Some((k, v))
    }

    /// The value under `key`, to overwrite in place.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        let at = self.find(key).ok()?;
        Some(&mut self.0[at].1)
    }

    /// Set `key` to `value` and return the value it replaced; a key the
    /// object already has keeps the `Rc` it holds.
    pub fn insert(&mut self, key: Rc<str>, value: Value) -> Option<Value> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.0[at].1, value)),
            Err(at) => {
                self.0.insert(at, (key, value));
                None
            }
        }
    }

    /// The properties in key order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Rc<str>, &Value)> {
        self.0.iter().map(|(k, v)| (k, v))
    }

    /// The keys in order.
    pub fn keys(&self) -> impl ExactSizeIterator<Item = &Rc<str>> {
        self.0.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl ExactSizeIterator<Item = &Value> {
        self.0.iter().map(|(_, v)| v)
    }
}

/// Pairs in any order; a repeated key keeps its last value, as assigning
/// the fields one by one would.
impl FromIterator<(Rc<str>, Value)> for Props {
    fn from_iter<I: IntoIterator<Item = (Rc<str>, Value)>>(pairs: I) -> Props {
        let mut entries: Vec<(Rc<str>, Value)> = pairs.into_iter().collect();
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            // stable, so a repeated key's pairs stay in the order given
            entries.sort_by(|a, b| a.0.cmp(&b.0));
            entries.dedup_by(|later, kept| {
                let repeated = later.0 == kept.0;
                if repeated {
                    std::mem::swap(later, kept);
                }
                repeated
            });
        }
        Props(entries)
    }
}

impl Index<&str> for Props {
    type Output = Value;

    fn index(&self, key: &str) -> &Value {
        self.get(key)
            .unwrap_or_else(|| panic!("no property {key:?}"))
    }
}

impl From<Props> for Value {
    fn from(props: Props) -> Value {
        Value::Object(Rc::new(RefCell::new(props)))
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.structural_eq(other)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 1e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
            Value::Bytes(b) => write!(f, "<bytes:{}>", b.len()),
            Value::Array(_) | Value::Object(_) => {
                let mut text = String::new();
                self.write_json(&mut text);
                f.write_str(&text)
            }
            Value::Function(c) => {
                write!(f, "<function {}>", c.name.as_deref().unwrap_or("anonymous"))
            }
            Value::Native(n) => write!(f, "<native {n}>"),
        }
    }
}

/// The integer a number travels as, if it does: integral values below
/// 9e15 are JSON integers, everything else a float (or `null`).
fn json_int(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.abs() < 9e15).then_some(n as i64)
}

/// The compact JSON text of [`Value::to_json`], written by the walk that
/// also sizes it ([`Value::encode`]): `serde_json::to_string(&v)` and
/// `serde_json::to_string(&v.to_json())` are the same bytes.
impl Serialize for Value {
    fn to_json_value(&self) -> Json {
        self.to_json()
    }

    fn write_json(&self, out: &mut String) {
        self.write_sized(out);
    }
}

impl From<f64> for Value {
    fn from(n: f64) -> Self {
        Value::Num(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

/// An atomic data fragment used for payload fingerprinting.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Atom {
    Bool(bool),
    Num(u64),
    Str(String),
    BytesHash(u64),
}

/// FNV-1a hash of a byte slice; stable fingerprint for binary payloads.
pub fn fnv1a(data: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in data {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_clone_is_independent() {
        let v = Value::object([("a".to_string(), Value::array(vec![Value::Num(1.0)]))]);
        let c = v.deep_clone();
        if let Value::Object(map) = &v {
            if let Value::Array(items) = &map.borrow()["a"] {
                items.borrow_mut().push(Value::Num(2.0));
            }
        }
        if let Value::Object(map) = &c {
            if let Value::Array(items) = &map.borrow()["a"] {
                assert_eq!(items.borrow().len(), 1);
            }
        }
    }

    #[test]
    fn json_round_trip() {
        let v = Value::object([
            ("n".to_string(), Value::Num(3.5)),
            ("s".to_string(), Value::str("hi")),
            (
                "a".to_string(),
                Value::array(vec![Value::Bool(true), Value::Null]),
            ),
        ]);
        let j = v.to_json();
        let back = Value::from_json(&j);
        assert!(v.structural_eq(&back));
    }

    #[test]
    fn structural_eq_ignores_identity() {
        let a = Value::array(vec![Value::Num(1.0)]);
        let b = Value::array(vec![Value::Num(1.0)]);
        assert!(a.structural_eq(&b));
    }

    #[test]
    fn truthiness_follows_javascript() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Num(0.0).is_truthy());
        assert!(!Value::str("").is_truthy());
        assert!(Value::str("x").is_truthy());
        assert!(Value::array(vec![]).is_truthy());
    }

    #[test]
    fn atoms_capture_nested_fragments() {
        let v = Value::object([
            ("a".to_string(), Value::str("img")),
            ("b".to_string(), Value::array(vec![Value::Num(7.0)])),
        ]);
        let mut atoms = Vec::new();
        v.atoms(&mut atoms);
        assert!(atoms.contains(&Atom::Str("img".into())));
        assert!(atoms.contains(&Atom::Num(7.0f64.to_bits())));
    }

    #[test]
    fn bytes_fingerprint_differs_by_content() {
        let a = Value::bytes(vec![1, 2, 3]);
        let b = Value::bytes(vec![1, 2, 4]);
        let (mut aa, mut bb) = (Vec::new(), Vec::new());
        a.atoms(&mut aa);
        b.atoms(&mut bb);
        assert_ne!(aa, bb);
    }

    #[test]
    fn display_integers_without_fraction() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(2.5).to_string(), "2.5");
    }
}
