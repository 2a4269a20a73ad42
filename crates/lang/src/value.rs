//! Runtime values for the NodeScript interpreter.

use crate::ast::Stmt;
use serde_json::{Serialize, Value as Json};
use std::cell::{Ref, RefCell, RefMut};
use std::collections::HashMap;
use std::fmt::{self, Write as _};
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
    /// Elements, or a `db.query` result whose rows are still cells: see
    /// [`Array`].
    Array(Rc<Array>),
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

    /// Construct an array value.
    pub fn array(items: Vec<Value>) -> Value {
        Value::Array(Rc::new(Array::new(items)))
    }

    /// A `db.query` result: `count` rows, each an object with one cell per
    /// key, the cells given row after row. The rows wait as cells until
    /// the script reads an element, mutates the array or compares it (see
    /// [`Array`]); what it sees then is exactly those row objects.
    ///
    /// # Panics
    ///
    /// In debug builds, when the keys are out of order or repeat, a cell
    /// is missing or extra, or a cell is an array or an object.
    pub fn result_rows(keys: Vec<Rc<str>>, cells: Vec<Value>, count: usize) -> Value {
        debug_assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "result keys out of order"
        );
        debug_assert_eq!(cells.len(), count * keys.len(), "one cell per key per row");
        debug_assert!(
            cells
                .iter()
                .all(|c| !matches!(c, Value::Array(_) | Value::Object(_))),
            "a result cell is a scalar"
        );
        Value::Array(Rc::new(Array(RefCell::new(Elements {
            items: cells,
            waiting: Some(Shape { keys, count }),
        }))))
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
    /// so later mutation of the original does not affect the copy. A cycle
    /// is copied as the same cycle.
    pub fn deep_clone(&self) -> Value {
        self.clone_within(&mut HashMap::new())
    }

    /// [`Value::deep_clone`] inside the containers of `path` (each an
    /// original's address and its copy): one met again is its copy.
    fn clone_within(&self, path: &mut HashMap<*const (), Value>) -> Value {
        let (at, copy) = match self {
            Value::Array(items) => (Rc::as_ptr(items).cast(), Value::array(Vec::new())),
            Value::Object(map) => (Rc::as_ptr(map).cast(), Value::from(Props::new())),
            scalar => return scalar.clone(),
        };
        if let Some(copy) = path.get(&at) {
            return copy.clone();
        }
        path.insert(at, copy.clone());
        match (self, &copy) {
            (Value::Array(items), Value::Array(to)) => {
                let items = items
                    .borrow()
                    .iter()
                    .map(|v| v.clone_within(path))
                    .collect();
                *to.borrow_mut() = items;
            }
            (Value::Object(map), Value::Object(to)) => {
                let map = map.borrow();
                let props = map
                    .iter()
                    .map(|(k, v)| (Rc::clone(k), v.clone_within(path)));
                *to.borrow_mut() = props.collect();
            }
            _ => unreachable!("a copy is of its original's kind"),
        }
        path.remove(&at);
        copy
    }

    /// Convert to a JSON tree, for consumers that need one (global and
    /// CRDT mirroring, the offline analyses). Functions and natives become
    /// null; bytes become a `{"$bytes": len, "$hash": h}` marker so payload
    /// identity survives the conversion without embedding megabytes of
    /// data. The text and size of that tree are available without building
    /// it, from one walk: see [`Value::encode`].
    ///
    /// # Errors
    ///
    /// A value nested deeper than [`MAX_DEPTH`] — one that holds itself —
    /// has no JSON, as it has no text.
    pub fn to_json(&self) -> Result<Json, TooDeep> {
        self.json_at(0)
    }

    /// [`Value::to_json`] of this value, found inside `depth` containers.
    fn json_at(&self, depth: usize) -> Result<Json, TooDeep> {
        Ok(match self {
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
            Value::Array(items) => {
                let depth = deeper(depth)?;
                let items = items.borrow();
                let items = items.iter().map(|v| v.json_at(depth));
                Json::Array(items.collect::<Result<_, _>>()?)
            }
            Value::Object(map) => {
                let depth = deeper(depth)?;
                let map = map.borrow();
                let props = map
                    .iter()
                    .map(|(k, v)| Ok((k.to_string(), v.json_at(depth)?)));
                Json::Object(props.collect::<Result<_, _>>()?)
            }
            Value::Function(_) | Value::Native(_) => Json::Null,
        })
    }

    /// The compact JSON text of [`Value::to_json`] and the transfer size
    /// `edgstr_net::json_size` reports of it, from one walk with no tree in
    /// between. A result set that was never built is written straight
    /// from its cells.
    ///
    /// # Errors
    ///
    /// A value nested deeper than [`MAX_DEPTH`] — one that holds itself —
    /// has no JSON text.
    pub fn encode(&self) -> Result<(String, usize), TooDeep> {
        let mut text = String::new();
        let size = self.write_sized(&mut text, 0)?;
        Ok((text, size))
    }

    /// Append this value's compact JSON text to `out` and return its
    /// transfer size: scalars at fixed costs, strings and keys at their
    /// length, and a binary payload (or any object announcing one under a
    /// non-negative integer `$bytes`) at the payload's size. `depth` is the
    /// number of containers around this value.
    fn write_sized(&self, out: &mut String, depth: usize) -> Result<usize, TooDeep> {
        match self {
            Value::Array(items) => items.write_sized(out, deeper(depth)?),
            Value::Object(map) => {
                let depth = deeper(depth)?;
                let map = map.borrow();
                out.push('{');
                let mut size = 2;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    str::write_json(k, out);
                    out.push(':');
                    size += k.len() + 3 + v.write_sized(out, depth)?;
                }
                out.push('}');
                Ok(announced_size(map.get("$bytes"), size))
            }
            scalar => Ok(scalar.write_scalar(out)),
        }
    }

    /// [`Value::write_sized`] of anything but an array or an object.
    fn write_scalar(&self, out: &mut String) -> usize {
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
            Value::Array(_) | Value::Object(_) => unreachable!("containers are not scalars"),
        }
    }

    /// Append the text string coercion gives this value (`"" + v`,
    /// `join`, a log line): a string as itself, a container as its JSON,
    /// anything else as [`Display`](fmt::Display) writes it.
    ///
    /// # Errors
    ///
    /// A container nested deeper than [`MAX_DEPTH`] has no text.
    pub fn write_text(&self, out: &mut String) -> Result<(), TooDeep> {
        match self {
            Value::Array(_) | Value::Object(_) => self.write_sized(out, 0).map(drop),
            Value::Str(s) => {
                out.push_str(s);
                Ok(())
            }
            other => {
                write!(out, "{other}").expect("writing to a String cannot fail");
                Ok(())
            }
        }
    }

    /// [`Value::write_text`] into a new string.
    ///
    /// # Errors
    ///
    /// As for [`Value::write_text`].
    pub fn to_text(&self) -> Result<String, TooDeep> {
        let mut text = String::new();
        self.write_text(&mut text)?;
        Ok(text)
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

    /// Structural equality (by value, not by reference). Containers
    /// nested deeper than [`MAX_DEPTH`] compare unequal.
    pub fn structural_eq(&self, other: &Value) -> bool {
        self.eq_within(other, 0)
    }

    fn eq_within(&self, other: &Value, depth: usize) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Num(a), Value::Num(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Str(a), Value::Str(b)) => a == b,
            (Value::Bytes(a), Value::Bytes(b)) => a == b,
            (Value::Array(a), Value::Array(b)) => {
                let Ok(depth) = deeper(depth) else {
                    return false;
                };
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len() && a.iter().zip(b.iter()).all(|(x, y)| x.eq_within(y, depth))
            }
            (Value::Object(a), Value::Object(b)) => {
                let Ok(depth) = deeper(depth) else {
                    return false;
                };
                let (a, b) = (a.borrow(), b.borrow());
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|((ka, va), (kb, vb))| ka == kb && va.eq_within(vb, depth))
            }
            (Value::Function(a), Value::Function(b)) => Rc::ptr_eq(a, b),
            (Value::Native(a), Value::Native(b)) => a == b,
            _ => false,
        }
    }

    /// Collect the *atoms* (strings, numbers, byte-payload hashes) contained
    /// in this value. EdgStr fingerprints HTTP parameters this way to track
    /// fuzzed payload fragments through execution traces (§III-E). The walk
    /// stops at the first container nested deeper than [`MAX_DEPTH`].
    pub fn atoms(&self, out: &mut Vec<Atom>) {
        let _ = self.atoms_within(out, 0);
    }

    /// [`Value::atoms`] of this value, found inside `depth` containers.
    fn atoms_within(&self, out: &mut Vec<Atom>, depth: usize) -> Result<(), TooDeep> {
        match self {
            Value::Null | Value::Function(_) | Value::Native(_) => {}
            Value::Bool(b) => out.push(Atom::Bool(*b)),
            Value::Num(n) => out.push(Atom::Num(n.to_bits())),
            Value::Str(s) => out.push(Atom::Str(s.to_string())),
            Value::Bytes(b) => out.push(Atom::BytesHash(fnv1a(b))),
            Value::Array(items) => {
                let depth = deeper(depth)?;
                for v in items.borrow().iter() {
                    v.atoms_within(out, depth)?;
                }
            }
            Value::Object(map) => {
                let depth = deeper(depth)?;
                for v in map.borrow().values() {
                    v.atoms_within(out, depth)?;
                }
            }
        }
        Ok(())
    }
}

/// How deep [`Value::encode`], string coercion, [`Value::structural_eq`]
/// and [`Value::atoms`] follow containers into containers. No value a
/// request builds or receives comes near it; a value that holds itself
/// reaches it at once.
pub const MAX_DEPTH: usize = 1000;

/// A value nested deeper than [`MAX_DEPTH`], met while encoding it or
/// coercing it to a string: JavaScript's circular structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TooDeep;

impl fmt::Display for TooDeep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot convert a value nested deeper than {MAX_DEPTH} levels to text (circular structure?)"
        )
    }
}

impl std::error::Error for TooDeep {}

/// The depth inside one more container.
fn deeper(depth: usize) -> Result<usize, TooDeep> {
    if depth < MAX_DEPTH {
        Ok(depth + 1)
    } else {
        Err(TooDeep)
    }
}

/// An object's transfer size: what its walk counted, unless it announces
/// a binary payload under a non-negative integer `$bytes`.
fn announced_size(marker: Option<&Value>, walked: usize) -> usize {
    match marker {
        Some(Value::Num(n)) => json_int(*n)
            .and_then(|n| usize::try_from(n).ok())
            .unwrap_or(walked),
        _ => walked,
    }
}

/// An array's elements, behind one `RefCell`. An array made by
/// [`Value::result_rows`] holds its rows as cells until the first
/// [`Array::borrow`] or [`Array::borrow_mut`] builds them into row objects,
/// in place and once, so every holder of the `Rc` sees the same elements.
/// [`Array::len`] and encoding read the cells and build nothing. Any other
/// array pays one flag test per borrow.
#[derive(Debug)]
pub struct Array(RefCell<Elements>);

#[derive(Debug)]
struct Elements {
    /// The elements; while a result set's rows wait, their cells.
    items: Vec<Value>,
    /// A result set's shape while its rows wait.
    waiting: Option<Shape>,
}

/// `count` rows of one cell per key, row after row. The keys are in
/// [`Props`] order; the cells are scalars.
#[derive(Debug)]
struct Shape {
    keys: Vec<Rc<str>>,
    count: usize,
}

impl Array {
    fn new(items: Vec<Value>) -> Array {
        Array(RefCell::new(Elements {
            items,
            waiting: None,
        }))
    }

    /// The elements, built first if they are a result set's waiting rows.
    ///
    /// # Panics
    ///
    /// When the array is mutably borrowed.
    pub fn borrow(&self) -> Ref<'_, Vec<Value>> {
        let elements = self.0.borrow();
        if elements.waiting.is_none() {
            return Ref::map(elements, |e| &e.items);
        }
        drop(elements);
        drop(self.borrow_mut());
        Ref::map(self.0.borrow(), |e| &e.items)
    }

    /// The elements to mutate, built first if they are a result set's
    /// waiting rows.
    ///
    /// # Panics
    ///
    /// When the array is borrowed.
    pub fn borrow_mut(&self) -> RefMut<'_, Vec<Value>> {
        let mut elements = self.0.borrow_mut();
        if let Some(shape) = elements.waiting.take() {
            let cells = std::mem::take(&mut elements.items);
            elements.items = shape.build(cells);
        }
        RefMut::map(elements, |e| &mut e.items)
    }

    /// The number of elements; waiting rows stay waiting.
    pub fn len(&self) -> usize {
        let elements = self.0.borrow();
        match &elements.waiting {
            Some(shape) => shape.count,
            None => elements.items.len(),
        }
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether this is a result set whose rows have not been built.
    pub fn is_waiting(&self) -> bool {
        self.0.borrow().waiting.is_some()
    }

    fn write_sized(&self, out: &mut String, depth: usize) -> Result<usize, TooDeep> {
        let elements = self.0.borrow();
        if let Some(shape) = &elements.waiting {
            return Ok(shape.write_sized(&elements.items, out));
        }
        out.push('[');
        let mut size = 2;
        for (i, item) in elements.items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            size += item.write_sized(out, depth)? + 1;
        }
        out.push(']');
        Ok(size)
    }
}

impl Shape {
    /// The row objects over `cells`, sharing the keys.
    fn build(self, cells: Vec<Value>) -> Vec<Value> {
        let mut cells = cells.into_iter();
        (0..self.count)
            .map(|_| {
                let row: Props = self
                    .keys
                    .iter()
                    .map(|k| (Rc::clone(k), cells.next().expect("one cell per key")))
                    .collect();
                Value::from(row)
            })
            .collect()
    }

    /// [`Value::write_sized`] of the rows [`Shape::build`] would make of
    /// `cells`, from the cells: each key is escaped once for the set.
    fn write_sized(&self, cells: &[Value], out: &mut String) -> usize {
        let keys_size: usize = self.keys.iter().map(|k| k.len() + 3).sum();
        // every `"key":`, after the `{` or `,` that opens it, and where
        // each one ends
        let mut heads = String::with_capacity(keys_size + self.keys.len());
        let mut ends = Vec::with_capacity(self.keys.len());
        for (i, k) in self.keys.iter().enumerate() {
            heads.push(if i == 0 { '{' } else { ',' });
            str::write_json(k, &mut heads);
            heads.push(':');
            ends.push(heads.len());
        }
        let marker = self.keys.binary_search_by(|k| (**k).cmp("$bytes")).ok();
        let width = self.keys.len();
        // the keys and punctuation exactly, and a guess at the cells
        out.reserve(2 + self.count * (heads.len() + 2 + 8 * width));
        out.push('[');
        let mut size = 2;
        for r in 0..self.count {
            let row = &cells[r * width..(r + 1) * width];
            if r > 0 {
                out.push(',');
            }
            if width == 0 {
                out.push('{');
            }
            let mut row_size = 2 + keys_size;
            let mut start = 0;
            for (&end, cell) in ends.iter().zip(row) {
                out.push_str(&heads[start..end]);
                start = end;
                row_size += cell.write_scalar(out);
            }
            out.push('}');
            size += announced_size(marker.map(|m| &row[m]), row_size) + 1;
        }
        out.push(']');
        size
    }
}

/// An object's properties: the JSON map, keyed by shared strings. Its
/// pairs are sorted by the keys' bytes, no key twice, so an object encodes
/// front to back, a lookup is a binary search, and a result set's row,
/// whose columns are already in key order, is collected as one vector.
pub type Props = serde_json::Map<Rc<str>, Value>;

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
            // a value that holds itself has no text; a message naming it
            // says so instead
            Value::Array(_) | Value::Object(_) => match self.encode() {
                Ok((text, _)) => f.write_str(&text),
                Err(_) => f.write_str("<circular>"),
            },
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
            .expect("a value nested deeper than MAX_DEPTH has no JSON")
    }

    fn write_json(&self, out: &mut String) {
        // a value this deep holds itself, and `to_json` would not return
        // either
        self.write_sized(out, 0)
            .expect("a value nested deeper than MAX_DEPTH has no JSON text");
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

    /// A value shared twice but holding nothing of itself is copied twice,
    /// as ever; an object that holds itself, directly and through an
    /// array, is copied as an object that holds itself, apart from the
    /// original.
    #[test]
    fn deep_clone_keeps_cycles_and_nothing_else_shared() {
        let shared = Value::array(vec![Value::Num(1.0)]);
        let pair = Value::array(vec![shared.clone(), shared]);
        let Value::Array(copy) = pair.deep_clone() else {
            panic!("an array copies as an array");
        };
        let copy = copy.borrow();
        let (Value::Array(a), Value::Array(b)) = (&copy[0], &copy[1]) else {
            panic!("elements copy as arrays");
        };
        assert!(!Rc::ptr_eq(a, b));

        let g = Value::object([("a", Value::Num(1.0))]);
        let Value::Object(props) = &g else {
            unreachable!()
        };
        props.borrow_mut().insert("me".into(), g.clone());
        props
            .borrow_mut()
            .insert("via".into(), Value::array(vec![g.clone()]));
        let Value::Object(c) = g.deep_clone() else {
            panic!("an object copies as an object");
        };
        assert!(!Rc::ptr_eq(&c, props));
        let field = |v: &Value, key: &str| match v {
            Value::Object(o) => o.borrow()[key].clone(),
            Value::Array(a) => a.borrow()[key.parse::<usize>().unwrap()].clone(),
            _ => panic!("{key} of a scalar"),
        };
        let copy = Value::Object(Rc::clone(&c));
        for through in [field(&copy, "me"), field(&field(&copy, "via"), "0")] {
            let Value::Object(o) = through else {
                panic!("the copy holds an object");
            };
            assert!(Rc::ptr_eq(&o, &c), "the copy holds itself");
        }
        // the walks that stop at the bound stop on the copy too
        let mut atoms = Vec::new();
        copy.atoms(&mut atoms);
        assert_eq!(atoms.len(), MAX_DEPTH, "one `a` a level, then the bound");
        // break both cycles, so the test leaks nothing
        *c.borrow_mut() = Props::new();
        *props.borrow_mut() = Props::new();
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
        let j = v.to_json().unwrap();
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

    /// Two rows under keys `a` and `b`.
    fn waiting() -> Value {
        Value::result_rows(
            vec![Rc::from("a"), Rc::from("b")],
            vec![
                Value::Num(1.0),
                Value::str("x"),
                Value::Null,
                Value::str("y"),
            ],
            2,
        )
    }

    fn built() -> Value {
        Value::array(vec![
            Value::object([("a", Value::Num(1.0)), ("b", Value::str("x"))]),
            Value::object([("a", Value::Null), ("b", Value::str("y"))]),
        ])
    }

    fn is_waiting(v: &Value) -> bool {
        matches!(v, Value::Array(items) if items.is_waiting())
    }

    #[test]
    fn a_result_waits_through_length_truthiness_and_encoding() {
        let v = waiting();
        let Value::Array(items) = &v else {
            unreachable!()
        };
        assert_eq!(items.len(), 2);
        assert!(v.is_truthy());
        assert_eq!(v.encode(), built().encode());
        assert_eq!(v.to_string(), r#"[{"a":1,"b":"x"},{"a":null,"b":"y"}]"#);
        assert!(is_waiting(&v));
        // a reader builds the rows once, in place: every holder sees them
        let alias = v.clone();
        assert!(v.structural_eq(&built()));
        assert!(!is_waiting(&alias));
        let (Value::Array(a), Value::Array(b)) = (&v, &alias) else {
            unreachable!()
        };
        assert!(Rc::ptr_eq(a, b));
        let Value::Object(row) = &a.borrow()[1] else {
            panic!("a built row is an object");
        };
        row.borrow_mut().insert(Rc::from("c"), Value::Bool(true));
        assert_eq!(
            alias.to_string(),
            r#"[{"a":1,"b":"x"},{"a":null,"b":"y","c":true}]"#
        );
    }

    #[test]
    fn a_result_with_no_rows_or_no_keys_encodes_as_built() {
        let empty = Value::result_rows(vec![Rc::from("a")], vec![], 0);
        assert_eq!(empty.encode(), Ok(("[]".to_string(), 2)));
        let keyless = Value::result_rows(vec![], vec![], 2);
        assert_eq!(keyless.encode(), Ok(("[{},{}]".to_string(), 2 + 3 + 3)));
        assert!(keyless.structural_eq(&Value::array(vec![
            Value::object::<&str>([]),
            Value::object::<&str>([])
        ])));
    }

    /// A `$bytes` column sizes each row as an object announcing a payload.
    #[test]
    fn a_bytes_column_announces_each_rows_size() {
        let keys = vec![Rc::from("$bytes"), Rc::from("k")];
        let cells = vec![
            Value::Num(100.0),
            Value::Null,
            Value::Num(-1.0),
            Value::Null,
        ];
        let v = Value::result_rows(keys, cells, 2);
        let expected = Value::array(vec![
            Value::object([("$bytes", Value::Num(100.0)), ("k", Value::Null)]),
            Value::object([("$bytes", Value::Num(-1.0)), ("k", Value::Null)]),
        ]);
        assert_eq!(v.encode(), expected.encode());
        assert_eq!(
            v.encode().unwrap().1,
            2 + (100 + 1) + (2 + (6 + 3 + 8) + (1 + 3 + 4) + 1)
        );
    }

    /// `depth` arrays, one inside the next.
    fn nested(depth: usize) -> Value {
        (0..depth).fold(Value::Null, |inner, _| Value::array(vec![inner]))
    }

    #[test]
    fn nesting_past_the_bound_has_no_text_and_compares_unequal() {
        let deepest = nested(MAX_DEPTH);
        assert_eq!(deepest.encode().unwrap().1, 4 + 3 * MAX_DEPTH);
        assert!(deepest.structural_eq(&nested(MAX_DEPTH)));
        let past = nested(MAX_DEPTH + 1);
        assert_eq!(past.encode(), Err(TooDeep));
        assert_eq!(past.to_text(), Err(TooDeep));
        assert!(!past.structural_eq(&nested(MAX_DEPTH + 1)));
    }

    #[test]
    fn a_value_that_holds_itself_is_an_error_not_a_crash() {
        let a = Value::array(vec![Value::Num(1.0)]);
        let Value::Array(items) = &a else {
            unreachable!()
        };
        items.borrow_mut().push(a.clone());
        assert_eq!(a.encode(), Err(TooDeep));
        assert_eq!(a.to_text(), Err(TooDeep));
        assert!(!a.structural_eq(&a.clone()));
        // a message that names the value still renders
        assert_eq!(a.to_string(), "<circular>");
        // the cycle leaks, as any `Rc` cycle does; break it to free it
        items.borrow_mut().clear();
    }

    #[test]
    fn display_integers_without_fraction() {
        assert_eq!(Value::Num(42.0).to_string(), "42");
        assert_eq!(Value::Num(2.5).to_string(), "2.5");
    }
}
