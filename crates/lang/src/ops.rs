//! Value operations shared by the tree-walking interpreter and the compiled
//! VM.
//!
//! Both engines must agree bit-for-bit on results *and* error messages —
//! differential tests compare full traces — so every operation the two
//! execution paths have in common lives here exactly once. Functions return
//! `Result<_, String>`; the caller attaches the statement id.

use crate::ast::{BinOp, UnOp};
use crate::value::{Props, Value};
use std::rc::Rc;

/// Apply a non-logical binary operator (`&&`/`||` are short-circuited by
/// the engines and never reach here).
///
/// # Errors
///
/// Returns the engine-visible message on a type mismatch.
pub fn binary(op: BinOp, a: &Value, b: &Value) -> Result<Value, String> {
    use BinOp::*;
    match op {
        Add => match (a, b) {
            (Value::Num(x), Value::Num(y)) => Ok(Value::Num(x + y)),
            (Value::Str(_), Value::Bytes(bb)) => {
                Ok(Value::str(format!("{a}{}", String::from_utf8_lossy(bb))))
            }
            (Value::Bytes(ab), Value::Str(_)) => {
                Ok(Value::str(format!("{}{b}", String::from_utf8_lossy(ab))))
            }
            (Value::Str(_), _) | (_, Value::Str(_)) => Ok(Value::str(format!("{a}{b}"))),
            _ => Err(format!("cannot add {a} and {b}")),
        },
        Sub | Mul | Div | Rem => match (a.as_num(), b.as_num()) {
            (Some(x), Some(y)) => Ok(Value::Num(match op {
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Rem => x % y,
                _ => unreachable!(),
            })),
            _ => Err(format!("arithmetic on non-numbers: {a}, {b}")),
        },
        Eq => Ok(Value::Bool(a.structural_eq(b))),
        NotEq => Ok(Value::Bool(!a.structural_eq(b))),
        Lt | Le | Gt | Ge => {
            let cmp = match (a, b) {
                (Value::Num(x), Value::Num(y)) => x.partial_cmp(y),
                (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
                _ => None,
            };
            let ord = cmp.ok_or_else(|| format!("cannot compare {a} and {b}"))?;
            Ok(Value::Bool(match op {
                Lt => ord == std::cmp::Ordering::Less,
                Le => ord != std::cmp::Ordering::Greater,
                Gt => ord == std::cmp::Ordering::Greater,
                Ge => ord != std::cmp::Ordering::Less,
                _ => unreachable!(),
            }))
        }
        And | Or => unreachable!("short-circuited by the engine"),
    }
}

/// Apply a unary operator.
///
/// # Errors
///
/// Negating a non-number fails.
pub fn unary(op: UnOp, a: &Value) -> Result<Value, String> {
    match op {
        UnOp::Not => Ok(Value::Bool(!a.is_truthy())),
        UnOp::Neg => match a {
            Value::Num(n) => Ok(Value::Num(-n)),
            other => Err(format!("cannot negate {other}")),
        },
    }
}

/// Read `base.field`.
///
/// # Errors
///
/// Field reads on scalars fail.
pub fn member_get(base: &Value, field: &str) -> Result<Value, String> {
    match base {
        Value::Object(map) => Ok(map.borrow().get(field).cloned().unwrap_or(Value::Null)),
        Value::Array(items) => match field {
            "length" => Ok(Value::Num(items.borrow().len() as f64)),
            _ => Ok(Value::Null),
        },
        Value::Str(s) => match field {
            "length" => Ok(Value::Num(s.chars().count() as f64)),
            _ => Ok(Value::Null),
        },
        Value::Bytes(b) => match field {
            "length" => Ok(Value::Num(b.len() as f64)),
            _ => Ok(Value::Null),
        },
        Value::Native(obj) => Ok(Value::Native(Rc::from(format!("{obj}.{field}").as_str()))),
        other => Err(format!("cannot read field '{field}' of {other}")),
    }
}

/// The element position a number names, if it names one. Any other
/// number — negative, fractional, NaN, infinite — names a property that no
/// array, string or byte payload has, so it reads `null` and a write
/// through it shows in no JSON.
fn element_index(n: f64) -> Option<usize> {
    (n >= 0.0 && n.fract() == 0.0).then_some(n as usize)
}

/// Read `base[idx]`.
///
/// # Errors
///
/// Indexing scalars fails.
pub fn index_get(base: &Value, idx: &Value) -> Result<Value, String> {
    match (base, idx) {
        (Value::Array(items), Value::Num(n)) => Ok(element_index(*n)
            .and_then(|i| items.borrow().get(i).cloned())
            .unwrap_or(Value::Null)),
        (Value::Bytes(b), Value::Num(n)) => Ok(element_index(*n)
            .and_then(|i| b.get(i))
            .map(|&byte| Value::Num(f64::from(byte)))
            .unwrap_or(Value::Null)),
        (Value::Object(map), key) => {
            let map = map.borrow();
            let found = match key {
                Value::Str(s) => map.get(s),
                other => map.get(other.to_string().as_str()),
            };
            Ok(found.cloned().unwrap_or(Value::Null))
        }
        (Value::Str(s), Value::Num(n)) => Ok(element_index(*n)
            .and_then(|i| s.chars().nth(i))
            .map(|c| Value::str(c.to_string()))
            .unwrap_or(Value::Null)),
        (other, _) => Err(format!("cannot index into {other}")),
    }
}

/// Write `base[idx] = v`. Arrays grow with `null` fill, and a number that
/// names no element position leaves them as they are; objects key by the
/// index value's string form.
///
/// # Errors
///
/// Index-assigning into anything else fails.
pub fn index_set(base: &Value, idx: &Value, v: Value) -> Result<(), String> {
    match (base, idx) {
        (Value::Array(items), Value::Num(n)) => {
            if let Some(i) = element_index(*n) {
                let mut items = items.borrow_mut();
                if i >= items.len() {
                    items.resize(i + 1, Value::Null);
                }
                items[i] = v;
            }
            Ok(())
        }
        (Value::Object(map), Value::Str(s)) => {
            set_field(&mut map.borrow_mut(), s, || Rc::clone(s), v);
            Ok(())
        }
        (Value::Object(map), key) => {
            let key = key.to_string();
            set_field(&mut map.borrow_mut(), &key, || Rc::from(key.as_str()), v);
            Ok(())
        }
        (other, _) => Err(format!("cannot index-assign into {other}")),
    }
}

/// Write `base.field = v`.
///
/// # Errors
///
/// Only objects accept field writes.
pub fn member_set(base: &Value, field: &str, v: Value) -> Result<(), String> {
    match base {
        Value::Object(map) => {
            set_field(&mut map.borrow_mut(), field, || Rc::from(field), v);
            Ok(())
        }
        other => Err(format!("cannot set field '{field}' on {other}")),
    }
}

/// Write one object field: a key the object already has is overwritten in
/// place, and only a new key asks `owned` for the `Rc<str>` to keep.
fn set_field(map: &mut Props, field: &str, owned: impl FnOnce() -> Rc<str>, v: Value) {
    match map.get_mut(field) {
        Some(slot) => *slot = v,
        None => {
            map.insert(owned(), v);
        }
    }
}

/// Result of a `new Ctor(...)` expression: either a builtin value or a
/// request to dispatch `new:<Ctor>` to the host (args handed back).
pub enum Constructed {
    Done(Value),
    Host(Vec<Value>),
}

/// Construct a builtin (`Uint8Array`, `Buffer`, `Array`, `Object`, `Map`);
/// unknown constructors are returned for host dispatch.
pub fn construct_builtin(ctor: &str, args: Vec<Value>) -> Constructed {
    match ctor {
        "Uint8Array" | "Buffer" => Constructed::Done(match args.first() {
            Some(Value::Bytes(b)) => Value::Bytes(Rc::clone(b)),
            Some(Value::Num(n)) => Value::bytes(vec![0u8; *n as usize]),
            Some(Value::Array(items)) => {
                let bytes: Vec<u8> = items
                    .borrow()
                    .iter()
                    .map(|v| v.as_num().unwrap_or(0.0) as u8)
                    .collect();
                Value::bytes(bytes)
            }
            Some(Value::Str(s)) => Value::bytes(s.as_bytes().to_vec()),
            _ => Value::bytes(Vec::new()),
        }),
        "Array" => Constructed::Done(Value::array(args)),
        "Object" | "Map" => Constructed::Done(Value::Object(Rc::default())),
        _ => Constructed::Host(args),
    }
}

/// Dispatch a *simple* method — one that needs no callback re-entry, host,
/// or scope access. Returns `None` for receivers/methods the engine itself
/// must handle: natives (host dispatch), object fields (closure call), and
/// the array iteration methods `map`/`filter`/`forEach`.
///
/// Mutating methods (`push`/`pop`) are handled here; the VM journals the
/// receiver *before* delegating.
pub fn simple_method(base: &Value, method: &str, args: &[Value]) -> Option<Result<Value, String>> {
    match base {
        Value::Native(_) | Value::Object(_) => None,
        Value::Array(items) => match method {
            "map" | "filter" | "forEach" => None,
            "push" => {
                let mut items = items.borrow_mut();
                for a in args {
                    items.push(a.clone());
                }
                Some(Ok(Value::Num(items.len() as f64)))
            }
            "pop" => Some(Ok(items.borrow_mut().pop().unwrap_or(Value::Null))),
            "join" => {
                let sep = args
                    .first()
                    .and_then(|v| v.as_str().map(|s| s.to_string()))
                    .unwrap_or_else(|| ",".to_string());
                let joined = items
                    .borrow()
                    .iter()
                    .map(|v| v.to_string())
                    .collect::<Vec<_>>()
                    .join(&sep);
                Some(Ok(Value::str(joined)))
            }
            "slice" => {
                let items = items.borrow();
                let start = args
                    .first()
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(0)
                    .min(items.len());
                let end = args
                    .get(1)
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(items.len())
                    .min(items.len());
                Some(Ok(Value::array(items[start..end.max(start)].to_vec())))
            }
            "indexOf" => {
                let target = args.first().cloned().unwrap_or(Value::Null);
                let idx = items
                    .borrow()
                    .iter()
                    .position(|v| v.structural_eq(&target))
                    .map(|i| i as f64)
                    .unwrap_or(-1.0);
                Some(Ok(Value::Num(idx)))
            }
            other => Some(Err(format!("unknown array method '{other}'"))),
        },
        Value::Str(s) => Some(match method {
            "toUpperCase" => Ok(Value::str(s.to_uppercase())),
            "toLowerCase" => Ok(Value::str(s.to_lowercase())),
            "indexOf" => {
                let needle = args.first().and_then(|v| v.as_str()).unwrap_or("");
                Ok(Value::Num(s.find(needle).map(|i| i as f64).unwrap_or(-1.0)))
            }
            "includes" => {
                let needle = args.first().and_then(|v| v.as_str()).unwrap_or("");
                Ok(Value::Bool(s.contains(needle)))
            }
            "startsWith" => {
                let needle = args.first().and_then(|v| v.as_str()).unwrap_or("");
                Ok(Value::Bool(s.starts_with(needle)))
            }
            "split" => {
                let sep = args.first().and_then(|v| v.as_str()).unwrap_or("");
                let parts: Vec<Value> = if sep.is_empty() {
                    s.chars().map(|c| Value::str(c.to_string())).collect()
                } else {
                    s.split(sep).map(Value::str).collect()
                };
                Ok(Value::array(parts))
            }
            "substring" => {
                let start = args
                    .first()
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(0)
                    .min(s.len());
                let end = args
                    .get(1)
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(s.len())
                    .min(s.len());
                Ok(Value::str(&s[start..end.max(start)]))
            }
            "trim" => Ok(Value::str(s.trim())),
            "charCodeAt" => {
                let i = args
                    .first()
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(0);
                Ok(s.chars()
                    .nth(i)
                    .map(|c| Value::Num(c as u32 as f64))
                    .unwrap_or(Value::Null))
            }
            other => Err(format!("unknown string method '{other}'")),
        }),
        Value::Bytes(b) => Some(match method {
            "toString" => Ok(Value::str(String::from_utf8_lossy(b))),
            "slice" => {
                let start = args
                    .first()
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(0)
                    .min(b.len());
                let end = args
                    .get(1)
                    .and_then(Value::as_num)
                    .map(|n| n as usize)
                    .unwrap_or(b.len())
                    .min(b.len());
                Ok(Value::bytes(b[start..end.max(start)].to_vec()))
            }
            other => Err(format!("unknown bytes method '{other}'")),
        }),
        other => Some(Err(format!("cannot call method '{method}' on {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_add_concatenates_and_errors() {
        let v = binary(BinOp::Add, &Value::str("a"), &Value::Num(1.0)).unwrap();
        assert_eq!(v, Value::str("a1"));
        let e = binary(BinOp::Add, &Value::Null, &Value::Bool(true)).unwrap_err();
        assert_eq!(e, "cannot add null and true");
    }

    #[test]
    fn index_set_grows_arrays() {
        let a = Value::array(vec![]);
        index_set(&a, &Value::Num(2.0), Value::Num(9.0)).unwrap();
        assert_eq!(member_get(&a, "length").unwrap(), Value::Num(3.0));
    }

    /// `a[-1]` used to read `a[0]`, `a[-1] = 9` overwrote it and `a[1.5]`
    /// read `a[1]`: the index was cast to an unsigned integer.
    #[test]
    fn only_non_negative_integers_index_elements() {
        let a = Value::array(vec![Value::Num(1.0), Value::Num(2.0)]);
        let s = Value::str("ab");
        let b = Value::bytes(vec![7, 8]);
        for bad in [-1.0, 1.5, -0.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let i = Value::Num(bad);
            assert_eq!(index_get(&a, &i).unwrap(), Value::Null, "a[{bad}]");
            assert_eq!(index_get(&s, &i).unwrap(), Value::Null, "s[{bad}]");
            assert_eq!(index_get(&b, &i).unwrap(), Value::Null, "b[{bad}]");
            index_set(&a, &i, Value::Num(9.0)).unwrap();
        }
        assert_eq!(a.to_string(), "[1,2]");
        // positions still index, -0 as 0
        assert_eq!(index_get(&a, &Value::Num(-0.0)).unwrap(), Value::Num(1.0));
        assert_eq!(index_get(&a, &Value::Num(1.0)).unwrap(), Value::Num(2.0));
        assert_eq!(index_get(&s, &Value::Num(1.0)).unwrap(), Value::str("b"));
        assert_eq!(index_get(&b, &Value::Num(1.0)).unwrap(), Value::Num(8.0));
    }

    #[test]
    fn object_writes_keep_the_key_they_have_and_reuse_the_one_offered() {
        let o = Value::Object(Rc::default());
        let key: Rc<str> = Rc::from("k");
        index_set(&o, &Value::Str(Rc::clone(&key)), Value::Num(1.0)).unwrap();
        member_set(&o, "k", Value::Num(2.0)).unwrap();
        index_set(&o, &Value::str("k"), Value::Num(3.0)).unwrap();
        index_set(&o, &Value::Num(7.0), Value::Num(4.0)).unwrap();
        member_set(&o, "m", Value::Num(5.0)).unwrap();
        let Value::Object(map) = &o else {
            unreachable!()
        };
        let map = map.borrow();
        let (held, v) = map.get_key_value("k").unwrap();
        assert!(
            Rc::ptr_eq(held, &key),
            "the string index's own Rc is the key"
        );
        assert_eq!(*v, Value::Num(3.0));
        assert_eq!(map.len(), 3);
        assert_eq!(index_get(&o, &Value::str("k")).unwrap(), Value::Num(3.0));
        assert_eq!(index_get(&o, &Value::Num(7.0)).unwrap(), Value::Num(4.0));
        assert_eq!(index_get(&o, &Value::str("7")).unwrap(), Value::Num(4.0));
        assert_eq!(member_get(&o, "m").unwrap(), Value::Num(5.0));
        assert_eq!(index_get(&o, &Value::str("none")).unwrap(), Value::Null);
    }

    #[test]
    fn simple_method_defers_engine_cases() {
        assert!(simple_method(&Value::Native("db".into()), "query", &[]).is_none());
        assert!(simple_method(&Value::Object(Rc::default()), "m", &[]).is_none());
        assert!(simple_method(&Value::array(vec![]), "map", &[]).is_none());
        assert!(simple_method(&Value::array(vec![]), "pop", &[]).is_some());
    }

    #[test]
    fn construct_builtin_uint8array_variants() {
        match construct_builtin("Uint8Array", vec![Value::Num(3.0)]) {
            Constructed::Done(v) => assert_eq!(v.as_bytes(), Some(&[0u8, 0, 0][..])),
            Constructed::Host(_) => panic!("builtin expected"),
        }
        assert!(matches!(
            construct_builtin("Widget", vec![]),
            Constructed::Host(_)
        ));
    }
}
