//! Tests of `CRDT-Files`: a [`crate::Doc`] keyed by path whose registers
//! hold each file's bytes ([`crate::Value::File`]).

#[cfg(test)]
mod tests {
    use crate::{ActorId, Doc, Value};

    fn file(bytes: &[u8]) -> Value {
        Value::File(bytes.into())
    }

    fn pull(dst: &mut Doc, src: &Doc) {
        let base = dst.clock().clone();
        let changes = src.get_changes(&base);
        dst.apply_changes(&base, src.clock(), changes).unwrap();
    }

    #[test]
    fn put_get_round_trip() {
        let mut f = Doc::new(ActorId(1));
        f.put("model/weights.bin", file(&[1, 2, 3, 255]));
        let held = f.get("model/weights.bin").and_then(Value::as_file);
        assert_eq!(held, Some(&[1, 2, 3, 255][..]));
    }

    #[test]
    fn delete_removes() {
        let mut f = Doc::new(ActorId(1));
        f.put("a.txt", file(b"x"));
        f.delete("a.txt");
        assert!(f.get("a.txt").is_none());
        assert!(f.is_empty());
    }

    #[test]
    fn concurrent_writes_converge_lww() {
        let mut a = Doc::new(ActorId(1));
        let mut b = Doc::new(ActorId(2));
        a.put("f", file(b"from-a"));
        b.put("f", file(b"from-b"));
        pull(&mut a, &b);
        pull(&mut b, &a);
        assert_eq!(a.get("f"), b.get("f"));
        assert_eq!(a.get("f"), Some(&file(b"from-b")));
    }

    #[test]
    fn snapshot_initialization_shares_identity() {
        let files = [("shared.bin".to_string(), file(&[9u8; 32]))];
        let mut master = Doc::from_snapshot(ActorId(1), files.clone());
        let mut replica = Doc::from_snapshot(ActorId(2), files);
        master.put("shared.bin", file(&[7u8; 16]));
        pull(&mut replica, &master);
        assert_eq!(replica.get("shared.bin"), Some(&file(&[7u8; 16])));
        assert_eq!(replica.len(), 1, "the write superseded the snapshot's file");
    }

    #[test]
    fn list_is_sorted() {
        let mut f = Doc::new(ActorId(1));
        f.put("b", file(b"1"));
        f.put("a", file(b"2"));
        let paths: Vec<&str> = f.entries().map(|(p, _)| p).collect();
        assert_eq!(paths, ["a", "b"]);
    }
}
