//! `CRDT-Files`: replicated file contents (§III-G.1).
//!
//! Each file path maps to a version entry `{hash, size, data}`; whole-file
//! writes merge last-writer-wins, matching how EdgStr duplicates files
//! identified in the dynamic trace (copying or downloading, §III-C).

use crate::change::Change;
use crate::doc::{CrdtError, Doc, KeyTouch};
use crate::ids::{ActorId, VClock};
use crate::path;
use serde_json::Value as Json;

/// Replicated file store.
#[derive(Debug, Clone)]
pub struct CrdtFiles {
    doc: Doc,
}

impl CrdtFiles {
    /// Create an empty replicated file store.
    ///
    /// The `files` container is created by the deterministic genesis actor
    /// so that independent replicas share its identity and concurrent file
    /// writes union.
    pub fn new(actor: ActorId) -> Self {
        Self::from_snapshot(actor, &[])
    }

    /// Initialize from `(path, contents)` pairs; deterministic across
    /// replicas given identical input.
    pub fn from_snapshot(actor: ActorId, files: &[(String, Vec<u8>)]) -> Self {
        let mut map = serde_json::Map::new();
        for (p, data) in files {
            map.insert(p.clone(), file_entry(data));
        }
        let snapshot = serde_json::json!({ "files": Json::Object(map) });
        CrdtFiles {
            doc: Doc::from_snapshot(actor, &snapshot),
        }
    }

    /// The owning actor.
    pub fn actor(&self) -> ActorId {
        self.doc.actor()
    }

    /// This replica's change clock.
    pub fn clock(&self) -> &VClock {
        self.doc.clock()
    }

    /// Write (create or overwrite) a file.
    ///
    /// # Errors
    ///
    /// Propagates document errors.
    pub fn put_file(&mut self, file: &str, data: &[u8]) -> Result<(), CrdtError> {
        self.doc
            .put(&path!["files", file.to_string()], file_entry(data))
    }

    /// Read a file's contents.
    pub fn get_file(&self, file: &str) -> Option<Vec<u8>> {
        let entry = self.doc.get(&path!["files", file.to_string()])?;
        let hexed = entry.get("data")?.as_str()?;
        from_hex(hexed)
    }

    /// Delete a file (no-op when absent).
    ///
    /// # Errors
    ///
    /// Propagates document errors.
    pub fn delete_file(&mut self, file: &str) -> Result<(), CrdtError> {
        if self.contains(file) {
            self.doc.delete(&path!["files", file.to_string()])
        } else {
            Ok(())
        }
    }

    /// Whether `file` exists.
    pub fn contains(&self, file: &str) -> bool {
        self.doc.get(&path!["files", file.to_string()]).is_some()
    }

    /// Sorted list of file paths.
    pub fn list(&self) -> Vec<String> {
        self.doc.map_keys(&path!["files"])
    }

    /// Size in bytes of `file`, if present.
    pub fn size(&self, file: &str) -> Option<u64> {
        self.doc
            .get(&path!["files", file.to_string()])?
            .get("size")?
            .as_u64()
    }

    /// Changes this replica knows that `since` has not observed.
    pub fn get_changes(&self, since: &VClock) -> Vec<Change> {
        self.doc.get_changes(since)
    }

    /// Apply remote changes (see [`Doc::apply_changes`]); returns how many
    /// were applied and which file paths their ops touched, projected onto
    /// the `files` container (`whole` is set for anything that could not be
    /// pinned to one path).
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] on malformed changes.
    pub fn apply_changes(&mut self, changes: Vec<Change>) -> Result<(usize, KeyTouch), CrdtError> {
        let (applied, touched) = self.doc.apply_changes(changes)?;
        Ok((applied, touched.project("files")))
    }

    /// Retained change-log length (see [`Doc::history_len`]).
    pub fn history_len(&self) -> usize {
        self.doc.history_len()
    }

    /// Fold acked history at or below `frontier` into the snapshot; returns
    /// the number of changes dropped (see [`Doc::compact`]).
    pub fn compact(&mut self, frontier: &VClock) -> usize {
        self.doc.compact(frontier)
    }

    /// Serialize as snapshot + retained tail (see [`Doc::save`]).
    pub fn save(&self) -> Vec<u8> {
        self.doc.save()
    }

    /// Restore from [`CrdtFiles::save`] bytes, owned by `actor`.
    ///
    /// # Errors
    ///
    /// Propagates [`CrdtError`] from [`Doc::load`].
    pub fn load(actor: ActorId, bytes: &[u8]) -> Result<Self, CrdtError> {
        Ok(CrdtFiles {
            doc: Doc::load(actor, bytes)?,
        })
    }
}

fn file_entry(data: &[u8]) -> Json {
    serde_json::json!({
        "hash": crate::content_hash(data),
        "size": data.len(),
        "data": to_hex(data),
    })
}

fn to_hex(data: &[u8]) -> String {
    let mut s = String::with_capacity(data.len() * 2);
    for b in data {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let mut f = CrdtFiles::new(ActorId(1));
        f.put_file("model/weights.bin", &[1, 2, 3, 255]).unwrap();
        assert_eq!(f.get_file("model/weights.bin").unwrap(), vec![1, 2, 3, 255]);
        assert_eq!(f.size("model/weights.bin"), Some(4));
        assert!(f.contains("model/weights.bin"));
    }

    #[test]
    fn delete_removes() {
        let mut f = CrdtFiles::new(ActorId(1));
        f.put_file("a.txt", b"x").unwrap();
        f.delete_file("a.txt").unwrap();
        assert!(!f.contains("a.txt"));
        assert!(f.get_file("a.txt").is_none());
    }

    #[test]
    fn concurrent_writes_converge_lww() {
        let mut a = CrdtFiles::new(ActorId(1));
        let mut b = CrdtFiles::new(ActorId(2));
        a.put_file("f", b"from-a").unwrap();
        b.put_file("f", b"from-b").unwrap();
        a.apply_changes(b.get_changes(a.clock())).unwrap();
        b.apply_changes(a.get_changes(b.clock())).unwrap();
        assert_eq!(a.get_file("f"), b.get_file("f"));
    }

    #[test]
    fn snapshot_initialization_shares_identity() {
        let files = vec![("shared.bin".to_string(), vec![9u8; 32])];
        let master = CrdtFiles::from_snapshot(ActorId(1), &files);
        let mut replica = CrdtFiles::from_snapshot(ActorId(2), &files);
        let mut master = master;
        master.put_file("shared.bin", &[7u8; 16]).unwrap();
        replica
            .apply_changes(master.get_changes(replica.clock()))
            .unwrap();
        assert_eq!(replica.get_file("shared.bin").unwrap(), vec![7u8; 16]);
    }

    #[test]
    fn list_is_sorted() {
        let mut f = CrdtFiles::new(ActorId(1));
        f.put_file("b", b"1").unwrap();
        f.put_file("a", b"2").unwrap();
        assert_eq!(f.list(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn hex_round_trip_odd_rejected() {
        assert_eq!(from_hex("0aff"), Some(vec![10, 255]));
        assert_eq!(from_hex("0af"), None);
    }
}
