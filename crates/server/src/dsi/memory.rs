//! In-memory DSI backend: the default for tests, benchmarks and the
//! in-process simulator (it stands in for HPSS-style non-POSIX stores —
//! anything addressable by (path, offset) works behind the DSI).

use super::{DirEntry, Dsi};
use crate::error::{Result, ServerError};
use crate::users::UserContext;
use ig_obs::sync::RwLock;
use std::collections::{BTreeMap, BTreeSet};

/// An in-memory filesystem.
#[derive(Default)]
pub struct MemDsi {
    files: RwLock<BTreeMap<String, Vec<u8>>>,
    dirs: RwLock<BTreeSet<String>>,
}

impl MemDsi {
    /// Empty store with just the root directory.
    pub fn new() -> Self {
        let dsi = MemDsi::default();
        dsi.dirs.write().insert("/".to_string());
        dsi
    }

    /// Convenience: create a file with content, creating parent dirs
    /// (superuser; used to stage test fixtures).
    pub fn put(&self, path: &str, data: &[u8]) {
        let root = UserContext::superuser();
        let p = root.normalize(path).expect("valid path");
        self.ensure_parents(&p);
        self.files.write().insert(p, data.to_vec());
    }

    fn ensure_parents(&self, path: &str) {
        // Fast path: the immediate parent already exists, and every dir
        // is only ever inserted together with its ancestors, so the whole
        // chain does. Block-at-offset writes hit this on every block.
        let parent = match path.rfind('/') {
            Some(0) | None => "/",
            Some(i) => &path[..i],
        };
        if self.dirs.read().contains(parent) {
            return;
        }
        let mut dirs = self.dirs.write();
        let mut cur = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let next = format!("{cur}/{comp}");
            // Don't add the leaf itself; only parents.
            if next != path {
                dirs.insert(next.clone());
            }
            cur = next;
        }
        dirs.insert("/".to_string());
    }

}

impl Dsi for MemDsi {
    fn read(&self, user: &UserContext, path: &str, offset: u64, len: usize) -> Result<Vec<u8>> {
        let p = user.resolve_ref(path)?;
        let files = self.files.read();
        let data = files
            .get(p.as_ref())
            .ok_or_else(|| ServerError::Storage(format!("no such file: {p}")))?;
        let start = (offset as usize).min(data.len());
        let end = (start + len).min(data.len());
        Ok(data[start..end].to_vec())
    }

    fn write(&self, user: &UserContext, path: &str, offset: u64, data: &[u8]) -> Result<()> {
        /// A new byte is written once: zeros fill only a gap before
        /// `offset`, what overlaps the file is overwritten, the rest appended.
        fn splice(file: &mut Vec<u8>, offset: usize, data: &[u8]) {
            if file.len() < offset {
                file.resize(offset, 0);
            }
            let overlap = (file.len() - offset).min(data.len());
            file[offset..offset + overlap].copy_from_slice(&data[..overlap]);
            file.extend_from_slice(&data[overlap..]);
        }
        let p = user.resolve_ref(path)?;
        if self.dirs.read().contains(p.as_ref()) {
            return Err(ServerError::Storage(format!("{p} is a directory")));
        }
        self.ensure_parents(&p);
        let mut files = self.files.write();
        // Steady-state block writes extend an existing file: no key
        // allocation, just the (amortized) file growth.
        if let Some(file) = files.get_mut(p.as_ref()) {
            splice(file, offset as usize, data);
        } else {
            splice(files.entry(p.into_owned()).or_default(), offset as usize, data);
        }
        Ok(())
    }

    fn size(&self, user: &UserContext, path: &str) -> Result<u64> {
        let p = user.resolve_ref(path)?;
        self.files
            .read()
            .get(p.as_ref())
            .map(|d| d.len() as u64)
            .ok_or_else(|| ServerError::Storage(format!("no such file: {p}")))
    }

    fn truncate(&self, user: &UserContext, path: &str, len: u64) -> Result<()> {
        let p = user.resolve(path)?;
        self.ensure_parents(&p);
        let mut files = self.files.write();
        files.entry(p).or_default().resize(len as usize, 0);
        Ok(())
    }

    fn delete(&self, user: &UserContext, path: &str) -> Result<()> {
        let p = user.resolve(path)?;
        self.files
            .write()
            .remove(&p)
            .map(|_| ())
            .ok_or_else(|| ServerError::Storage(format!("no such file: {p}")))
    }

    fn list(&self, user: &UserContext, path: &str) -> Result<Vec<DirEntry>> {
        let p = user.resolve(path)?;
        let dirs = self.dirs.read();
        let files = self.files.read();
        if !dirs.contains(&p) {
            return Err(ServerError::Storage(format!("no such directory: {p}")));
        }
        let prefix = if p == "/" { "/".to_string() } else { format!("{p}/") };
        let mut out = Vec::new();
        for (fp, data) in files.iter() {
            if let Some(rest) = fp.strip_prefix(&prefix) {
                if !rest.is_empty() && !rest.contains('/') {
                    out.push(DirEntry { name: rest.to_string(), size: data.len() as u64, is_dir: false });
                }
            }
        }
        for dp in dirs.iter() {
            if let Some(rest) = dp.strip_prefix(&prefix) {
                if !rest.is_empty() && !rest.contains('/') {
                    out.push(DirEntry { name: rest.to_string(), size: 0, is_dir: true });
                }
            }
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        Ok(out)
    }

    fn mkdir(&self, user: &UserContext, path: &str) -> Result<()> {
        let p = user.resolve(path)?;
        self.ensure_parents(&p);
        self.dirs.write().insert(p);
        Ok(())
    }

    fn rmdir(&self, user: &UserContext, path: &str) -> Result<()> {
        let p = user.resolve(path)?;
        if p == "/" {
            return Err(ServerError::Storage("cannot remove root".into()));
        }
        // Must be empty.
        let prefix = format!("{p}/");
        if self.files.read().keys().any(|f| f.starts_with(&prefix))
            || self.dirs.read().iter().any(|d| d.starts_with(&prefix))
        {
            return Err(ServerError::Storage(format!("directory not empty: {p}")));
        }
        self.dirs
            .write()
            .remove(&p)
            .then_some(())
            .ok_or_else(|| ServerError::Storage(format!("no such directory: {p}")))
    }

    fn exists(&self, user: &UserContext, path: &str) -> bool {
        match user.resolve_ref(path) {
            Ok(p) => {
                self.files.read().contains_key(p.as_ref()) || self.dirs.read().contains(p.as_ref())
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> UserContext {
        UserContext::superuser()
    }

    #[test]
    fn write_read_roundtrip() {
        let dsi = MemDsi::new();
        let u = root();
        dsi.write(&u, "/data/file.bin", 0, b"hello world").unwrap();
        assert_eq!(dsi.size(&u, "/data/file.bin").unwrap(), 11);
        assert_eq!(dsi.read(&u, "/data/file.bin", 0, 100).unwrap(), b"hello world");
        assert_eq!(dsi.read(&u, "/data/file.bin", 6, 5).unwrap(), b"world");
        assert_eq!(dsi.read(&u, "/data/file.bin", 100, 5).unwrap(), b"");
    }

    #[test]
    fn offset_writes_zero_fill() {
        let dsi = MemDsi::new();
        let u = root();
        dsi.write(&u, "/f", 5, b"xyz").unwrap();
        assert_eq!(dsi.size(&u, "/f").unwrap(), 8);
        assert_eq!(dsi.read(&u, "/f", 0, 8).unwrap(), b"\0\0\0\0\0xyz");
        // Out-of-order block writes (MODE E reassembly pattern).
        dsi.write(&u, "/g", 4, b"5678").unwrap();
        dsi.write(&u, "/g", 0, b"1234").unwrap();
        assert_eq!(dsi.read(&u, "/g", 0, 8).unwrap(), b"12345678");
        // A write that straddles the end overwrites and appends; one past
        // the new end after it zero-fills only the gap between them.
        dsi.write(&u, "/g", 6, b"abcd").unwrap();
        assert_eq!(dsi.read(&u, "/g", 0, 16).unwrap(), b"123456abcd");
        dsi.write(&u, "/g", 12, b"Z").unwrap();
        assert_eq!(dsi.read(&u, "/g", 0, 16).unwrap(), b"123456abcd\0\0Z");
        dsi.write(&u, "/g", 13, b"").unwrap();
        assert_eq!(dsi.size(&u, "/g").unwrap(), 13);
    }

    #[test]
    fn missing_file_errors() {
        let dsi = MemDsi::new();
        let u = root();
        assert!(dsi.read(&u, "/nope", 0, 1).is_err());
        assert!(dsi.size(&u, "/nope").is_err());
        assert!(dsi.delete(&u, "/nope").is_err());
    }

    #[test]
    fn delete_and_truncate() {
        let dsi = MemDsi::new();
        let u = root();
        dsi.put("/a/b.txt", b"abc");
        dsi.truncate(&u, "/a/b.txt", 1).unwrap();
        assert_eq!(dsi.read(&u, "/a/b.txt", 0, 10).unwrap(), b"a");
        dsi.truncate(&u, "/a/b.txt", 4).unwrap();
        assert_eq!(dsi.size(&u, "/a/b.txt").unwrap(), 4);
        dsi.delete(&u, "/a/b.txt").unwrap();
        assert!(!dsi.exists(&u, "/a/b.txt"));
    }

    #[test]
    fn listings() {
        let dsi = MemDsi::new();
        let u = root();
        dsi.put("/d/one.txt", b"1");
        dsi.put("/d/two.txt", b"22");
        dsi.mkdir(&u, "/d/sub").unwrap();
        let entries = dsi.list(&u, "/d").unwrap();
        let names: Vec<&str> = entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["one.txt", "sub", "two.txt"]);
        assert!(entries.iter().find(|e| e.name == "sub").unwrap().is_dir);
        assert_eq!(entries.iter().find(|e| e.name == "two.txt").unwrap().size, 2);
        // Root listing sees /d.
        let rootl = dsi.list(&u, "/").unwrap();
        assert!(rootl.iter().any(|e| e.name == "d" && e.is_dir));
        assert!(dsi.list(&u, "/nodir").is_err());
    }

    #[test]
    fn rmdir_semantics() {
        let dsi = MemDsi::new();
        let u = root();
        dsi.mkdir(&u, "/x/y").unwrap();
        assert!(dsi.rmdir(&u, "/x").is_err()); // not empty
        dsi.rmdir(&u, "/x/y").unwrap();
        dsi.rmdir(&u, "/x").unwrap();
        assert!(dsi.rmdir(&u, "/x").is_err()); // gone
        assert!(dsi.rmdir(&u, "/").is_err());
    }

    #[test]
    fn user_confinement_enforced() {
        let dsi = MemDsi::new();
        dsi.put("/home/alice/mine.txt", b"a");
        dsi.put("/home/bob/theirs.txt", b"b");
        let alice = UserContext::user("alice");
        assert_eq!(dsi.read(&alice, "mine.txt", 0, 10).unwrap(), b"a");
        assert!(dsi.read(&alice, "/home/bob/theirs.txt", 0, 10).is_err());
        assert!(dsi.write(&alice, "/home/bob/evil.txt", 0, b"x").is_err());
        assert!(!dsi.exists(&alice, "/home/bob/theirs.txt"));
    }

    #[test]
    fn write_to_directory_rejected() {
        let dsi = MemDsi::new();
        let u = root();
        dsi.mkdir(&u, "/d").unwrap();
        assert!(dsi.write(&u, "/d", 0, b"x").is_err());
    }
}
