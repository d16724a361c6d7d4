//! Streamed directory framing — "tar over MODE E".
//!
//! The paper (§II-A) credits pipelining with making lots-of-small-files
//! datasets usable; the complementary data-channel trick is to send an
//! entire directory tree over **one** MODE E data connection instead of
//! paying a control round trip plus data-channel setup (and a DCAU
//! handshake) per file. This module defines that framing, modeled on
//! qcp's per-file header/trailer session stream:
//!
//! ```text
//! entry   := header payload? trailer?
//! header  := "IGD1" kind(1) mode(4 BE) path_len(2 BE) path size(8 BE)
//! payload := size bytes                      (files only; dirs have none)
//! trailer := "IGT1" sha256(payload)(32)      (files only)
//! stream  := entry* end
//! end     := "IGE1" entry_count(8 BE)
//! ```
//!
//! * `kind` is 0 for a regular file, 1 for a directory.
//! * `path` is a `/`-separated **relative** path (UTF-8, no `.`/`..`/empty
//!   components) under the transfer root.
//! * Entries are emitted in sorted depth-first pre-order, parents before
//!   children, so any byte-contiguous prefix of the stream decodes to a
//!   set of *complete* entries — that is what makes file-granular resume
//!   work: after a fault, the receiver counts its decodable prefix and the
//!   sender restarts at entry `n`, not byte zero.
//! * The end marker carries the entry count so a receiver can tell a
//!   complete stream from one that lost its tail.
//!
//! The stream rides inside ordinary MODE E blocks with sequential offsets,
//! so parallel streams, restart markers and chaos-fault reassembly all
//! work unchanged underneath it.

use crate::error::{ProtocolError, Result};
use ig_crypto::Sha256;

/// Entry-header magic.
pub const HEADER_MAGIC: [u8; 4] = *b"IGD1";
/// File-trailer magic.
pub const TRAILER_MAGIC: [u8; 4] = *b"IGT1";
/// Stream-end magic.
pub const END_MAGIC: [u8; 4] = *b"IGE1";

/// Fixed bytes of an entry header before the variable-length path:
/// magic(4) + kind(1) + mode(4) + path_len(2).
pub const HEADER_FIXED_LEN: usize = 11;
/// Trailing size field after the path.
const SIZE_LEN: usize = 8;
/// Trailer: magic(4) + SHA-256(32).
pub const TRAILER_LEN: usize = 36;
/// End marker: magic(4) + entry_count(8).
pub const END_LEN: usize = 12;

/// Largest single file the decoder will buffer (the sender streams, the
/// decoder holds one file at a time). Generous for the small-file regime
/// this framing targets; a corrupt length field fails fast instead of
/// asking for an absurd allocation.
pub const MAX_FILE_SIZE: u64 = 1 << 30;
/// Longest allowed relative path (also bounds the u16 length field).
pub const MAX_PATH_LEN: usize = 4096;

/// One entry's metadata as carried in its header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamEntry {
    /// Relative path under the transfer root, `/`-separated.
    pub path: String,
    /// Directory (true) or regular file (false).
    pub is_dir: bool,
    /// Unix permission bits (advisory; `MemDsi` ignores them).
    pub mode: u32,
    /// Payload byte count; always 0 for directories.
    pub size: u64,
}

impl StreamEntry {
    /// A regular file entry with default mode 0644.
    pub fn file(path: impl Into<String>, size: u64) -> Self {
        StreamEntry { path: path.into(), is_dir: false, mode: 0o644, size }
    }

    /// A directory entry with default mode 0755.
    pub fn dir(path: impl Into<String>) -> Self {
        StreamEntry { path: path.into(), is_dir: true, mode: 0o755, size: 0 }
    }
}

/// Reject paths that could escape the transfer root or are unencodable.
pub fn validate_path(path: &str) -> Result<()> {
    if path.is_empty() {
        return Err(ProtocolError::BadStream("empty entry path".into()));
    }
    if path.len() > MAX_PATH_LEN {
        return Err(ProtocolError::BadStream(format!(
            "entry path longer than {MAX_PATH_LEN} bytes"
        )));
    }
    if path.starts_with('/') {
        return Err(ProtocolError::BadStream(format!("absolute entry path {path:?}")));
    }
    if path.contains('\0') {
        return Err(ProtocolError::BadStream("NUL byte in entry path".into()));
    }
    for comp in path.split('/') {
        if comp.is_empty() || comp == "." || comp == ".." {
            return Err(ProtocolError::BadStream(format!(
                "illegal path component {comp:?} in {path:?}"
            )));
        }
    }
    Ok(())
}

/// Encode an entry header. The caller must follow a file header with
/// exactly `size` payload bytes and then [`encode_trailer`].
pub fn encode_header(entry: &StreamEntry) -> Result<Vec<u8>> {
    validate_path(&entry.path)?;
    if entry.is_dir && entry.size != 0 {
        return Err(ProtocolError::BadStream(format!(
            "directory entry {:?} with nonzero size",
            entry.path
        )));
    }
    if entry.size > MAX_FILE_SIZE {
        return Err(ProtocolError::BadStream(format!(
            "entry {:?} larger than MAX_FILE_SIZE",
            entry.path
        )));
    }
    let path = entry.path.as_bytes();
    let mut out = Vec::with_capacity(HEADER_FIXED_LEN + path.len() + SIZE_LEN);
    out.extend_from_slice(&HEADER_MAGIC);
    out.push(u8::from(entry.is_dir));
    out.extend_from_slice(&entry.mode.to_be_bytes());
    out.extend_from_slice(&(path.len() as u16).to_be_bytes());
    out.extend_from_slice(path);
    out.extend_from_slice(&entry.size.to_be_bytes());
    Ok(out)
}

/// Bytes one entry takes in the stream: its header and, for a file of
/// `file_size` bytes, the payload and trailer — so a sender can announce a
/// stream's length before encoding it.
pub fn framed_len(path: &str, file_size: Option<u64>) -> u64 {
    (HEADER_FIXED_LEN + path.len() + SIZE_LEN) as u64
        + file_size.map_or(0, |size| size + TRAILER_LEN as u64)
}

/// Encode a file trailer from the payload's SHA-256 digest.
pub fn encode_trailer(digest: &[u8; 32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(TRAILER_LEN);
    out.extend_from_slice(&TRAILER_MAGIC);
    out.extend_from_slice(digest);
    out
}

/// Encode the stream-end marker carrying the total entry count.
pub fn encode_end(entry_count: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(END_LEN);
    out.extend_from_slice(&END_MAGIC);
    out.extend_from_slice(&entry_count.to_be_bytes());
    out
}

/// Encode a whole tree in one buffer — convenience for tests and small
/// senders. `items` must already be in the pre-order the receiver expects
/// (directories before their contents); file entries carry their payload.
pub fn encode_tree(items: &[(StreamEntry, Vec<u8>)]) -> Result<Vec<u8>> {
    let mut out = Vec::new();
    for (entry, data) in items {
        if !entry.is_dir && entry.size != data.len() as u64 {
            return Err(ProtocolError::BadStream(format!(
                "entry {:?} declares {} bytes but carries {}",
                entry.path,
                entry.size,
                data.len()
            )));
        }
        out.extend_from_slice(&encode_header(entry)?);
        if !entry.is_dir {
            out.extend_from_slice(data);
            out.extend_from_slice(&encode_trailer(&Sha256::digest(data)));
        }
    }
    out.extend_from_slice(&encode_end(items.len() as u64));
    Ok(out)
}

/// A decoded item emitted by [`DirStreamDecoder::push`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DirEvent {
    /// A directory entry.
    Dir(StreamEntry),
    /// A complete, checksum-verified file.
    File(StreamEntry, Vec<u8>),
    /// The end marker; `entries` is the sender's total count.
    End {
        /// Total entries the sender claims to have streamed.
        entries: u64,
    },
}

#[derive(Debug)]
enum DecodeState {
    /// Waiting for an entry header or the end marker.
    Frame,
    /// Buffering a file payload + trailer.
    Body { entry: StreamEntry },
}

/// Incremental decoder: feed byte chunks in order, get complete entries
/// out. Only ever buffers one in-flight file, so memory is bounded by the
/// largest file, not the tree.
///
/// `push` is infallible on purpose: a chunk can complete several good
/// entries *and then* hit a framing violation, and the good entries must
/// still reach the caller — they are exactly the file-granular resume
/// point. The violation is reported by [`DirStreamDecoder::error`] and
/// poisons the decoder (later pushes are no-ops), because after a bad
/// magic there is no way to resynchronize on this framing.
#[derive(Debug)]
pub struct DirStreamDecoder {
    buf: Vec<u8>,
    state: DecodeState,
    entries_done: u64,
    finished: bool,
    poisoned: Option<ProtocolError>,
}

impl Default for DirStreamDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl DirStreamDecoder {
    /// Fresh decoder at entry 0.
    pub fn new() -> Self {
        DirStreamDecoder {
            buf: Vec::new(),
            state: DecodeState::Frame,
            entries_done: 0,
            finished: false,
            poisoned: None,
        }
    }

    /// Complete entries decoded so far — the file-granular resume point.
    pub fn entries_done(&self) -> u64 {
        self.entries_done
    }

    /// True once the end marker arrived with a matching count.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Bytes buffered but not yet decodable into a complete item.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The framing violation that poisoned this decoder, if any.
    pub fn error(&self) -> Option<&ProtocolError> {
        self.poisoned.as_ref()
    }

    /// Feed the next chunk; returns every item completed by it (possibly
    /// including items decoded before a violation — check [`Self::error`]
    /// after the stream ends).
    pub fn push(&mut self, bytes: &[u8]) -> Vec<DirEvent> {
        if self.poisoned.is_some() {
            return Vec::new();
        }
        self.buf.extend_from_slice(bytes);
        let mut events = Vec::new();
        if let Err(err) = self.drain(&mut events) {
            self.poisoned = Some(err);
        }
        events
    }

    fn drain(&mut self, events: &mut Vec<DirEvent>) -> Result<()> {
        loop {
            match &self.state {
                DecodeState::Frame => {
                    if self.finished {
                        if !self.buf.is_empty() {
                            return Err(ProtocolError::BadStream(format!(
                                "{} trailing bytes after end marker",
                                self.buf.len()
                            )));
                        }
                        return Ok(());
                    }
                    if self.buf.len() < 4 {
                        return Ok(());
                    }
                    let magic: [u8; 4] = self.buf[..4].try_into().expect("len checked");
                    match magic {
                        END_MAGIC => {
                            if self.buf.len() < END_LEN {
                                return Ok(());
                            }
                            let claimed = u64::from_be_bytes(
                                self.buf[4..END_LEN].try_into().expect("len checked"),
                            );
                            if claimed != self.entries_done {
                                return Err(ProtocolError::BadStream(format!(
                                    "end marker claims {claimed} entries, decoded {}",
                                    self.entries_done
                                )));
                            }
                            self.buf.drain(..END_LEN);
                            self.finished = true;
                            events.push(DirEvent::End { entries: claimed });
                        }
                        HEADER_MAGIC => {
                            if self.buf.len() < HEADER_FIXED_LEN {
                                return Ok(());
                            }
                            let kind = self.buf[4];
                            let mode = u32::from_be_bytes(
                                self.buf[5..9].try_into().expect("len checked"),
                            );
                            let path_len = u16::from_be_bytes(
                                self.buf[9..11].try_into().expect("len checked"),
                            ) as usize;
                            if path_len > MAX_PATH_LEN {
                                return Err(ProtocolError::BadStream(format!(
                                    "header path length {path_len} exceeds {MAX_PATH_LEN}"
                                )));
                            }
                            let need = HEADER_FIXED_LEN + path_len + SIZE_LEN;
                            if self.buf.len() < need {
                                return Ok(());
                            }
                            let path = std::str::from_utf8(
                                &self.buf[HEADER_FIXED_LEN..HEADER_FIXED_LEN + path_len],
                            )
                            .map_err(|_| {
                                ProtocolError::BadStream("entry path is not UTF-8".into())
                            })?
                            .to_string();
                            validate_path(&path)?;
                            let size = u64::from_be_bytes(
                                self.buf[HEADER_FIXED_LEN + path_len..need]
                                    .try_into()
                                    .expect("len checked"),
                            );
                            let is_dir = match kind {
                                0 => false,
                                1 => true,
                                other => {
                                    return Err(ProtocolError::BadStream(format!(
                                        "unknown entry kind {other} for {path:?}"
                                    )))
                                }
                            };
                            if is_dir && size != 0 {
                                return Err(ProtocolError::BadStream(format!(
                                    "directory entry {path:?} with nonzero size"
                                )));
                            }
                            if size > MAX_FILE_SIZE {
                                return Err(ProtocolError::BadStream(format!(
                                    "entry {path:?} larger than MAX_FILE_SIZE"
                                )));
                            }
                            self.buf.drain(..need);
                            let entry = StreamEntry { path, is_dir, mode, size };
                            if is_dir {
                                self.entries_done += 1;
                                events.push(DirEvent::Dir(entry));
                            } else {
                                self.state = DecodeState::Body { entry };
                            }
                        }
                        other => {
                            return Err(ProtocolError::BadStream(format!(
                                "bad frame magic {other:02x?}"
                            )));
                        }
                    }
                }
                DecodeState::Body { entry } => {
                    let need = entry.size as usize + TRAILER_LEN;
                    if self.buf.len() < need {
                        return Ok(());
                    }
                    let payload: Vec<u8> = self.buf[..entry.size as usize].to_vec();
                    let trailer = &self.buf[entry.size as usize..need];
                    if trailer[..4] != TRAILER_MAGIC {
                        return Err(ProtocolError::BadStream(format!(
                            "bad trailer magic {:02x?} for {:?}",
                            &trailer[..4],
                            entry.path
                        )));
                    }
                    let want: [u8; 32] = trailer[4..].try_into().expect("len checked");
                    let got = Sha256::digest(&payload);
                    if want != got {
                        return Err(ProtocolError::BadStream(format!(
                            "checksum mismatch for {:?}",
                            entry.path
                        )));
                    }
                    let entry = entry.clone();
                    self.buf.drain(..need);
                    self.state = DecodeState::Frame;
                    self.entries_done += 1;
                    events.push(DirEvent::File(entry, payload));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> Vec<(StreamEntry, Vec<u8>)> {
        vec![
            (StreamEntry::dir("a"), vec![]),
            (StreamEntry::file("a/one.bin", 5), b"hello".to_vec()),
            (StreamEntry::dir("a/empty"), vec![]),
            (StreamEntry::file("a/zero", 0), vec![]),
            (StreamEntry::file("b.dat", 3), b"xyz".to_vec()),
        ]
    }

    fn decode_all(bytes: &[u8], chunk: usize) -> (DirStreamDecoder, Vec<DirEvent>) {
        let mut dec = DirStreamDecoder::new();
        let mut events = Vec::new();
        for piece in bytes.chunks(chunk.max(1)) {
            events.extend(dec.push(piece));
        }
        (dec, events)
    }

    #[test]
    fn framed_len_is_what_the_encoders_emit() {
        let announced: u64 = tree()
            .iter()
            .map(|(entry, _)| framed_len(&entry.path, (!entry.is_dir).then_some(entry.size)))
            .sum();
        assert_eq!(announced + END_LEN as u64, encode_tree(&tree()).unwrap().len() as u64);
    }

    #[test]
    fn roundtrip_whole_and_byte_at_a_time() {
        let wire = encode_tree(&tree()).unwrap();
        for chunk in [wire.len(), 1, 7] {
            let (dec, events) = decode_all(&wire, chunk);
            assert!(dec.error().is_none());
            assert!(dec.finished());
            assert_eq!(dec.entries_done(), 5);
            assert_eq!(dec.buffered(), 0);
            assert_eq!(events.len(), 6, "5 entries + end");
            assert_eq!(events[0], DirEvent::Dir(StreamEntry::dir("a")));
            assert_eq!(
                events[1],
                DirEvent::File(StreamEntry::file("a/one.bin", 5), b"hello".to_vec())
            );
            assert_eq!(events[3], DirEvent::File(StreamEntry::file("a/zero", 0), vec![]));
            assert_eq!(*events.last().unwrap(), DirEvent::End { entries: 5 });
        }
    }

    #[test]
    fn truncated_stream_yields_prefix_and_never_finishes() {
        let wire = encode_tree(&tree()).unwrap();
        // Cut mid-way: whatever decodes must be complete entries only.
        for cut in [0, 3, 20, wire.len() - 1] {
            let (dec, events) = decode_all(&wire[..cut], 5);
            assert!(dec.error().is_none(), "cut at {cut} is truncation, not corruption");
            assert!(!dec.finished(), "cut at {cut} must not finish");
            assert_eq!(
                dec.entries_done() as usize,
                events.len(),
                "every event below the end marker is a complete entry"
            );
        }
    }

    #[test]
    fn resume_skip_semantics() {
        // A receiver that decoded N entries and a sender that re-walks the
        // same tree skipping N produce a seamless continuation.
        let items = tree();
        let wire = encode_tree(&items).unwrap();
        let (dec, _) = decode_all(&wire[..wire.len() / 2], 9);
        let skip = dec.entries_done() as usize;
        assert!(skip > 0 && skip < items.len());
        let rest = encode_tree(&items[skip..]).unwrap();
        let mut dec2 = DirStreamDecoder::new();
        let events = dec2.push(&rest);
        assert!(dec2.error().is_none());
        assert!(dec2.finished());
        assert_eq!(dec2.entries_done() as usize + skip, items.len());
        assert_eq!(*events.last().unwrap(), DirEvent::End { entries: (items.len() - skip) as u64 });
    }

    #[test]
    fn corrupt_magic_rejected_and_poisons() {
        let mut wire = encode_tree(&tree()).unwrap();
        wire[0] ^= 0xFF;
        let mut dec = DirStreamDecoder::new();
        assert!(dec.push(&wire).is_empty());
        let err = dec.error().unwrap().clone();
        assert!(err.to_string().contains("magic"), "{err}");
        // Poisoned: later pushes are no-ops, error sticks.
        assert!(dec.push(b"IGD1").is_empty());
        assert_eq!(dec.error(), Some(&err));
        assert_eq!(dec.entries_done(), 0);
    }

    #[test]
    fn events_before_a_violation_still_delivered() {
        // One good dir + one good file, then garbage — a single push must
        // hand back both completed entries AND report the violation, with
        // entries_done matching what was delivered (the resume point).
        let good = vec![
            (StreamEntry::dir("d"), vec![]),
            (StreamEntry::file("d/f", 4), b"data".to_vec()),
        ];
        let mut wire = Vec::new();
        for (e, data) in &good {
            wire.extend_from_slice(&encode_header(e).unwrap());
            if !e.is_dir {
                wire.extend_from_slice(data);
                wire.extend_from_slice(&encode_trailer(&Sha256::digest(data)));
            }
        }
        wire.extend_from_slice(b"XXXXGARBAGE");
        let mut dec = DirStreamDecoder::new();
        let events = dec.push(&wire);
        assert_eq!(events.len(), 2);
        assert_eq!(dec.entries_done(), 2);
        assert!(dec.error().unwrap().to_string().contains("magic"));
        assert!(!dec.finished());
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let mut wire = encode_tree(&tree()).unwrap();
        // Flip a byte inside "hello" (first file payload).
        let hdr = encode_header(&StreamEntry::dir("a")).unwrap().len()
            + encode_header(&StreamEntry::file("a/one.bin", 5)).unwrap().len();
        wire[hdr + 2] ^= 0x01;
        let mut dec = DirStreamDecoder::new();
        let events = dec.push(&wire);
        // The dir before the corrupt file still decodes.
        assert_eq!(events, vec![DirEvent::Dir(StreamEntry::dir("a"))]);
        let err = dec.error().unwrap();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn corrupt_trailer_magic_rejected() {
        let entry = StreamEntry::file("f", 4);
        let mut wire = encode_tree(&[(entry, b"data".to_vec())]).unwrap();
        let hdr = encode_header(&StreamEntry::file("f", 4)).unwrap().len();
        wire[hdr + 4] = b'X'; // first trailer byte
        let mut dec = DirStreamDecoder::new();
        dec.push(&wire);
        assert!(dec.error().unwrap().to_string().contains("trailer magic"));
    }

    #[test]
    fn end_count_mismatch_rejected() {
        let mut wire = encode_tree(&tree()).unwrap();
        let n = wire.len();
        wire[n - 1] ^= 0x01; // entry count low byte
        let mut dec = DirStreamDecoder::new();
        let events = dec.push(&wire);
        assert_eq!(events.len(), 5, "entries before the bad end marker still decode");
        assert!(dec.error().unwrap().to_string().contains("end marker claims"));
        assert!(!dec.finished());
    }

    #[test]
    fn trailing_garbage_after_end_rejected() {
        let mut wire = encode_tree(&tree()).unwrap();
        wire.push(0xAA);
        let mut dec = DirStreamDecoder::new();
        dec.push(&wire);
        assert!(dec.error().unwrap().to_string().contains("trailing bytes"));
    }

    #[test]
    fn hostile_paths_rejected() {
        for path in ["/etc/passwd", "../up", "a/../b", "a//b", "", ".", "a/.", "nul\0byte"] {
            let entry = StreamEntry::file(path, 0);
            assert!(encode_header(&entry).is_err(), "encode accepted {path:?}");
            // And on the decode side, craft the header by hand.
            let mut raw = Vec::new();
            raw.extend_from_slice(&HEADER_MAGIC);
            raw.push(0);
            raw.extend_from_slice(&0o644u32.to_be_bytes());
            raw.extend_from_slice(&(path.len() as u16).to_be_bytes());
            raw.extend_from_slice(path.as_bytes());
            raw.extend_from_slice(&0u64.to_be_bytes());
            let mut dec = DirStreamDecoder::new();
            dec.push(&raw);
            assert!(dec.error().is_some(), "decode accepted {path:?}");
        }
    }

    #[test]
    fn oversized_declared_file_rejected() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&HEADER_MAGIC);
        raw.push(0);
        raw.extend_from_slice(&0o644u32.to_be_bytes());
        raw.extend_from_slice(&1u16.to_be_bytes());
        raw.push(b'f');
        raw.extend_from_slice(&(MAX_FILE_SIZE + 1).to_be_bytes());
        let mut dec = DirStreamDecoder::new();
        dec.push(&raw);
        assert!(dec.error().unwrap().to_string().contains("MAX_FILE_SIZE"));
    }

    #[test]
    fn dir_with_size_rejected() {
        let mut raw = Vec::new();
        raw.extend_from_slice(&HEADER_MAGIC);
        raw.push(1);
        raw.extend_from_slice(&0o755u32.to_be_bytes());
        raw.extend_from_slice(&1u16.to_be_bytes());
        raw.push(b'd');
        raw.extend_from_slice(&9u64.to_be_bytes());
        let mut dec = DirStreamDecoder::new();
        dec.push(&raw);
        assert!(dec.error().unwrap().to_string().contains("nonzero size"));
    }

    #[test]
    fn duplicate_basenames_in_different_dirs_ok() {
        let items = vec![
            (StreamEntry::dir("x"), vec![]),
            (StreamEntry::file("x/name", 1), b"1".to_vec()),
            (StreamEntry::dir("y"), vec![]),
            (StreamEntry::file("y/name", 1), b"2".to_vec()),
        ];
        let wire = encode_tree(&items).unwrap();
        let (dec, events) = decode_all(&wire, 3);
        assert!(dec.finished());
        assert_eq!(events.len(), 5);
    }
}
