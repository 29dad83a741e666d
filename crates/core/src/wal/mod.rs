//! Durable write-ahead log for dynamic writes (DESIGN.md §3.9).
//!
//! The log is a flat file: an 8-byte magic header (`VKGWAL01`) followed
//! by length-prefixed records. Each record frames a fixed-width body
//! with a little-endian `u32` body length and a `u64` FNV-1a checksum
//! over the body bytes:
//!
//! ```text
//! [len: u32 LE][fnv1a64(body): u64 LE][body: len bytes]
//! body = version u8 | kind u8 | epoch u64 | token u64
//!      | h u32 | r u32 | t u32 | refine_steps u32
//!      | learning_rate f64 (to_bits, LE)
//! ```
//!
//! The ordering invariant the facade maintains is **log, flush, then
//! publish, then ack**: a record reaches the file (through the
//! [`fault::FaultPlane`] seam) before the write becomes visible to
//! readers and before `FactAdded` is acked, so replaying the log after
//! a crash reconstructs at least the acked prefix. Replay truncates any
//! torn tail — a partial header, partial body, checksum mismatch, or
//! undecodable body ends the valid prefix; nothing after it is trusted.
//! Idempotency tokens ride in each record so a post-crash retry of an
//! already-logged write is answered from the dedup map instead of being
//! applied twice.

pub mod fault;

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::Path;

use fault::FaultPlane;
use vkg_kg::codec::{Dec, DecodeError, Enc};

/// File magic: identifies a WAL file and pins its framing version.
pub const WAL_MAGIC: &[u8; 8] = b"VKGWAL01";
/// Body format version stamped into every record.
pub const WAL_VERSION: u8 = 1;
/// Record kind: a dynamic `AddFact` write.
pub const KIND_ADD_FACT: u8 = 1;
/// Fixed body width of a v1 record.
pub const BODY_BYTES: usize = 42;
/// Full on-disk width of one framed record (length + checksum + body).
pub const RECORD_BYTES: usize = 12 + BODY_BYTES;
/// Upper bound accepted for a record body; anything larger is treated
/// as tail corruption rather than an allocation request.
const MAX_BODY_BYTES: usize = 4096;

/// A typed durability error. Io errors carry the operation name so a
/// failure report says *which* touchpoint failed (`write`, `flush`,
/// `fsync`, `open`, `truncate`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalError {
    /// An I/O operation on the log failed.
    Io {
        /// The durability touchpoint that failed.
        op: &'static str,
        /// Rendered cause (kept as a string so the error stays `Clone`).
        detail: String,
    },
    /// The file exists but does not start with [`WAL_MAGIC`] — refusing
    /// to replay (or truncate) something that is not a WAL.
    BadMagic,
    /// The writer saw an append fail earlier; the tail may be torn and
    /// only recovery may touch the file again.
    Poisoned,
}

impl WalError {
    fn io(op: &'static str, e: &std::io::Error) -> Self {
        WalError::Io {
            op,
            detail: e.to_string(),
        }
    }

    fn io_str(op: &'static str, detail: &str) -> Self {
        WalError::Io {
            op,
            detail: detail.to_string(),
        }
    }
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io { op, detail } => write!(f, "wal {op} failed: {detail}"),
            WalError::BadMagic => write!(f, "wal file has wrong magic"),
            WalError::Poisoned => write!(f, "wal writer poisoned by earlier failure"),
        }
    }
}

impl std::error::Error for WalError {}

/// One logged dynamic write. Two records are equal when their encodings
/// are, so a decode of an encode is *bit*-identical, NaNs and signed
/// zeros included.
#[derive(Debug, Clone, Copy)]
pub struct WalRecord {
    /// Epoch the write published (stamped as current epoch + 1 at
    /// append time, before the publish it guards).
    pub epoch: u64,
    /// Client idempotency token; 0 means untokened.
    pub token: u64,
    /// Head entity id.
    pub h: u32,
    /// Relation id.
    pub r: u32,
    /// Tail entity id.
    pub t: u32,
    /// Embedding refinement steps requested with the write.
    pub refine_steps: u32,
    /// Refinement learning rate.
    pub learning_rate: f64,
}

impl PartialEq for WalRecord {
    fn eq(&self, other: &Self) -> bool {
        self.encode() == other.encode()
    }
}

impl Eq for WalRecord {}

impl WalRecord {
    /// Serializes the full framed record: length, checksum, body.
    pub fn encode(&self) -> Vec<u8> {
        let mut e = Enc::with_capacity(RECORD_BYTES);
        e.checksummed(|e| {
            e.u8(WAL_VERSION);
            e.u8(KIND_ADD_FACT);
            e.u64(self.epoch);
            e.u64(self.token);
            e.u32(self.h);
            e.u32(self.r);
            e.u32(self.t);
            e.u32(self.refine_steps);
            e.f64(self.learning_rate);
        });
        e.finish()
    }

    /// Decodes one framed record. Anything this build cannot interpret
    /// — a torn frame, a checksum mismatch, another version or kind, a
    /// body of another width — is an error, which replay treats as tail
    /// corruption, never as a panic.
    pub fn decode(d: &mut Dec<'_>) -> Result<Self, DecodeError> {
        let mut body = d.checksummed(MAX_BODY_BYTES)?;
        if (body.u8()?, body.u8()?) != (WAL_VERSION, KIND_ADD_FACT) {
            return Err(DecodeError::Malformed("wal record version or kind"));
        }
        let record = WalRecord {
            epoch: body.u64()?,
            token: body.u64()?,
            h: body.u32()?,
            r: body.u32()?,
            t: body.u32()?,
            refine_steps: body.u32()?,
            learning_rate: body.f64()?,
        };
        body.finish()?;
        Ok(record)
    }
}

/// What replay found in the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Records in the valid prefix.
    pub replayed: u64,
    /// Bytes past the valid prefix (the torn tail recovery truncates).
    pub truncated_bytes: u64,
    /// Absolute file offset where the valid prefix ends (0 for a
    /// missing or empty file, otherwise ≥ the 8-byte magic).
    pub good_bytes: u64,
}

/// Decodes an in-memory log image, stopping at the first torn or
/// corrupt frame. Pure and panic-free on arbitrary bytes — the proptest
/// truncation suite feeds it every prefix and mutation it can build.
pub fn decode_log(bytes: &[u8]) -> Result<(Vec<WalRecord>, ReplayStats), WalError> {
    let mut d = Dec::new(bytes);
    let mut records = Vec::new();
    let mut good = 0;
    match d.magic(WAL_MAGIC) {
        // An empty file or a torn magic header: nothing valid, everything
        // truncated.
        Err(DecodeError::Truncated) => {}
        Err(_) => return Err(WalError::BadMagic),
        Ok(()) => {
            good = WAL_MAGIC.len();
            while let Ok(record) = WalRecord::decode(&mut d) {
                records.push(record);
                good = bytes.len() - d.remaining();
            }
        }
    }
    let stats = ReplayStats {
        replayed: records.len() as u64,
        truncated_bytes: (bytes.len() - good) as u64,
        good_bytes: good as u64,
    };
    Ok((records, stats))
}

/// Reads and decodes the log at `path`. A missing file is an empty log.
pub fn replay(path: &Path) -> Result<(Vec<WalRecord>, ReplayStats), WalError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), ReplayStats::default()))
        }
        Err(e) => return Err(WalError::io("open", &e)),
    };
    decode_log(&bytes)
}

/// Append handle over a recovered log. Every byte goes through the
/// [`FaultPlane`]; the first failed append poisons the writer so a torn
/// tail is never extended.
#[derive(Debug)]
pub struct Writer {
    file: File,
    fault: FaultPlane,
    fsync: bool,
    poisoned: bool,
    appended: u64,
}

impl Writer {
    /// Appends one record and flushes it to the file before returning.
    /// On failure the writer poisons itself: the tail may be torn, and
    /// only a fresh [`recover`] may touch the file again.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), WalError> {
        if self.poisoned {
            return Err(WalError::Poisoned);
        }
        let bytes = record.encode();
        let appended = self
            .fault
            .write(&mut self.file, &bytes)
            .and_then(|()| self.fault.flush(&mut self.file, self.fsync));
        if let Err(e) = appended {
            self.poisoned = true;
            return Err(e);
        }
        self.appended += 1;
        Ok(())
    }

    /// Records appended through this writer (excluding replayed ones).
    pub fn appended(&self) -> u64 {
        self.appended
    }

    /// Whether an earlier append failed and the writer refuses new work.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Enables `sync_data` after each flush (off by default: the crash
    /// model is process death, where `write` suffices; machine-crash
    /// durability pays for the fsync).
    pub fn set_fsync(&mut self, fsync: bool) {
        self.fsync = fsync;
    }
}

/// A recovered log: the replayed valid prefix plus a writer positioned
/// at its end (the torn tail, if any, has been truncated away).
#[derive(Debug)]
pub struct Recovered {
    /// Records of the valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// What replay saw.
    pub stats: ReplayStats,
    /// Writer appending after the valid prefix.
    pub writer: Writer,
}

/// Opens (creating if absent) the log at `path`, replays its valid
/// prefix, truncates any torn tail, and returns the records plus a
/// writer positioned at the end.
pub fn recover(path: &Path, fault: FaultPlane) -> Result<Recovered, WalError> {
    let (records, stats) = replay(path)?;
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(path)
        .map_err(|e| WalError::io("open", &e))?;
    if stats.good_bytes == 0 {
        file.set_len(0).map_err(|e| WalError::io("truncate", &e))?;
        fault.write(&mut file, WAL_MAGIC)?;
        fault.flush(&mut file, false)?;
    } else {
        file.set_len(stats.good_bytes)
            .map_err(|e| WalError::io("truncate", &e))?;
    }
    file.seek(SeekFrom::End(0))
        .map_err(|e| WalError::io("seek", &e))?;
    Ok(Recovered {
        records,
        stats,
        writer: Writer {
            file,
            fault,
            fsync: false,
            poisoned: false,
            appended: 0,
        },
    })
}

/// Bounded idempotency map: token → `(added, epoch)` outcome of the
/// write that first carried it. Retries of an acked (or logged) write
/// are answered from here instead of being applied twice. Token 0 is
/// the "untokened" sentinel and is never stored. Eviction is FIFO at
/// `capacity` — old enough that any plausible retry horizon fits.
#[derive(Debug)]
pub struct TokenMap {
    map: HashMap<u64, (bool, u64)>,
    order: VecDeque<u64>,
    capacity: usize,
}

impl TokenMap {
    /// A map remembering at most `capacity` tokens.
    pub fn new(capacity: usize) -> Self {
        TokenMap {
            map: HashMap::new(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// The recorded outcome for `token`, if still remembered.
    pub fn get(&self, token: u64) -> Option<(bool, u64)> {
        self.map.get(&token).copied()
    }

    /// Records the outcome of a tokened write, evicting the oldest
    /// entry at capacity. Token 0 and repeat inserts are ignored.
    pub fn insert(&mut self, token: u64, outcome: (bool, u64)) {
        if token == 0 || self.map.contains_key(&token) {
            return;
        }
        if self.order.len() >= self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.map.remove(&old);
            }
        }
        self.order.push_back(token);
        self.map.insert(token, outcome);
    }

    /// Tokens currently remembered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> WalRecord {
        WalRecord {
            epoch: i + 1,
            token: 100 + i,
            h: i as u32,
            r: (i % 3) as u32,
            t: (i + 1) as u32,
            refine_steps: 4,
            learning_rate: 0.01 * (i + 1) as f64,
        }
    }

    fn log_bytes(n: u64) -> Vec<u8> {
        let mut bytes = WAL_MAGIC.to_vec();
        for i in 0..n {
            bytes.extend_from_slice(&rec(i).encode());
        }
        bytes
    }

    #[test]
    fn roundtrip_is_bit_identical() {
        let r = WalRecord {
            epoch: 7,
            token: u64::MAX,
            h: 1,
            r: 2,
            t: 3,
            refine_steps: 8,
            learning_rate: -0.0,
        };
        let bytes = r.encode();
        assert_eq!(bytes.len(), RECORD_BYTES);
        assert_eq!(WalRecord::decode(&mut Dec::new(&bytes)), Ok(r));
    }

    /// The log's bytes, pinned: the magic, then two framed records, each
    /// `[len][fnv1a64(body)][body]` with every field little-endian in
    /// the module docs' order. Round-trips alone would not see a
    /// reordered field or a moved checksum.
    #[test]
    fn log_bytes_are_pinned() {
        let records = [
            WalRecord {
                epoch: 7,
                token: u64::MAX,
                h: 1,
                r: 2,
                t: 3,
                refine_steps: 8,
                learning_rate: -0.0,
            },
            WalRecord {
                epoch: 0x0102_0304_0506_0708,
                token: 0,
                h: 0xDEAD_BEEF,
                r: 0,
                t: 42,
                refine_steps: u32::MAX,
                learning_rate: f64::from_bits(0x7ff8_0000_0000_0001),
            },
        ];
        let mut image = WAL_MAGIC.to_vec();
        for record in &records {
            image.extend_from_slice(&record.encode());
        }
        let hex: String = image.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            concat!(
                "564b4757414c3031",
                // record 1: len 42, checksum, version 1, kind 1, epoch 7,
                // token u64::MAX, h r t, 8 steps, -0.0
                "2a000000",
                "20ac53be22537b44",
                "0101",
                "0700000000000000",
                "ffffffffffffffff",
                "01000000",
                "02000000",
                "03000000",
                "08000000",
                "0000000000000080",
                // record 2: a NaN rate with a payload, kept bit for bit
                "2a000000",
                "0ffbe6db487a8da6",
                "0101",
                "0807060504030201",
                "0000000000000000",
                "efbeadde",
                "00000000",
                "2a000000",
                "ffffffff",
                "010000000000f87f",
            )
        );
        let (back, stats) = decode_log(&image).unwrap();
        assert_eq!(back, records);
        assert_eq!(stats.good_bytes, image.len() as u64);
    }

    #[test]
    fn decode_log_reads_back_what_was_written() {
        let (records, stats) = decode_log(&log_bytes(5)).unwrap();
        assert_eq!(records.len(), 5);
        assert_eq!(records[3], rec(3));
        assert_eq!(stats.truncated_bytes, 0);
        assert_eq!(stats.good_bytes, 8 + 5 * RECORD_BYTES as u64);
    }

    #[test]
    fn any_truncation_yields_clean_prefix() {
        let bytes = log_bytes(4);
        for cut in 0..=bytes.len() {
            let (records, stats) = decode_log(&bytes[..cut]).unwrap();
            let whole = cut.saturating_sub(WAL_MAGIC.len()) / RECORD_BYTES;
            assert_eq!(records.len(), whole, "cut at {cut}");
            assert_eq!(
                stats.good_bytes as usize,
                if cut < WAL_MAGIC.len() {
                    0
                } else {
                    WAL_MAGIC.len() + whole * RECORD_BYTES
                }
            );
        }
    }

    #[test]
    fn corrupt_byte_ends_the_prefix_there() {
        let mut bytes = log_bytes(3);
        // Flip a byte inside record 1's body.
        let hit = WAL_MAGIC.len() + RECORD_BYTES + 20;
        bytes[hit] ^= 0xff;
        let (records, stats) = decode_log(&bytes).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(
            stats.truncated_bytes as usize,
            bytes.len() - WAL_MAGIC.len() - RECORD_BYTES
        );
    }

    #[test]
    fn wrong_magic_is_refused() {
        assert_eq!(decode_log(b"NOTAWAL0rest"), Err(WalError::BadMagic));
    }

    #[test]
    fn recover_truncates_torn_tail_and_appends_after_it() {
        let dir = std::env::temp_dir().join("vkg_wal_recover");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("torn.wal");
        let mut bytes = log_bytes(2);
        bytes.extend_from_slice(&rec(2).encode()[..20]); // torn tail
        std::fs::write(&path, &bytes).unwrap();

        let mut recovered = recover(&path, FaultPlane::none()).unwrap();
        assert_eq!(recovered.records.len(), 2);
        assert_eq!(recovered.stats.truncated_bytes, 20);
        recovered.writer.append(&rec(9)).unwrap();
        drop(recovered);

        let (records, stats) = replay(&path).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[2], rec(9));
        assert_eq!(stats.truncated_bytes, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recover_from_missing_file_starts_empty() {
        let dir = std::env::temp_dir().join("vkg_wal_fresh");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("fresh.wal");
        let _ = std::fs::remove_file(&path);
        let recovered = recover(&path, FaultPlane::none()).unwrap();
        assert!(recovered.records.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), WAL_MAGIC);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn failed_append_poisons_writer() {
        let dir = std::env::temp_dir().join("vkg_wal_poison");
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("poison.wal");
        let _ = std::fs::remove_file(&path);
        let plane = FaultPlane::with_spec(fault::FaultSpec {
            kill_after_bytes: Some(WAL_MAGIC.len() as u64 + 30),
            ..fault::FaultSpec::default()
        });
        let mut recovered = recover(&path, plane).unwrap();
        assert!(recovered.writer.append(&rec(0)).is_err());
        assert!(recovered.writer.poisoned());
        assert_eq!(recovered.writer.append(&rec(1)), Err(WalError::Poisoned));
        drop(recovered);
        // The torn tail is exactly what the kill allowed through.
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk.len(), WAL_MAGIC.len() + 30);
        let (records, stats) = replay(&path).unwrap();
        assert!(records.is_empty());
        assert_eq!(stats.truncated_bytes, 30);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn token_map_remembers_and_evicts_fifo() {
        let mut map = TokenMap::new(2);
        map.insert(0, (true, 1)); // sentinel ignored
        assert!(map.is_empty());
        map.insert(1, (true, 1));
        map.insert(2, (false, 1));
        map.insert(1, (false, 99)); // repeat insert keeps the original
        assert_eq!(map.get(1), Some((true, 1)));
        map.insert(3, (true, 2));
        assert_eq!(map.len(), 2);
        assert_eq!(map.get(1), None, "oldest token evicted");
        assert_eq!(map.get(3), Some((true, 2)));
    }
}
