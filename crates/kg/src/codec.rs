//! The little-endian codec every byte format is written in: the wire
//! protocol, the write-ahead log, the `VKGE` embedding file and the
//! filter fingerprint. A layout is an encode over [`Enc`] beside a decode
//! over [`Dec`]; the shapes layouts share — a length-guarded sequence, an
//! option tag, a strict bool byte, a magic header, a checksummed block —
//! are written here once. Decoding fails closed: every read checks
//! bounds and returns a typed [`DecodeError`], and a declared length is
//! weighed against the bytes that remain before anything is allocated.

use std::fmt;
use std::hash::Hasher;

/// Why a decode failed. Every malformed input maps to one of these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value, or a length it declares, did.
    Truncated,
    /// A field failed validation (named for diagnostics).
    Malformed(&'static str),
    /// Bytes remained after the value was fully decoded.
    Trailing(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "input truncated before value end"),
            DecodeError::Malformed(what) => write!(f, "malformed field: {what}"),
            DecodeError::Trailing(n) => write!(f, "{n} trailing bytes after value end"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// 64-bit FNV-1a: a [checksummed block](Enc::checksummed)'s checksum,
/// and as a [`Hasher`] the result cache's map hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// FNV-1a over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::default();
    hash.write(bytes);
    hash.finish()
}

/// Little-endian encoder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty encoder with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Enc {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// Finishes encoding, yielding the bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its IEEE-754 bit pattern, little-endian, so
    /// NaN payloads and signed zeros survive.
    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte, `0` or `1`.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length or count as a `u32`: lossless below 2³², which
    /// every layout's lengths are (a wire frame holds at most 1 MiB); a
    /// larger one saturates, and no decoder finds the bytes it declares.
    #[inline]
    pub fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX));
    }

    /// Appends a length-prefixed UTF-8 string. Every byte is written
    /// even where the length saturates, so the encoding stays injective.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a format's magic bytes.
    pub fn magic(&mut self, magic: &[u8]) {
        self.buf.extend_from_slice(magic);
    }

    /// Appends a sequence: its length, then each item as `item` writes it.
    pub fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        self.count(items.len());
        for it in items {
            item(self, it);
        }
    }

    /// Appends an option: tag `0` for `None`, or tag `1` and the value
    /// as `some` writes it.
    pub fn option<T: ?Sized>(&mut self, value: Option<&T>, some: impl FnOnce(&mut Self, &T)) {
        match value {
            None => self.u8(0),
            Some(v) => {
                self.u8(1);
                some(self, v);
            }
        }
    }

    /// Appends a checksummed block,
    /// `[len: u32][fnv1a64(body): u64][body]`, whose body `body` writes.
    pub fn checksummed(&mut self, body: impl FnOnce(&mut Self)) {
        let start = self.buf.len();
        body(self);
        let written = self.buf.get(start..).unwrap_or_default();
        let sum = fnv1a64(written).to_le_bytes();
        let len = u32::try_from(written.len())
            .unwrap_or(u32::MAX)
            .to_le_bytes();
        self.buf.splice(start..start, len.into_iter().chain(sum));
    }
}

/// Little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Decodes from `buf`, starting at its first byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Fails with [`DecodeError::Trailing`] unless every byte was consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(DecodeError::Trailing(n)),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let end = self.pos.checked_add(n).ok_or(DecodeError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(DecodeError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        self.array().map(|[b]| b)
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    #[inline]
    pub fn f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool byte: `0` or `1`, anything else is malformed.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(DecodeError::Malformed("bool byte")),
        }
    }

    /// Reads a length-prefixed UTF-8 string. The bytes are taken, and so
    /// bounded by the input, before anything is allocated.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError::Malformed("non-UTF-8 string"))
    }

    /// Reads a format's magic bytes; other bytes are `Malformed("magic")`.
    pub fn magic(&mut self, magic: &[u8]) -> Result<(), DecodeError> {
        let found = self.take(magic.len())?;
        (found == magic)
            .then_some(())
            .ok_or(DecodeError::Malformed("magic"))
    }

    /// Reads a sequence [`Enc::seq`] wrote, guarded as [`Dec::items`].
    pub fn seq<T>(
        &mut self,
        min_item_bytes: usize,
        item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        let n = self.u32()? as usize;
        self.items(n, min_item_bytes, item)
    }

    /// Reads `n` items, whose count the layout states elsewhere. `n` items
    /// of at least `min_item_bytes` (> 0) bytes must fit in the bytes that
    /// remain, so a hostile count is `Truncated` before any allocation.
    pub fn items<T>(
        &mut self,
        n: usize,
        min_item_bytes: usize,
        mut item: impl FnMut(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Vec<T>, DecodeError> {
        if n.saturating_mul(min_item_bytes) > self.remaining() {
            return Err(DecodeError::Truncated);
        }
        let mut items = Vec::with_capacity(n);
        for _ in 0..n {
            items.push(item(self)?);
        }
        Ok(items)
    }

    /// Reads an option [`Enc::option`] wrote; another tag is `Malformed(what)`.
    pub fn option<T>(
        &mut self,
        what: &'static str,
        some: impl FnOnce(&mut Self) -> Result<T, DecodeError>,
    ) -> Result<Option<T>, DecodeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => some(self).map(Some),
            _ => Err(DecodeError::Malformed(what)),
        }
    }

    /// Reads a checksummed block [`Enc::checksummed`] wrote into a decoder
    /// over its body; a length past `max` or a wrong checksum is malformed.
    pub fn checksummed(&mut self, max: usize) -> Result<Dec<'a>, DecodeError> {
        let len = self.u32()? as usize;
        if len > max {
            return Err(DecodeError::Malformed("block length"));
        }
        let sum = self.u64()?;
        let body = self.take(len)?;
        if fnv1a64(body) != sum {
            return Err(DecodeError::Malformed("checksum"));
        }
        Ok(Dec::new(body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.f64(-0.125);
        e.bool(true);
        e.str("héllo");
        let payload = e.finish();
        let mut d = Dec::new(&payload);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.f64().unwrap(), -0.125);
        assert!(d.bool().unwrap());
        assert_eq!(d.str().unwrap(), "héllo");
        d.finish().unwrap();
    }

    #[test]
    fn decoder_fails_closed_on_truncation() {
        let mut e = Enc::new();
        e.str("abcdef");
        let payload = e.finish();
        for cut in 0..payload.len() {
            let mut d = Dec::new(&payload[..cut]);
            assert_eq!(d.str().unwrap_err(), DecodeError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u32(1);
        let mut payload = e.finish();
        payload.push(0xFF);
        let mut d = Dec::new(&payload);
        d.u32().unwrap();
        assert_eq!(d.finish().unwrap_err(), DecodeError::Trailing(1));
    }

    #[test]
    fn seq_guards_against_hostile_lengths() {
        let mut e = Enc::new();
        e.u32(u32::MAX); // claims 4 billion elements
        let payload = e.finish();
        let mut d = Dec::new(&payload);
        assert_eq!(d.seq(8, Dec::u64).unwrap_err(), DecodeError::Truncated);
        let mut d = Dec::new(&payload);
        assert_eq!(
            d.items(usize::MAX, 1, Dec::u8).unwrap_err(),
            DecodeError::Truncated
        );
    }

    #[test]
    fn shapes_roundtrip() {
        let rows = [(1u32, 2.5f64), (3, -0.0)];
        let mut e = Enc::new();
        e.magic(b"MAGC");
        e.seq(&rows, |e, &(a, b)| {
            e.u32(a);
            e.f64(b);
        });
        e.option(Some("x"), Enc::str);
        e.option(None::<&u32>, |e, &v| e.u32(v));
        e.checksummed(|e| e.u64(9));
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        d.magic(b"MAGC").unwrap();
        let back = d.seq(12, |d| Ok((d.u32()?, d.f64()?))).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[1].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(d.option("tag", Dec::str).unwrap().as_deref(), Some("x"));
        assert_eq!(d.option("tag", Dec::u32).unwrap(), None);
        let mut body = d.checksummed(8).unwrap();
        assert_eq!(body.u64().unwrap(), 9);
        body.finish().unwrap();
        d.finish().unwrap();
    }

    #[test]
    fn strict_bytes_are_refused() {
        assert_eq!(
            Dec::new(&[2]).bool().unwrap_err(),
            DecodeError::Malformed("bool byte")
        );
        assert_eq!(
            Dec::new(&[2]).option("tag", Dec::u8).unwrap_err(),
            DecodeError::Malformed("tag")
        );
        assert_eq!(
            Dec::new(b"MAGD").magic(b"MAGC").unwrap_err(),
            DecodeError::Malformed("magic")
        );
        assert_eq!(
            Dec::new(b"MAG").magic(b"MAGC").unwrap_err(),
            DecodeError::Truncated
        );
    }

    /// `[len: u32 LE][fnv1a64(body): u64 LE][body]`; a flipped body byte
    /// fails the checksum, a length past the bound is refused unread.
    #[test]
    fn checksummed_block_layout() {
        let mut e = Enc::new();
        e.checksummed(|e| e.u8(0xAB));
        let bytes = e.finish();
        let mut want = 1u32.to_le_bytes().to_vec();
        want.extend_from_slice(&fnv1a64(&[0xAB]).to_le_bytes());
        want.push(0xAB);
        assert_eq!(bytes, want);
        let mut flipped = bytes.clone();
        flipped[12] ^= 1;
        assert_eq!(
            Dec::new(&flipped).checksummed(8).unwrap_err(),
            DecodeError::Malformed("checksum")
        );
        assert_eq!(
            Dec::new(&bytes).checksummed(0).unwrap_err(),
            DecodeError::Malformed("block length")
        );
    }

    /// The published FNV-1a 64 test vectors.
    #[test]
    fn fnv1a64_known_values() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }
}
