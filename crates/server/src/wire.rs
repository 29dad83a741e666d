//! Length-prefixed binary framing.
//!
//! A frame on the wire is a little-endian `u32` payload length followed
//! by that many payload bytes. Every payload begins with a protocol
//! version byte ([`WIRE_VERSION`]) and an opcode byte; the message
//! bodies themselves are defined in [`crate::protocol`], written in
//! [`vkg_kg::codec`].
//!
//! Decoding **fails closed**: a frame longer than the negotiated maximum,
//! an unknown opcode, a foreign version byte, an ill-formed body, or
//! trailing garbage all produce a typed [`WireError`] — never a panic —
//! so a server can reply with a typed error and drop the connection.

use std::fmt;
use std::io::{self, IoSlice, Read, Write};

use vkg_kg::codec::DecodeError;

/// Protocol version carried in the first payload byte of every frame.
/// v2 added the idempotency token to `AddFactDynamic` / `FactAdded`.
pub const WIRE_VERSION: u8 = 2;

/// Oldest protocol version this build still decodes. v1 frames are
/// accepted with token fields defaulted to 0 (untokened).
pub const MIN_WIRE_VERSION: u8 = 1;

/// Upper bound on a frame's payload length (1 MiB), requests and
/// responses alike. A larger declared length is refused from its prefix.
pub const MAX_FRAME: usize = 1 << 20;

/// Smallest well-formed payload: version byte + opcode byte.
pub const MIN_PAYLOAD: usize = 2;

/// Typed decode/transport failure. Every malformed input maps to one of
/// these variants; decoding never panics. The codec's [`DecodeError`]
/// maps onto the first three it shares, one to one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the message did (truncated length prefix,
    /// truncated body, or a field whose declared length exceeds the
    /// remaining bytes).
    Truncated,
    /// The length prefix declares a payload larger than the maximum.
    FrameTooLarge {
        /// Declared payload length.
        declared: u32,
        /// Maximum accepted payload length.
        max: usize,
    },
    /// The payload is shorter than version + opcode.
    FrameTooShort(usize),
    /// The version byte is outside
    /// [`MIN_WIRE_VERSION`]..=[`WIRE_VERSION`].
    BadVersion(u8),
    /// The opcode byte names no known message.
    UnknownOpcode(u8),
    /// A field failed validation (named for diagnostics).
    Malformed(&'static str),
    /// Bytes remained after the message body was fully decoded.
    Trailing(usize),
    /// An underlying socket read/write failed (rendered message).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated before message end"),
            WireError::FrameTooLarge { declared, max } => {
                write!(f, "declared frame length {declared} exceeds maximum {max}")
            }
            WireError::FrameTooShort(n) => {
                write!(f, "payload of {n} bytes is shorter than version + opcode")
            }
            WireError::BadVersion(v) => {
                write!(
                    f,
                    "protocol version {v} (this build speaks {MIN_WIRE_VERSION}..={WIRE_VERSION})"
                )
            }
            WireError::UnknownOpcode(op) => write!(f, "unknown opcode 0x{op:02x}"),
            WireError::Malformed(what) => write!(f, "malformed field: {what}"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after message end"),
            WireError::Io(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::Truncated => WireError::Truncated,
            DecodeError::Malformed(what) => WireError::Malformed(what),
            DecodeError::Trailing(n) => WireError::Trailing(n),
        }
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

/// Writes one frame (length prefix + payload) and flushes.
///
/// The prefix and the payload go to the writer together, in one
/// `write_vectored` call: on a `TCP_NODELAY` socket a frame then leaves
/// as one segment, with one send and one wake-up of the reader, where
/// two writes would send two. A writer that takes less gets the rest in
/// further vectored calls, so the bytes are exactly the prefix followed
/// by the payload whatever the writer accepts per call.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::FrameTooLarge {
        declared: u32::MAX,
        max: MAX_FRAME,
    })?;
    if payload.len() > MAX_FRAME {
        return Err(WireError::FrameTooLarge {
            declared: len,
            max: MAX_FRAME,
        });
    }
    let prefix = len.to_le_bytes();
    write_all_vectored(w, &mut [IoSlice::new(&prefix), IoSlice::new(payload)])?;
    w.flush()?;
    Ok(())
}

/// `write_all` over several buffers: calls `write_vectored` until every
/// byte is taken, retrying `Interrupted` and turning a writer that takes
/// nothing into `WriteZero`.
fn write_all_vectored(w: &mut impl Write, mut bufs: &mut [IoSlice<'_>]) -> io::Result<()> {
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame from a blocking stream. Returns `Ok(None)` on a clean
/// EOF at a frame boundary; an EOF mid-frame is [`WireError::Truncated`].
///
/// The payload grows as its bytes arrive, from at most 4 KiB reserved
/// up front, so a prefix that declares more than the peer sends never
/// allocates what it declares. Over a `BufReader`, a frame that arrived
/// in one segment is one `read` of the stream: the prefix and the
/// payload are both copied out of the buffer that read filled.
pub fn read_frame(r: &mut impl Read, max: usize) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    #[expect(
        clippy::indexing_slicing,
        reason = "the loop runs only while filled < 4 = len_buf.len(), and read() returns n <= the slice it was handed, so filled never passes 4"
    )]
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(None)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let len = declared_len(len_buf, max)?;
    let mut payload = Vec::with_capacity(len.min(READ_BLOCK));
    Read::take(&mut *r, len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(WireError::Truncated);
    }
    Ok(Some(payload))
}

/// The most [`read_frame`] reserves for a payload before its bytes arrive.
const READ_BLOCK: usize = 4 * 1024;

/// The payload length a frame's prefix declares, refused before any
/// allocation when it passes `max` or cannot hold version + opcode.
fn declared_len(prefix: [u8; 4], max: usize) -> Result<usize, WireError> {
    let declared = u32::from_le_bytes(prefix);
    match declared as usize {
        len if len > max => Err(WireError::FrameTooLarge { declared, max }),
        len if len < MIN_PAYLOAD => Err(WireError::FrameTooShort(len)),
        len => Ok(len),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hands out one queued segment per `read` call, and counts the calls.
    struct Segments(std::collections::VecDeque<Vec<u8>>, usize);

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 += 1;
            let segment = self.0.pop_front().unwrap_or_default();
            buf[..segment.len()].copy_from_slice(&segment);
            Ok(segment.len())
        }
    }

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn read_frame_reassembles_split_frames() {
        // A byte per read: each frame is read whole all the same.
        let bytes = [frame(&[1, 2, 3, 4, 5]), frame(&[9, 9])].concat();
        let mut r = Segments(bytes.iter().map(|&b| vec![b]).collect(), 0);
        let mut frames = Vec::new();
        while let Some(f) = read_frame(&mut r, MAX_FRAME).unwrap() {
            frames.push(f);
        }
        assert_eq!(frames, vec![vec![1, 2, 3, 4, 5], vec![9, 9]]);
    }

    #[test]
    fn a_buffered_frame_is_one_read() {
        let bodies = [payload(5), payload(600), payload(3)];
        // Two frames in one segment, then one in a segment of its own.
        let first = [frame(&bodies[0]), frame(&bodies[1])].concat();
        let mut r = io::BufReader::new(Segments([first, frame(&bodies[2])].into(), 0));
        for body in bodies {
            assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), Some(body));
        }
        assert_eq!(r.get_ref().1, 2, "one read per segment");
        assert_eq!(read_frame(&mut r, MAX_FRAME).unwrap(), None);
    }

    #[test]
    fn read_frame_rejects_oversized_declared_length_early() {
        let prefix = u32::MAX.to_le_bytes();
        assert!(matches!(
            read_frame(&mut &prefix[..], MAX_FRAME),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn read_frame_rejects_undersized_frames() {
        let frame = [&1u32.to_le_bytes()[..], &[0x01]].concat();
        assert_eq!(
            read_frame(&mut &frame[..], MAX_FRAME).unwrap_err(),
            WireError::FrameTooShort(1)
        );
    }

    #[test]
    fn read_frame_distinguishes_clean_eof_from_truncation() {
        // Clean EOF at the boundary.
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut &*empty, MAX_FRAME).unwrap(), None);
        // Truncated length prefix.
        let partial: &[u8] = &[3, 0];
        assert_eq!(
            read_frame(&mut &*partial, MAX_FRAME).unwrap_err(),
            WireError::Truncated
        );
        // Truncated body.
        let mut framed = frame(&[1, 2, 3]);
        framed.pop();
        assert_eq!(
            read_frame(&mut &framed[..], MAX_FRAME).unwrap_err(),
            WireError::Truncated
        );
    }

    /// The bytes the two-write framing put on the wire: the prefix, then
    /// the payload.
    fn two_write_frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        out.write_all(&(payload.len() as u32).to_le_bytes())
            .unwrap();
        out.write_all(payload).unwrap();
        out
    }

    fn payload(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    const FRAME_SIZES: [usize; 3] = [5, 4096, MAX_FRAME];

    /// Takes everything it is handed and records each call by kind.
    #[derive(Default)]
    struct Recording {
        bytes: Vec<u8>,
        calls: Vec<&'static str>,
    }

    impl Write for Recording {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls.push("write");
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls.push("write_vectored");
            let before = self.bytes.len();
            for buf in bufs {
                self.bytes.extend_from_slice(buf);
            }
            Ok(self.bytes.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Takes one byte per call.
    #[derive(Default)]
    struct ByteAtATime(Vec<u8>);

    impl Write for ByteAtATime {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            match bufs.iter().find_map(|b| b.first()) {
                Some(&b) => {
                    self.0.push(b);
                    Ok(1)
                }
                None => Ok(0),
            }
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Fails its first call with `Interrupted`, then takes everything.
    #[derive(Default)]
    struct InterruptedOnce {
        interrupted: bool,
        inner: Recording,
    }

    impl Write for InterruptedOnce {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !self.interrupted {
                self.interrupted = true;
                return Err(io::ErrorKind::Interrupted.into());
            }
            self.inner.write_vectored(bufs)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Takes nothing, without an error: a closed sink.
    struct TakesNothing;

    impl Write for TakesNothing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Ok(0)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_vectored_write() {
        for len in FRAME_SIZES {
            let body = payload(len);
            let mut w = Recording::default();
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.calls, ["write_vectored"], "payload of {len} B");
            assert_eq!(w.bytes, two_write_frame(&body), "payload of {len} B");
        }
    }

    #[test]
    fn a_byte_at_a_time_writer_gets_the_two_write_bytes() {
        for len in FRAME_SIZES {
            let body = payload(len);
            let mut w = ByteAtATime::default();
            write_frame(&mut w, &body).unwrap();
            assert_eq!(w.0, two_write_frame(&body), "payload of {len} B");
        }
    }

    #[test]
    fn an_interrupted_write_is_retried() {
        for len in FRAME_SIZES {
            let body = payload(len);
            let mut w = InterruptedOnce::default();
            write_frame(&mut w, &body).unwrap();
            assert!(w.interrupted);
            assert_eq!(w.inner.calls, ["write_vectored"], "payload of {len} B");
            assert_eq!(w.inner.bytes, two_write_frame(&body), "payload of {len} B");
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_write_zero() {
        let body = payload(5);
        let prefix = 5u32.to_le_bytes();
        let err = write_all_vectored(
            &mut TakesNothing,
            &mut [IoSlice::new(&prefix), IoSlice::new(&body)],
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(
            write_frame(&mut TakesNothing, &body).unwrap_err(),
            WireError::from(io::Error::from(io::ErrorKind::WriteZero))
        );
    }
}
