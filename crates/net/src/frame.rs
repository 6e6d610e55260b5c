//! The length-prefixed frame layer: the only thing that touches raw
//! bytes on the socket.
//!
//! Every message — request or response — travels as one frame:
//!
//! ```text
//! +----------+--------+----------+---------------+
//! | magic u32| op u8  | len u32  | payload bytes |
//! | LE       |        | LE       | (len bytes)   |
//! +----------+--------+----------+---------------+
//! ```
//!
//! The magic word (`b"XTWG"`) rejects strangers talking to the port
//! before any length is trusted; the length is bounded by
//! [`MAX_FRAME_LEN`] so a hostile or corrupt prefix cannot make the
//! peer allocate gigabytes. Payload semantics live one layer up in
//! [`crate::proto`] — this module neither knows nor cares what the
//! opcode means, which is what makes it independently fuzzable.
//!
//! A frame leaves in one `write` call, header and payload together.
//! [`FrameWriter`] owns a connection's stream and one reusable buffer:
//! it reserves the header, lets the caller encode the payload straight
//! in behind it, fills in the length and sends the lot. A header
//! written apart from its payload is a small segment followed by a
//! large one, which Nagle's algorithm holds back until the peer's
//! delayed ACK fires — tens of milliseconds per answer. Both endpoints
//! also set `TCP_NODELAY`, so a frame goes out as soon as it is
//! written.

use std::io::{Read, Write};

/// Frame magic: ASCII `XTWG`, little-endian on the wire.
pub const MAGIC: u32 = u32::from_le_bytes(*b"XTWG");

/// Upper bound on a frame payload (16 MiB). Large enough for any
/// realistic answer id-list or metrics dump; small enough that a
/// garbage length prefix cannot drive allocation.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Header bytes per frame (magic u32 + opcode u8 + length u32), used by
/// per-connection byte accounting.
pub const FRAME_OVERHEAD: usize = 9;

/// One decoded frame: an opcode and its raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message discriminator (see [`crate::proto`] for assignments).
    pub opcode: u8,
    /// Undecoded payload bytes.
    pub payload: Vec<u8>,
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// The first four bytes were not [`MAGIC`] — not our protocol.
    BadMagic(u32),
    /// The declared payload length exceeds [`MAX_FRAME_LEN`].
    Oversized(usize),
    /// The underlying transport failed (including mid-frame EOF, which
    /// surfaces as `UnexpectedEof`).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::BadMagic(got) => {
                write!(f, "bad frame magic {got:#010x} (expected {MAGIC:#010x})")
            }
            FrameError::Oversized(len) => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit")
            }
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// A frame buffer that grew past this many bytes (one unusually large
/// answer) is released after sending instead of pinning the memory for
/// the rest of the connection.
const RETAINED_BUF_BYTES: usize = 1 << 20;

fn header(opcode: u8, len: usize) -> [u8; FRAME_OVERHEAD] {
    let mut header = [0u8; FRAME_OVERHEAD];
    header[..4].copy_from_slice(&MAGIC.to_le_bytes());
    header[4] = opcode;
    header[5..9].copy_from_slice(&(len as u32).to_le_bytes());
    header
}

/// The write side of one connection: the stream plus one reusable
/// buffer that each frame is built in, so header and payload leave in
/// a single `write` call (see the module docs for why that matters).
pub struct FrameWriter<W> {
    inner: W,
    buf: Vec<u8>,
}

impl<W: Write> FrameWriter<W> {
    /// Wraps `inner`; the buffer grows to the largest frame sent.
    pub fn new(inner: W) -> Self {
        FrameWriter { inner, buf: Vec::new() }
    }

    /// Builds one frame and sends it with one write. `body` appends the
    /// payload to the buffer, behind the reserved header, and returns
    /// the opcode; the header's length is filled in afterwards. Returns
    /// the payload length.
    ///
    /// A payload over [`MAX_FRAME_LEN`] is refused with
    /// [`FrameError::Oversized`] before any byte is written, so the
    /// stream stays frame-aligned and usable. A partial write surfaces
    /// as `Io`; the stream is unusable afterwards (framing is lost), so
    /// callers drop it.
    pub fn send(&mut self, body: impl FnOnce(&mut Vec<u8>) -> u8) -> Result<usize, FrameError> {
        self.buf.clear();
        self.buf.extend_from_slice(&[0; FRAME_OVERHEAD]);
        let opcode = body(&mut self.buf);
        let len = self.buf.len().saturating_sub(FRAME_OVERHEAD);
        let sent = if len > MAX_FRAME_LEN {
            Err(FrameError::Oversized(len))
        } else {
            if let Some(slot) = self.buf.get_mut(..FRAME_OVERHEAD) {
                slot.copy_from_slice(&header(opcode, len));
            }
            self.inner
                .write_all(&self.buf)
                .and_then(|()| self.inner.flush())
                .map(|()| len)
                .map_err(FrameError::Io)
        };
        if self.buf.capacity() > RETAINED_BUF_BYTES {
            self.buf = Vec::new();
        }
        sent
    }

    /// The underlying stream, for writes that bypass framing.
    pub fn get_mut(&mut self) -> &mut W {
        &mut self.inner
    }
}

/// Writes one frame holding an already-encoded payload, in one write
/// call. Refusal and failure behave as in [`FrameWriter::send`];
/// connections that send many frames keep a [`FrameWriter`] instead,
/// so the payload is encoded in place rather than copied.
pub fn write_frame<W: Write>(w: &mut W, opcode: u8, payload: &[u8]) -> Result<(), FrameError> {
    // Refuse before copying up to 16 MiB into the frame buffer.
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(payload.len()));
    }
    FrameWriter::new(w)
        .send(|buf| {
            buf.extend_from_slice(payload);
            opcode
        })
        .map(drop)
}

/// Reads one frame, validating magic and length before allocating.
///
/// A clean EOF *before any header byte* is [`FrameError::Closed`] (the
/// peer hung up between messages — normal); EOF anywhere later is a
/// truncated frame and surfaces as `Io(UnexpectedEof)`.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Frame, FrameError> {
    let mut magic = [0u8; 4];
    // First byte by hand so "closed between frames" and "died
    // mid-frame" stay distinguishable.
    let mut first = [0u8; 1];
    match r.read(&mut first) {
        Ok(0) => return Err(FrameError::Closed),
        Ok(_) => magic[0] = first[0],
        Err(e) => return Err(FrameError::Io(e)),
    }
    r.read_exact(&mut magic[1..])?;
    let got = u32::from_le_bytes(magic);
    if got != MAGIC {
        return Err(FrameError::BadMagic(got));
    }
    let mut rest = [0u8; 5];
    r.read_exact(&mut rest)?;
    let opcode = rest[0];
    let len = u32::from_le_bytes([rest[1], rest[2], rest[3], rest[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Oversized(len));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Frame { opcode, payload })
}

#[cfg(test)]
#[allow(clippy::unwrap_used)] // tests assert; unwrap is the assert
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x02, b"hello").unwrap();
        write_frame(&mut buf, 0x81, b"").unwrap();
        let mut r = Cursor::new(buf);
        let a = read_frame(&mut r).unwrap();
        assert_eq!((a.opcode, a.payload.as_slice()), (0x02, b"hello".as_slice()));
        let b = read_frame(&mut r).unwrap();
        assert_eq!((b.opcode, b.payload.len()), (0x81, 0));
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn bad_magic_is_rejected_before_the_length_is_trusted() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"HTTP");
        buf.extend_from_slice(&[0x02]);
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // hostile length
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::BadMagic(_)));
    }

    #[test]
    fn oversized_length_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(0x02);
        buf.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(_)));
    }

    #[test]
    fn oversized_payload_is_refused_before_any_byte_is_written() {
        let mut buf = Vec::new();
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        let err = write_frame(&mut buf, 0x81, &payload).unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME_LEN + 1));
        assert!(buf.is_empty(), "wrote {} bytes of a refused frame", buf.len());
        // The stream is still frame-aligned: the next frame reads back.
        write_frame(&mut buf, 0x81, b"ok").unwrap();
        let frame = read_frame(&mut Cursor::new(buf)).unwrap();
        assert_eq!(frame.payload, b"ok");
    }

    /// Records every `write` call separately.
    #[derive(Default)]
    struct CountingWriter {
        writes: Vec<Vec<u8>>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_larger_than_a_socket_buffer_leaves_in_one_write() {
        let payload: Vec<u8> = (0..9 * 1024).map(|i| i as u8).collect();
        let mut w = CountingWriter::default();
        write_frame(&mut w, 0x82, &payload).unwrap();
        assert_eq!(w.writes.len(), 1, "header and payload must go out in one write call");
        let frame = read_frame(&mut Cursor::new(&w.writes[0])).unwrap();
        assert_eq!((frame.opcode, frame.payload), (0x82, payload.clone()));

        // The reusable writer: same bytes, one write per frame, and the
        // header length is filled in after the body is appended.
        let mut fw = FrameWriter::new(CountingWriter::default());
        for _ in 0..2 {
            let len = fw
                .send(|buf| {
                    buf.extend_from_slice(&payload);
                    0x82
                })
                .unwrap();
            assert_eq!(len, payload.len());
        }
        assert_eq!(fw.get_mut().writes.len(), 2);
        assert!(fw.get_mut().writes.iter().all(|bytes| *bytes == w.writes[0]));
    }

    #[test]
    fn frame_writer_refuses_an_oversized_body_and_keeps_serving() {
        let mut fw = FrameWriter::new(CountingWriter::default());
        let err = fw
            .send(|buf| {
                buf.resize(buf.len() + MAX_FRAME_LEN + 1, 0);
                0x82
            })
            .unwrap_err();
        assert!(matches!(err, FrameError::Oversized(n) if n == MAX_FRAME_LEN + 1));
        assert!(fw.get_mut().writes.is_empty(), "no byte of a refused frame goes out");
        fw.send(|buf| {
            buf.extend_from_slice(b"ok");
            0x85
        })
        .unwrap();
        let frame = read_frame(&mut Cursor::new(&fw.get_mut().writes[0])).unwrap();
        assert_eq!((frame.opcode, frame.payload.as_slice()), (0x85, b"ok".as_slice()));
    }

    #[test]
    fn truncated_frames_surface_as_io_not_closed() {
        // Header promises 10 bytes, stream carries 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC.to_le_bytes());
        buf.push(0x02);
        buf.extend_from_slice(&10u32.to_le_bytes());
        buf.extend_from_slice(b"abc");
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        match err {
            FrameError::Io(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected Io(UnexpectedEof), got {other}"),
        }
    }
}
