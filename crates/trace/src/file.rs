//! Binary FSB-trace serialization.
//!
//! The co-simulation can record the exact transaction stream Dragonhead
//! observed and replay it later against different emulator
//! configurations — the software equivalent of capturing a logic-analyzer
//! trace. The format is a compact delta/varint encoding: traces are
//! dominated by small cycle deltas and spatially local addresses, so the
//! typical transaction costs 3–6 bytes instead of 17.
//!
//! Format (v2): magic `CMPT` + version byte, then per transaction:
//! a tag byte (2 bits kind, 6 bits reserved), a varint cycle delta, and a
//! varint zigzag-encoded line-address delta. The body is terminated by a
//! footer — sentinel tag `0xFF`, a varint transaction count, and the
//! 64-bit FNV-1a checksum of the body bytes (fixed little-endian) — so a
//! torn capture is distinguishable from a complete shorter trace. The
//! same FNV-1a constants seal the runner's result-cache and journal
//! records. Version-1 traces (no footer) are rejected: a trace without a
//! footer cannot tell a torn capture from a complete one.
//!
//! # Interplay with `cmpsim-faults`
//!
//! The writer requires non-decreasing cycles: a transaction whose cycle
//! stamp went backwards (as produced by cmpsim-faults cycle-jitter or
//! reorder injection) is clamped forward to the previous cycle, so a
//! fault-injected stream round-trips to a *different* — monotone —
//! stream. Every clamp is counted and exposed via
//! [`TraceWriter::clamped`]; a clean platform stream is monotone by
//! construction, so capture/replay byte-identity tests assert the
//! counter is zero before trusting a recorded trace.

use crate::addr::Addr;
use crate::fsb::{FsbKind, FsbTransaction};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"CMPT";
/// Trace format version (v2: checksummed footer).
const VERSION: u8 = 2;
/// Footer sentinel: not a valid kind code, so the reader knows the body
/// is complete.
const FOOTER_TAG: u8 = 0xFF;

/// FNV-1a 64-bit offset basis — same pinned constants as the runner's
/// record codec (`cmpsim-runner::hash`), duplicated here because the
/// trace crate sits below the runner in the dependency order.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv1a64_step(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV_PRIME)
}

/// Encodes `v` as a varint into `buf` at `at`, returning the index just
/// past it. `buf` must have room for 10 bytes from `at`.
#[inline]
fn put_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = (v & 0x7F) as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
}

fn read_varint<R: Read>(r: &mut R) -> io::Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut buf = [0u8; 1];
        r.read_exact(&mut buf)?;
        if shift >= 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "varint too long",
            ));
        }
        v |= u64::from(buf[0] & 0x7F) << shift;
        if buf[0] & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn kind_code(kind: FsbKind) -> u8 {
    match kind {
        FsbKind::ReadLine => 0,
        FsbKind::ReadInvalidateLine => 1,
        FsbKind::WriteLine => 2,
        FsbKind::Message => 3,
    }
}

fn code_kind(code: u8) -> io::Result<FsbKind> {
    Ok(match code {
        0 => FsbKind::ReadLine,
        1 => FsbKind::ReadInvalidateLine,
        2 => FsbKind::WriteLine,
        3 => FsbKind::Message,
        c => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad kind code {c}"),
            ))
        }
    })
}

/// Streaming writer for FSB traces.
///
/// Generic writers can be passed by `&mut` reference
/// ([C-RW-VALUE]): `TraceWriter::new(&mut my_vec)?` works.
///
/// Dropping the writer without calling [`finish`](Self::finish) leaves
/// the trace without its footer: a v2 reader rejects it as torn, which
/// is exactly what a crash mid-capture should look like.
///
/// # Example
///
/// ```
/// use cmpsim_trace::{Addr, FsbKind, FsbTransaction};
/// use cmpsim_trace::file::{TraceReader, TraceWriter};
///
/// # fn main() -> std::io::Result<()> {
/// let mut buf = Vec::new();
/// let mut w = TraceWriter::new(&mut buf)?;
/// w.write(&FsbTransaction::new(5, FsbKind::ReadLine, Addr::new(0x1000)))?;
/// w.write(&FsbTransaction::new(7, FsbKind::WriteLine, Addr::new(0x1040)))?;
/// let _ = w.finish().unwrap();
/// let txns: Vec<_> = TraceReader::new(buf.as_slice())?
///     .collect::<std::io::Result<_>>()?;
/// assert_eq!(txns.len(), 2);
/// assert_eq!(txns[1].addr, Addr::new(0x1040));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct TraceWriter<W> {
    out: W,
    last_cycle: u64,
    last_line: i64,
    count: u64,
    clamped: u64,
    hash: u64,
}

/// Line granularity used for address deltas (the minimum bus transfer).
const LINE: u64 = 64;

impl<W: Write> TraceWriter<W> {
    /// Creates a writer, emitting the header.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the underlying writer.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(MAGIC)?;
        out.write_all(&[VERSION])?;
        Ok(TraceWriter {
            out,
            last_cycle: 0,
            last_line: 0,
            count: 0,
            clamped: 0,
            hash: FNV_OFFSET,
        })
    }

    /// Writes body bytes, folding them into the running footer checksum.
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        for &b in bytes {
            self.hash = fnv1a64_step(self.hash, b);
        }
        self.out.write_all(bytes)
    }

    /// Appends one transaction.
    ///
    /// Transactions must have non-decreasing cycles; an earlier cycle is
    /// clamped forward to the previous one and counted in
    /// [`clamped`](Self::clamped) (see the module docs on
    /// `cmpsim-faults` interplay).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn write(&mut self, txn: &FsbTransaction) -> io::Result<()> {
        if txn.cycle < self.last_cycle {
            self.clamped += 1;
        }
        let cycle = txn.cycle.max(self.last_cycle);
        let line = (txn.addr.raw() / LINE) as i64;
        // Encode into a stack scratch (1 tag + two ≤10-byte varints) so
        // the checksum fold and the write happen in one pass.
        let mut scratch = [0u8; 21];
        scratch[0] = kind_code(txn.kind);
        let used = put_varint(&mut scratch, 1, cycle - self.last_cycle);
        let used = put_varint(&mut scratch, used, zigzag(line - self.last_line));
        self.put(&scratch[..used])?;
        self.last_cycle = cycle;
        self.last_line = line;
        self.count += 1;
        Ok(())
    }

    /// Transactions written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Transactions whose cycle stamp went backwards and was clamped
    /// forward. Zero on a clean (monotone) platform stream; nonzero
    /// means the input was perturbed (e.g. by `cmpsim-faults`) and the
    /// trace is **not** a faithful round-trip of it.
    pub fn clamped(&self) -> u64 {
        self.clamped
    }

    /// Writes the footer (sentinel + transaction count + body
    /// checksum), flushes, and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors.
    pub fn finish(mut self) -> io::Result<W> {
        let mut footer = [0u8; 19];
        footer[0] = FOOTER_TAG;
        let at = put_varint(&mut footer, 1, self.count);
        footer[at..at + 8].copy_from_slice(&self.hash.to_le_bytes());
        self.out.write_all(&footer[..at + 8])?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// Streaming reader for FSB traces; iterates transactions.
///
/// Reads the v2 format. Hitting end-of-file before the footer — or a
/// footer whose transaction count or body checksum disagrees with what
/// was read — is an `InvalidData` error: a torn capture must not be
/// mistaken for a complete shorter trace.
#[derive(Debug)]
pub struct TraceReader<R> {
    input: R,
    last_cycle: u64,
    last_line: i64,
    done: bool,
    count: u64,
    hash: u64,
}

impl<R: Read> TraceReader<R> {
    /// Opens a trace, validating the header.
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` for a bad magic or unsupported version.
    pub fn new(mut input: R) -> io::Result<Self> {
        let mut header = [0u8; 5];
        input.read_exact(&mut header)?;
        if &header[..4] != MAGIC {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "bad magic"));
        }
        if header[4] != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported trace version {}", header[4]),
            ));
        }
        Ok(TraceReader {
            input,
            last_cycle: 0,
            last_line: 0,
            done: false,
            count: 0,
            hash: FNV_OFFSET,
        })
    }

    /// Reads one body byte, folding it into the running checksum.
    fn body_byte(&mut self) -> io::Result<u8> {
        let mut buf = [0u8; 1];
        self.input.read_exact(&mut buf)?;
        self.hash = fnv1a64_step(self.hash, buf[0]);
        Ok(buf[0])
    }

    /// Reads a body varint through the checksum.
    fn body_varint(&mut self) -> io::Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.body_byte()?;
            if shift >= 64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "varint too long",
                ));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Verifies the v2 footer after its sentinel tag has been consumed.
    fn verify_footer(&mut self) -> io::Result<()> {
        let count = read_varint(&mut self.input)?;
        let mut sum = [0u8; 8];
        self.input.read_exact(&mut sum)?;
        if count != self.count {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "trace footer count mismatch: footer says {count}, body held {}",
                    self.count
                ),
            ));
        }
        if u64::from_le_bytes(sum) != self.hash {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trace footer checksum mismatch",
            ));
        }
        let mut trailing = [0u8; 1];
        match self.input.read_exact(&mut trailing) {
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => Ok(()),
            Ok(()) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing data after trace footer",
            )),
            Err(e) => Err(e),
        }
    }

    fn read_one(&mut self) -> io::Result<Option<FsbTransaction>> {
        let mut tag = [0u8; 1];
        match self.input.read_exact(&mut tag) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "torn trace: ended before its footer",
                ));
            }
            Err(e) => return Err(e),
        }
        if tag[0] == FOOTER_TAG {
            self.verify_footer()?;
            return Ok(None);
        }
        self.hash = fnv1a64_step(self.hash, tag[0]);
        let kind = code_kind(tag[0])?;
        self.last_cycle += self.body_varint()?;
        self.last_line += unzigzag(self.body_varint()?);
        if self.last_line < 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "negative address",
            ));
        }
        self.count += 1;
        Ok(Some(FsbTransaction::new(
            self.last_cycle,
            kind,
            Addr::new(self.last_line as u64 * LINE),
        )))
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = io::Result<FsbTransaction>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.read_one() {
            Ok(Some(t)) => Some(Ok(t)),
            Ok(None) => {
                self.done = true;
                None
            }
            Err(e) => {
                self.done = true;
                Some(Err(e))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn encode(txns: &[FsbTransaction]) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for t in txns {
            w.write(t).unwrap();
        }
        assert_eq!(w.count(), txns.len() as u64);
        let _ = w.finish().unwrap();
        buf
    }

    fn decode(buf: &[u8]) -> io::Result<Vec<FsbTransaction>> {
        TraceReader::new(buf)?.collect()
    }

    fn roundtrip(txns: &[FsbTransaction]) -> Vec<FsbTransaction> {
        decode(&encode(txns)).unwrap()
    }

    /// Bytes the footer of a trace holding `count` transactions occupies.
    fn footer_len(count: u64) -> usize {
        put_varint(&mut [0u8; 11], 1, count) + 8
    }

    #[test]
    fn empty_trace_roundtrips() {
        assert!(roundtrip(&[]).is_empty());
    }

    #[test]
    fn simple_roundtrip() {
        let txns = vec![
            FsbTransaction::new(1, FsbKind::ReadLine, Addr::new(0x1000)),
            FsbTransaction::new(5, FsbKind::WriteLine, Addr::new(0x2000)),
            FsbTransaction::new(5, FsbKind::ReadInvalidateLine, Addr::new(0x1000)),
        ];
        assert_eq!(roundtrip(&txns), txns);
    }

    #[test]
    fn random_stream_roundtrips() {
        let mut rng = Pcg32::seed(5);
        let mut cycle = 0u64;
        let txns: Vec<FsbTransaction> = (0..5_000)
            .map(|_| {
                cycle += rng.below(1000);
                let kind = match rng.below(3) {
                    0 => FsbKind::ReadLine,
                    1 => FsbKind::ReadInvalidateLine,
                    _ => FsbKind::WriteLine,
                };
                FsbTransaction::new(cycle, kind, Addr::new(rng.below(1 << 32) & !63))
            })
            .collect();
        assert_eq!(roundtrip(&txns), txns);
    }

    #[test]
    fn compression_beats_naive_encoding() {
        // Sequential streaming with small cycle deltas: far below the
        // naive 17 bytes per transaction.
        let txns: Vec<FsbTransaction> = (0..10_000u64)
            .map(|i| FsbTransaction::new(i * 3, FsbKind::ReadLine, Addr::new(i * 64)))
            .collect();
        let buf = encode(&txns);
        assert!(
            buf.len() < txns.len() * 5,
            "{} bytes for {} transactions",
            buf.len(),
            txns.len()
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let buf = b"NOPE\x01".to_vec();
        assert!(TraceReader::new(buf.as_slice()).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let buf = b"CMPT\x09".to_vec();
        assert!(TraceReader::new(buf.as_slice()).is_err());
    }

    #[test]
    fn truncated_body_is_error() {
        let txns = [FsbTransaction::new(
            100,
            FsbKind::ReadLine,
            Addr::new(0x40_0000),
        )];
        let mut buf = encode(&txns);
        buf.truncate(buf.len() - footer_len(1) - 1);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn clean_streams_write_zero_clamps() {
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for c in [1u64, 5, 5, 9] {
            w.write(&FsbTransaction::new(
                c,
                FsbKind::ReadLine,
                Addr::new(c * 64),
            ))
            .unwrap();
        }
        assert_eq!(w.clamped(), 0);
    }

    #[test]
    fn backwards_cycles_are_clamped_and_counted() {
        // A cmpsim-faults style jittered/reordered stream: cycles go
        // backwards twice. The writer clamps both forward — the trace
        // differs from the input — and says so via the counter.
        let txns = [
            FsbTransaction::new(100, FsbKind::ReadLine, Addr::new(0x1000)),
            FsbTransaction::new(40, FsbKind::WriteLine, Addr::new(0x2000)),
            FsbTransaction::new(150, FsbKind::ReadLine, Addr::new(0x3000)),
            FsbTransaction::new(149, FsbKind::Message, Addr::new(0x4000)),
        ];
        let mut buf = Vec::new();
        let mut w = TraceWriter::new(&mut buf).unwrap();
        for t in &txns {
            w.write(t).unwrap();
        }
        assert_eq!(w.clamped(), 2);
        let _ = w.finish().unwrap();
        let out = decode(&buf).unwrap();
        let cycles: Vec<u64> = out.iter().map(|t| t.cycle).collect();
        assert_eq!(cycles, [100, 100, 150, 150], "clamped forward, monotone");
    }

    #[test]
    fn torn_v2_trace_missing_footer_rejected() {
        let txns = [FsbTransaction::new(7, FsbKind::ReadLine, Addr::new(0x40))];
        let mut buf = encode(&txns);
        // Strip the whole footer: the body alone must read as torn.
        buf.truncate(buf.len() - footer_len(1));
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
    }

    #[test]
    fn torn_v2_trace_partial_footer_rejected() {
        let txns = [FsbTransaction::new(7, FsbKind::ReadLine, Addr::new(0x40))];
        let mut buf = encode(&txns);
        buf.truncate(buf.len() - 3);
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn footer_count_mismatch_rejected() {
        let txns = [FsbTransaction::new(7, FsbKind::ReadLine, Addr::new(0x40))];
        let mut buf = encode(&txns);
        // The count varint sits right after the footer sentinel; the
        // checksum does not cover the footer, so only the count check
        // can catch this.
        let pos = buf.len() - 9;
        assert_eq!(buf[pos - 1], FOOTER_TAG);
        buf[pos] = 2;
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("count mismatch"), "{err}");
    }

    #[test]
    fn footer_checksum_mismatch_rejected() {
        let txns = [
            FsbTransaction::new(7, FsbKind::ReadLine, Addr::new(0x40)),
            FsbTransaction::new(9, FsbKind::WriteLine, Addr::new(0x80)),
        ];
        let mut buf = encode(&txns);
        let last = buf.len() - 1;
        buf[last] ^= 0xA5;
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
    }

    #[test]
    fn corrupted_body_byte_detected() {
        // Flip a body bit that still decodes as plausible transactions:
        // without the footer checksum this corruption was silent.
        let txns: Vec<FsbTransaction> = (0..100u64)
            .map(|i| FsbTransaction::new(i * 2, FsbKind::ReadLine, Addr::new(i * 64)))
            .collect();
        let mut buf = encode(&txns);
        buf[20] ^= 0x01;
        assert!(decode(&buf).is_err());
    }

    #[test]
    fn trailing_data_after_footer_rejected() {
        let txns = [FsbTransaction::new(7, FsbKind::ReadLine, Addr::new(0x40))];
        let mut buf = encode(&txns);
        buf.push(0);
        let err = decode(&buf).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
    }

    #[test]
    fn v1_traces_are_rejected() {
        // A footer-less v1 trace cannot prove it is complete.
        let mut buf = b"CMPT\x01".to_vec();
        buf.push(FOOTER_TAG);
        let err = TraceReader::new(buf.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("unsupported trace version 1"),
            "{err}"
        );
    }

    #[test]
    fn message_window_addresses_roundtrip() {
        // Messages live at huge addresses; the zigzag delta handles the
        // jump up and back down.
        use crate::message::{Message, MessageCodec};
        let mut txns = MessageCodec::encode(Message::InstructionsRetired(1 << 40), 3);
        txns.push(FsbTransaction::new(4, FsbKind::ReadLine, Addr::new(0x1000)));
        assert_eq!(roundtrip(&txns), txns);
    }

    #[test]
    fn extreme_address_streams_roundtrip_with_identical_message_payloads() {
        // Property test over the codec's worst cases: message-window
        // addresses near 1 << 46 interleaved with far-apart data lines
        // (maximal forward/backward line deltas), all four FsbKinds.
        // Beyond txn equality, the decoded stream must drive a
        // MessageCodec to the *same* payloads as the original — the
        // invariant capture/replay's per-core attribution rests on.
        use crate::message::{Message, MessageCodec};

        fn decode_messages(txns: &[FsbTransaction]) -> Vec<Message> {
            let mut codec = MessageCodec::new();
            let mut out = Vec::new();
            for t in txns.iter().filter(|t| t.kind == FsbKind::Message) {
                if let Ok(Some(m)) = codec.decode(t) {
                    out.push(m);
                }
            }
            assert_eq!(codec.stats().desyncs, 0);
            out
        }

        let mut rng = Pcg32::seed(0xC0FFEE);
        for _ in 0..50 {
            let mut cycle = 0u64;
            let mut txns: Vec<FsbTransaction> = Vec::new();
            for _ in 0..200 {
                cycle += rng.below(1 << 20);
                match rng.below(4) {
                    0 => {
                        // Payload-bearing messages with huge counters:
                        // both halves live near the top of the window.
                        let v = rng.below(u64::MAX >> 1) | (1 << 62);
                        let msg = if rng.below(2) == 0 {
                            Message::InstructionsRetired(v)
                        } else {
                            Message::CyclesCompleted(v)
                        };
                        txns.extend(MessageCodec::encode(msg, cycle));
                    }
                    1 => {
                        let msg = match rng.below(3) {
                            0 => Message::Start,
                            1 => Message::Stop,
                            _ => Message::CoreId(rng.below(32) as u32),
                        };
                        txns.extend(MessageCodec::encode(msg, cycle));
                    }
                    2 => {
                        // Data near address zero: a maximal backward
                        // line delta when it follows a message.
                        let kind = match rng.below(3) {
                            0 => FsbKind::ReadLine,
                            1 => FsbKind::ReadInvalidateLine,
                            _ => FsbKind::WriteLine,
                        };
                        txns.push(FsbTransaction::new(
                            cycle,
                            kind,
                            Addr::new(rng.below(1 << 20) & !63),
                        ));
                    }
                    _ => {
                        // Data just below the message window: the line
                        // delta to/from here stresses the zigzag range.
                        txns.push(FsbTransaction::new(
                            cycle,
                            FsbKind::ReadLine,
                            Addr::new(((1u64 << 46) - rng.below(1 << 24)) & !63),
                        ));
                    }
                }
            }
            let mut buf = Vec::new();
            let mut w = TraceWriter::new(&mut buf).unwrap();
            for t in &txns {
                w.write(t).unwrap();
            }
            assert_eq!(w.clamped(), 0, "generated stream is monotone");
            let _ = w.finish().unwrap();
            let out = decode(&buf).unwrap();
            assert_eq!(out, txns);
            assert_eq!(decode_messages(&out), decode_messages(&txns));
        }
    }

    #[test]
    fn footer_checksum_matches_pinned_fnv_constants() {
        // An empty body's checksum is the FNV-1a offset basis — the same
        // pinned constant as the runner's record codec. Changing either
        // silently would orphan every trace on disk.
        let buf = encode(&[]);
        let sum = u64::from_le_bytes(buf[buf.len() - 8..].try_into().unwrap());
        assert_eq!(sum, 0xcbf2_9ce4_8422_2325);
    }
}
