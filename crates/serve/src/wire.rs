//! The length-delimited wire protocol.
//!
//! Every message is one **frame**: a little-endian `u32` payload length
//! followed by that many payload bytes.  The payload's first byte is a
//! message tag; the rest is the tag's fixed-width little-endian fields (a
//! repeated group for the variable-length messages).  There is no
//! negotiation and no compression — the protocol exists to move `u64`s and
//! `i64`s across loopback with zero parsing ambiguity and zero
//! allocations: every encoder writes into a caller-supplied `Vec<u8>`
//! (cleared, then filled — its capacity is reused across frames) and every
//! decoder borrows from the received payload.
//!
//! | tag  | message | fields |
//! |------|---------|--------|
//! | 0x01 | [`Request::Point`] | `item: u64` |
//! | 0x02 | [`Request::TopK`] | `k: u16`, `count: u16`, `candidates: u64 × count` |
//! | 0x03 | [`Request::Subscribe`] | `k: u16`, `interval_ms: u32`, `count: u16`, `candidates: u64 × count` |
//! | 0x04 | [`Request::Stats`] | — |
//! | 0x81 | [`Response::Point`] | [`meta`](WireMeta), `estimate: i64` |
//! | 0x82 | [`Response::TopK`] | `meta`, `count: u16`, `(item: u64, estimate: u64) × count` |
//! | 0x83 | [`Response::Update`] | `seq: u64`, `meta`, `count: u16`, `(item, estimate) × count` |
//! | 0x84 | [`Response::Stats`] | 7 × `u64` counters |
//! | 0x85 | [`Response::Overloaded`] | `retry_after_ms: u32` |
//! | 0x86 | [`Response::Error`] | `code: u8` |
//!
//! `meta` is the 32-byte epoch/coverage block ([`WireMeta`]) every
//! data-bearing response carries, so a client always knows *which* prefix
//! of the stream — and how much of it — an answer reflects.
//!
//! Decoding is total: any byte sequence decodes to either a message or a
//! typed [`WireError`].  Nothing in this module panics on input.

/// Hard cap on a frame's payload length.  Far above any legitimate message
/// (the largest is a top-k update with [`MAX_CANDIDATES`] entries) and far
/// below anything that could balloon a read buffer: a peer announcing more
/// is broken or hostile, and the connection is dropped.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Hard cap on candidate-set / top-k entry counts within one message.
pub const MAX_CANDIDATES: usize = 4096;

/// The epoch/coverage block carried by every data-bearing response:
/// a compact wire form of the pipeline's `SnapshotView` metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireMeta {
    /// Acknowledged updates the answering view accounts for, covered or
    /// not, so it never moves backwards for a client across shard deaths,
    /// restarts and rescales.
    pub epoch: u64,
    /// Worker-set generation (number of completed rescales) that served it.
    pub generation: u64,
    /// Shards represented in the view.
    pub shards_ok: u32,
    /// Dead shards contributing nothing to the view.
    pub shards_failed: u32,
    /// The part of `epoch` the view does not cover (lost to dead workers).
    pub uncovered_items: u64,
}

impl WireMeta {
    /// `true` when the answering view covered every shard and item.
    pub fn is_full(&self) -> bool {
        self.shards_failed == 0 && self.uncovered_items == 0
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Estimate one item's frequency.
    Point {
        /// The item queried.
        item: u64,
    },
    /// The `k` largest estimates among the supplied candidates.
    TopK {
        /// How many winners to return.
        k: u16,
        /// The candidate set to rank (sketches cannot enumerate keys).
        candidates: Vec<u64>,
    },
    /// Switch this connection to push mode: the server sends a
    /// [`Response::Update`] with a refreshed top-k every `interval_ms`.
    Subscribe {
        /// How many winners each update carries.
        k: u16,
        /// Push cadence, in milliseconds (clamped server-side).
        interval_ms: u32,
        /// The candidate set each update ranks.
        candidates: Vec<u64>,
    },
    /// Ask for the server's counters.
    Stats,
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The pipeline behind the server has finished; no views exist.
    Finished,
    /// The request was structurally valid but unserviceable (e.g. `k == 0`).
    BadRequest,
}

impl ErrorCode {
    fn to_byte(self) -> u8 {
        match self {
            ErrorCode::Finished => 1,
            ErrorCode::BadRequest => 2,
        }
    }

    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            1 => Some(ErrorCode::Finished),
            2 => Some(ErrorCode::BadRequest),
            _ => None,
        }
    }
}

/// The server's counters, as carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Requests admitted past the load-shedding layer.
    pub accepted: u64,
    /// Requests refused with [`Response::Overloaded`].
    pub shed: u64,
    /// Point queries answered from another request's snapshot fetch.
    pub coalesced: u64,
    /// Subscriptions accepted.
    pub subscribed: u64,
    /// Snapshot-cache hits behind the coalescer.
    pub cache_hits: u64,
    /// Snapshot-cache misses behind the coalescer.
    pub cache_misses: u64,
    /// Updates acknowledged by the pipeline when the stats were read.
    pub acknowledged: u64,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Answer to [`Request::Point`].
    Point {
        /// Epoch/coverage of the answering view.
        meta: WireMeta,
        /// The frequency estimate.
        estimate: i64,
    },
    /// Answer to [`Request::TopK`].
    TopK {
        /// Epoch/coverage of the answering view.
        meta: WireMeta,
        /// `(item, estimate)` pairs, largest first.
        entries: Vec<(u64, u64)>,
    },
    /// One pushed subscription update.
    Update {
        /// Tick index since the subscription started.  Gaps mean the
        /// server skipped ticks for this consumer (latest-only delivery).
        seq: u64,
        /// Epoch/coverage of the answering view.
        meta: WireMeta,
        /// `(item, estimate)` pairs, largest first.
        entries: Vec<(u64, u64)>,
    },
    /// Answer to [`Request::Stats`].
    Stats(WireStats),
    /// The admission layer refused the request; retry after the hint.
    Overloaded {
        /// Client backoff hint, in milliseconds.
        retry_after_ms: u32,
    },
    /// The request could not be served; see [`ErrorCode`].
    Error(ErrorCode),
}

/// Everything that can go wrong turning bytes into a message.  Total and
/// panic-free: garbage input is a value of this type, never an abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message's fixed-width fields did.
    Truncated,
    /// The payload's first byte is not a known message tag.
    UnknownTag(u8),
    /// Bytes remained after the message's last field.
    Trailing,
    /// A frame header announced a payload above [`MAX_FRAME_BYTES`].
    FrameTooLarge(usize),
    /// A count field exceeded [`MAX_CANDIDATES`].
    TooManyEntries(usize),
    /// A field held a value outside its domain (e.g. an unknown error code).
    BadValue,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::UnknownTag(tag) => write!(f, "unknown message tag {tag:#04x}"),
            WireError::Trailing => write!(f, "trailing bytes after message"),
            WireError::FrameTooLarge(len) => write!(f, "frame of {len} bytes exceeds cap"),
            WireError::TooManyEntries(n) => write!(f, "{n} entries exceed cap"),
            WireError::BadValue => write!(f, "field value outside its domain"),
        }
    }
}

impl std::error::Error for WireError {}

/// Cursor over a payload; every read is bounds-checked into [`WireError`].
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.bytes.len() {
            return Err(WireError::Truncated);
        }
        let slice = &self.bytes[self.at..end];
        self.at = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(self.u64()? as i64)
    }

    fn finish(self) -> Result<(), WireError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_meta(out: &mut Vec<u8>, meta: &WireMeta) {
    put_u64(out, meta.epoch);
    put_u64(out, meta.generation);
    put_u32(out, meta.shards_ok);
    put_u32(out, meta.shards_failed);
    put_u64(out, meta.uncovered_items);
}

fn read_meta(r: &mut Reader<'_>) -> Result<WireMeta, WireError> {
    Ok(WireMeta {
        epoch: r.u64()?,
        generation: r.u64()?,
        shards_ok: r.u32()?,
        shards_failed: r.u32()?,
        uncovered_items: r.u64()?,
    })
}

fn read_entry_count(r: &mut Reader<'_>) -> Result<usize, WireError> {
    let count = r.u16()? as usize;
    if count > MAX_CANDIDATES {
        return Err(WireError::TooManyEntries(count));
    }
    Ok(count)
}

/// Writes `payload`'s frame header + body into `out` (cleared first).  The
/// closure fills the payload; the header is fixed up afterwards.
fn frame(out: &mut Vec<u8>, fill: impl FnOnce(&mut Vec<u8>)) {
    out.clear();
    out.extend_from_slice(&[0u8; 4]);
    fill(out);
    let len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&len.to_le_bytes());
}

impl Request {
    /// Encodes this request as one frame (header + payload) into `out`,
    /// clearing it first.  Entry counts beyond [`MAX_CANDIDATES`] are
    /// reported instead of encoded — an over-long request would only be
    /// rejected by the peer's decoder anyway.
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Request::TopK { candidates, .. } | Request::Subscribe { candidates, .. }
                if candidates.len() > MAX_CANDIDATES =>
            {
                return Err(WireError::TooManyEntries(candidates.len()));
            }
            _ => {}
        }
        frame(out, |out| match self {
            Request::Point { item } => {
                out.push(0x01);
                put_u64(out, *item);
            }
            Request::TopK { k, candidates } => {
                out.push(0x02);
                put_u16(out, *k);
                put_u16(out, candidates.len() as u16);
                for candidate in candidates {
                    put_u64(out, *candidate);
                }
            }
            Request::Subscribe {
                k,
                interval_ms,
                candidates,
            } => {
                out.push(0x03);
                put_u16(out, *k);
                put_u32(out, *interval_ms);
                put_u16(out, candidates.len() as u16);
                for candidate in candidates {
                    put_u64(out, *candidate);
                }
            }
            Request::Stats => out.push(0x04),
        });
        Ok(())
    }

    /// Decodes one request payload (the bytes *after* the frame header).
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let request = match r.u8()? {
            0x01 => Request::Point { item: r.u64()? },
            0x02 => {
                let k = r.u16()?;
                let count = read_entry_count(&mut r)?;
                let mut candidates = Vec::with_capacity(count);
                for _ in 0..count {
                    candidates.push(r.u64()?);
                }
                Request::TopK { k, candidates }
            }
            0x03 => {
                let k = r.u16()?;
                let interval_ms = r.u32()?;
                let count = read_entry_count(&mut r)?;
                let mut candidates = Vec::with_capacity(count);
                for _ in 0..count {
                    candidates.push(r.u64()?);
                }
                Request::Subscribe {
                    k,
                    interval_ms,
                    candidates,
                }
            }
            0x04 => Request::Stats,
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(request)
    }
}

impl Response {
    /// Encodes this response as one frame into `out`, clearing it first.
    /// Entry counts beyond [`MAX_CANDIDATES`] are reported instead of
    /// encoded, as for [`Request::encode`].
    pub fn encode(&self, out: &mut Vec<u8>) -> Result<(), WireError> {
        match self {
            Response::TopK { entries, .. } | Response::Update { entries, .. }
                if entries.len() > MAX_CANDIDATES =>
            {
                return Err(WireError::TooManyEntries(entries.len()));
            }
            _ => {}
        }
        frame(out, |out| match self {
            Response::Point { meta, estimate } => {
                out.push(0x81);
                put_meta(out, meta);
                put_u64(out, *estimate as u64);
            }
            Response::TopK { meta, entries } => {
                out.push(0x82);
                put_meta(out, meta);
                put_u16(out, entries.len() as u16);
                for (item, estimate) in entries {
                    put_u64(out, *item);
                    put_u64(out, *estimate);
                }
            }
            Response::Update { seq, meta, entries } => {
                out.push(0x83);
                put_u64(out, *seq);
                put_meta(out, meta);
                put_u16(out, entries.len() as u16);
                for (item, estimate) in entries {
                    put_u64(out, *item);
                    put_u64(out, *estimate);
                }
            }
            Response::Stats(stats) => {
                out.push(0x84);
                put_u64(out, stats.accepted);
                put_u64(out, stats.shed);
                put_u64(out, stats.coalesced);
                put_u64(out, stats.subscribed);
                put_u64(out, stats.cache_hits);
                put_u64(out, stats.cache_misses);
                put_u64(out, stats.acknowledged);
            }
            Response::Overloaded { retry_after_ms } => {
                out.push(0x85);
                put_u32(out, *retry_after_ms);
            }
            Response::Error(code) => {
                out.push(0x86);
                out.push(code.to_byte());
            }
        });
        Ok(())
    }

    /// Decodes one response payload (the bytes *after* the frame header).
    pub fn decode(payload: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(payload);
        let response = match r.u8()? {
            0x81 => Response::Point {
                meta: read_meta(&mut r)?,
                estimate: r.i64()?,
            },
            0x82 => {
                let meta = read_meta(&mut r)?;
                let count = read_entry_count(&mut r)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((r.u64()?, r.u64()?));
                }
                Response::TopK { meta, entries }
            }
            0x83 => {
                let seq = r.u64()?;
                let meta = read_meta(&mut r)?;
                let count = read_entry_count(&mut r)?;
                let mut entries = Vec::with_capacity(count);
                for _ in 0..count {
                    entries.push((r.u64()?, r.u64()?));
                }
                Response::Update { seq, meta, entries }
            }
            0x84 => Response::Stats(WireStats {
                accepted: r.u64()?,
                shed: r.u64()?,
                coalesced: r.u64()?,
                subscribed: r.u64()?,
                cache_hits: r.u64()?,
                cache_misses: r.u64()?,
                acknowledged: r.u64()?,
            }),
            0x85 => Response::Overloaded {
                retry_after_ms: r.u32()?,
            },
            0x86 => Response::Error(ErrorCode::from_byte(r.u8()?).ok_or(WireError::BadValue)?),
            tag => return Err(WireError::UnknownTag(tag)),
        };
        r.finish()?;
        Ok(response)
    }
}

/// Validates a frame header's announced payload length against the cap.
pub fn check_frame_len(len: u32, cap: usize) -> Result<usize, WireError> {
    let len = len as usize;
    if len > cap {
        Err(WireError::FrameTooLarge(len))
    } else {
        Ok(len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_roundtrip() {
        let requests = [
            Request::Point { item: 42 },
            Request::TopK {
                k: 5,
                candidates: vec![1, 2, 3],
            },
            Request::Subscribe {
                k: 2,
                interval_ms: 250,
                candidates: vec![9, 8],
            },
            Request::Stats,
        ];
        let mut buf = Vec::new();
        for request in &requests {
            request.encode(&mut buf).expect("encodable");
            let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
            assert_eq!(len, buf.len() - 4, "header length matches payload");
            assert_eq!(&Request::decode(&buf[4..]).expect("decodable"), request);
        }
    }

    #[test]
    fn responses_roundtrip() {
        let meta = WireMeta {
            epoch: 1_000,
            generation: 2,
            shards_ok: 3,
            shards_failed: 1,
            uncovered_items: 17,
        };
        let responses = [
            Response::Point { meta, estimate: -4 },
            Response::TopK {
                meta,
                entries: vec![(7, 99), (8, 12)],
            },
            Response::Update {
                seq: 6,
                meta,
                entries: vec![(1, 2)],
            },
            Response::Stats(WireStats {
                accepted: 1,
                shed: 2,
                coalesced: 3,
                subscribed: 4,
                cache_hits: 5,
                cache_misses: 6,
                acknowledged: 7,
            }),
            Response::Overloaded { retry_after_ms: 40 },
            Response::Error(ErrorCode::Finished),
        ];
        let mut buf = Vec::new();
        for response in &responses {
            response.encode(&mut buf).expect("encodable");
            assert_eq!(&Response::decode(&buf[4..]).expect("decodable"), response);
        }
    }

    #[test]
    fn truncation_and_garbage_are_typed_errors() {
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
        assert_eq!(Request::decode(&[0x01, 1, 2]), Err(WireError::Truncated));
        assert_eq!(Request::decode(&[0x77]), Err(WireError::UnknownTag(0x77)));
        assert_eq!(
            Request::decode(&[0x04, 0xff]),
            Err(WireError::Trailing),
            "stats carries no fields"
        );
        assert_eq!(Response::decode(&[0x86, 200]), Err(WireError::BadValue));
        let huge = [0x02, 1, 0, 0xff, 0xff];
        assert_eq!(
            Request::decode(&huge),
            Err(WireError::TooManyEntries(0xffff))
        );
    }

    #[test]
    fn oversized_frames_are_rejected_up_front() {
        assert!(check_frame_len(10, MAX_FRAME_BYTES).is_ok());
        assert_eq!(
            check_frame_len((MAX_FRAME_BYTES + 1) as u32, MAX_FRAME_BYTES),
            Err(WireError::FrameTooLarge(MAX_FRAME_BYTES + 1))
        );
    }
}
