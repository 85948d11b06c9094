//! Length-prefixed binary wire protocol for the TCP front-end.
//!
//! Every frame is `u32 LE body length` + body; the body starts with a
//! one-byte opcode. Integers are little-endian; floats are LE IEEE-754
//! bit patterns (estimates survive the wire bit-exactly).
//!
//! | opcode | direction | frame |
//! |--------|-----------|-------|
//! | `0x01` | c → s | SUBMIT  `req_id:u64, priority:u8, deadline_ms:u64, ndims:u16, (lo:u64, hi:u64)×ndims, flags:u8` |
//! | `0x02` | c → s | CANCEL  `req_id:u64` |
//! | `0x03` | c → s | METRICS_REQ |
//! | `0x04` | c → s | SHUTDOWN |
//! | `0x81` | s → c | PROGRESS `req_id:u64, kind:u8, round:u32, used:u64, total:u64, estimate:f64, bound:f64, tier:u8` |
//! | `0x82` | s → c | REJECT  `req_id:u64, code:u8, detail:u32, message:utf8` |
//! | `0x83` | s → c | METRICS_REPLY `utf8 JSON lines` |
//! | `0x84` | s → c | GOODBYE |
//! | `0x85` | s → c | PROFILE `req_id:u64, trace_id:u64, queue_wait_ns:u64, latency_ns:u64, rounds:u32, blocks_read:u64, blocks_shared:u64, cache_hits:u64, cache_misses:u64, retries:u64, degraded:u64, npoints:u16, (round:u32, used:u64, bound:f64)×npoints` |
//!
//! PROGRESS `kind`: 0 = progress, 1 = done, 2 = deadline expired,
//! 3 = cancelled, 4 = shed (terminal best-so-far answer under
//! overload). REJECT `code` is [`ServiceError::code`].
//!
//! SUBMIT `flags`: bit 0 requests tracing (the query then receives a
//! PROFILE frame just before its terminal PROGRESS); other bits must be
//! zero. PROGRESS `tier` is the session's degradation tier
//! ([`Tier::to_wire`]). Both bytes are always present: there is one
//! protocol version, spoken by every in-tree peer.

use std::io::{Read, Write};

use crate::admission::Priority;
use crate::error::ServiceError;
use crate::profile::{QueryProfile, TrajectoryPoint};
use crate::qos::Tier;

/// SUBMIT flags bit: request end-to-end tracing for this query.
const SUBMIT_FLAG_TRACE: u8 = 0x01;

/// Upper bound on a frame body; larger prefixes are protocol errors
/// (guards against garbage length words allocating gigabytes).
pub const MAX_FRAME: usize = 1 << 20;

/// Terminal-or-not classification carried by a PROGRESS frame.
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum ProgressKind {
    /// More refinements will follow.
    Progress,
    /// Final exact-or-bounded answer.
    Done,
    /// Deadline hit; best estimate at expiry.
    DeadlineExpired,
    /// Cancelled mid-flight.
    Cancelled,
    /// Shed under overload; best-so-far answer.
    Shed,
}

impl ProgressKind {
    /// Stable wire encoding.
    pub fn to_wire(self) -> u8 {
        match self {
            ProgressKind::Progress => 0,
            ProgressKind::Done => 1,
            ProgressKind::DeadlineExpired => 2,
            ProgressKind::Cancelled => 3,
            ProgressKind::Shed => 4,
        }
    }

    /// Decodes the wire encoding.
    pub fn from_wire(b: u8) -> Option<ProgressKind> {
        match b {
            0 => Some(ProgressKind::Progress),
            1 => Some(ProgressKind::Done),
            2 => Some(ProgressKind::DeadlineExpired),
            3 => Some(ProgressKind::Cancelled),
            4 => Some(ProgressKind::Shed),
            _ => None,
        }
    }

    /// Whether this frame ends its session.
    pub fn is_terminal(self) -> bool {
        self != ProgressKind::Progress
    }
}

/// One protocol frame (either direction).
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client submits a range-sum query.
    Submit {
        /// Client-chosen correlation id, echoed in every reply.
        req_id: u64,
        /// Scheduling class.
        priority: Priority,
        /// Wall-clock budget in milliseconds; 0 = none.
        deadline_ms: u64,
        /// Inclusive per-dimension bounds.
        ranges: Vec<(u64, u64)>,
        /// Request end-to-end tracing (flags bit 0).
        trace: bool,
    },
    /// Client cancels an in-flight query.
    Cancel {
        /// The id from the SUBMIT being cancelled.
        req_id: u64,
    },
    /// Client asks for a telemetry snapshot.
    MetricsRequest,
    /// Client asks the server to stop accepting connections and exit.
    Shutdown,
    /// Server streams a refinement.
    Progress {
        /// Echo of the SUBMIT id.
        req_id: u64,
        /// Progress / terminal classification.
        kind: ProgressKind,
        /// Scheduler round.
        round: u32,
        /// Query coefficients consumed.
        used: u64,
        /// Total query coefficients.
        total: u64,
        /// Running estimate (bit-exact).
        estimate: f64,
        /// Guaranteed error bound.
        bound: f64,
        /// Degradation tier of the session.
        tier: Tier,
    },
    /// Server refuses a SUBMIT.
    Reject {
        /// Echo of the SUBMIT id.
        req_id: u64,
        /// [`ServiceError::code`].
        code: u8,
        /// Error-specific detail (queue capacity for QueueFull; else 0).
        detail: u32,
        /// Human-readable reason.
        message: String,
    },
    /// Server answers METRICS_REQ with structured JSON lines (registry
    /// snapshot plus one `{"kind":"session",..}` line per live
    /// session). Clients render tables locally.
    MetricsReply {
        /// JSON-lines snapshot.
        json: String,
    },
    /// Server acknowledges SHUTDOWN just before it stops.
    Goodbye,
    /// Server delivers a traced query's cost attribution, immediately
    /// before the terminal PROGRESS for the same `req_id`.
    Profile {
        /// Echo of the SUBMIT id.
        req_id: u64,
        /// The query's full profile (trajectory included).
        profile: QueryProfile,
    },
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// A cursor over a received frame body.
struct Body<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ServiceError> {
        if self.pos + n > self.data.len() {
            return Err(ServiceError::Protocol("truncated frame body".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServiceError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ServiceError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ServiceError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServiceError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, ServiceError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn rest_utf8(&mut self) -> Result<String, ServiceError> {
        let rest = &self.data[self.pos..];
        self.pos = self.data.len();
        String::from_utf8(rest.to_vec())
            .map_err(|_| ServiceError::Protocol("non-UTF-8 text field".into()))
    }

    fn finish(&self) -> Result<(), ServiceError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(ServiceError::Protocol("trailing bytes in frame body".into()))
        }
    }
}

impl Frame {
    /// Serializes the frame body (opcode + payload), without the length
    /// prefix.
    pub fn encode_body(&self) -> Vec<u8> {
        let mut b = Vec::new();
        match self {
            Frame::Submit { req_id, priority, deadline_ms, ranges, trace } => {
                b.push(0x01);
                put_u64(&mut b, *req_id);
                b.push(priority.to_wire());
                put_u64(&mut b, *deadline_ms);
                put_u16(&mut b, ranges.len() as u16);
                for &(lo, hi) in ranges {
                    put_u64(&mut b, lo);
                    put_u64(&mut b, hi);
                }
                b.push(if *trace { SUBMIT_FLAG_TRACE } else { 0 });
            }
            Frame::Cancel { req_id } => {
                b.push(0x02);
                put_u64(&mut b, *req_id);
            }
            Frame::MetricsRequest => b.push(0x03),
            Frame::Shutdown => b.push(0x04),
            Frame::Progress { req_id, kind, round, used, total, estimate, bound, tier } => {
                b.push(0x81);
                put_u64(&mut b, *req_id);
                b.push(kind.to_wire());
                put_u32(&mut b, *round);
                put_u64(&mut b, *used);
                put_u64(&mut b, *total);
                put_f64(&mut b, *estimate);
                put_f64(&mut b, *bound);
                b.push(tier.to_wire());
            }
            Frame::Reject { req_id, code, detail, message } => {
                b.push(0x82);
                put_u64(&mut b, *req_id);
                b.push(*code);
                put_u32(&mut b, *detail);
                b.extend_from_slice(message.as_bytes());
            }
            Frame::MetricsReply { json } => {
                b.push(0x83);
                b.extend_from_slice(json.as_bytes());
            }
            Frame::Goodbye => b.push(0x84),
            Frame::Profile { req_id, profile } => {
                b.push(0x85);
                put_u64(&mut b, *req_id);
                put_u64(&mut b, profile.trace_id);
                put_u64(&mut b, profile.queue_wait_ns);
                put_u64(&mut b, profile.latency_ns);
                put_u32(&mut b, profile.rounds);
                put_u64(&mut b, profile.blocks_read);
                put_u64(&mut b, profile.blocks_shared);
                put_u64(&mut b, profile.cache_hits);
                put_u64(&mut b, profile.cache_misses);
                put_u64(&mut b, profile.retries);
                put_u64(&mut b, profile.degraded_blocks);
                put_u16(&mut b, profile.trajectory.len() as u16);
                for p in &profile.trajectory {
                    put_u32(&mut b, p.round);
                    put_u64(&mut b, p.coefficients_used);
                    put_f64(&mut b, p.error_bound);
                }
            }
        }
        b
    }

    /// Parses a frame body (opcode + payload).
    pub fn decode_body(body: &[u8]) -> Result<Frame, ServiceError> {
        let mut b = Body { data: body, pos: 0 };
        let opcode = b.u8()?;
        let frame = match opcode {
            0x01 => {
                let req_id = b.u64()?;
                let priority = Priority::from_wire(b.u8()?)
                    .ok_or_else(|| ServiceError::Protocol("bad priority byte".into()))?;
                let deadline_ms = b.u64()?;
                let ndims = b.u16()? as usize;
                let mut ranges = Vec::with_capacity(ndims);
                for _ in 0..ndims {
                    ranges.push((b.u64()?, b.u64()?));
                }
                let flags = b.u8()?;
                if flags & !SUBMIT_FLAG_TRACE != 0 {
                    return Err(ServiceError::Protocol(format!(
                        "unknown SUBMIT flags 0x{flags:02x}"
                    )));
                }
                let trace = flags & SUBMIT_FLAG_TRACE != 0;
                Frame::Submit { req_id, priority, deadline_ms, ranges, trace }
            }
            0x02 => Frame::Cancel { req_id: b.u64()? },
            0x03 => Frame::MetricsRequest,
            0x04 => Frame::Shutdown,
            0x81 => {
                let req_id = b.u64()?;
                let kind = ProgressKind::from_wire(b.u8()?)
                    .ok_or_else(|| ServiceError::Protocol("bad progress kind".into()))?;
                let round = b.u32()?;
                let used = b.u64()?;
                let total = b.u64()?;
                let estimate = b.f64()?;
                let bound = b.f64()?;
                let tier = Tier::from_wire(b.u8()?)
                    .ok_or_else(|| ServiceError::Protocol("bad progress tier".into()))?;
                Frame::Progress { req_id, kind, round, used, total, estimate, bound, tier }
            }
            0x82 => {
                let req_id = b.u64()?;
                let code = b.u8()?;
                let detail = b.u32()?;
                let message = b.rest_utf8()?;
                Frame::Reject { req_id, code, detail, message }
            }
            0x83 => Frame::MetricsReply { json: b.rest_utf8()? },
            0x84 => Frame::Goodbye,
            0x85 => {
                let req_id = b.u64()?;
                let mut profile = QueryProfile {
                    trace_id: b.u64()?,
                    queue_wait_ns: b.u64()?,
                    latency_ns: b.u64()?,
                    rounds: b.u32()?,
                    blocks_read: b.u64()?,
                    blocks_shared: b.u64()?,
                    cache_hits: b.u64()?,
                    cache_misses: b.u64()?,
                    retries: b.u64()?,
                    degraded_blocks: b.u64()?,
                    trajectory: Vec::new(),
                };
                let npoints = b.u16()? as usize;
                profile.trajectory.reserve(npoints);
                for _ in 0..npoints {
                    profile.trajectory.push(TrajectoryPoint {
                        round: b.u32()?,
                        coefficients_used: b.u64()?,
                        error_bound: b.f64()?,
                    });
                }
                Frame::Profile { req_id, profile }
            }
            other => {
                return Err(ServiceError::Protocol(format!("unknown opcode 0x{other:02x}")));
            }
        };
        b.finish()?;
        Ok(frame)
    }
}

/// Writes one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), ServiceError> {
    let body = frame.encode_body();
    debug_assert!(body.len() <= MAX_FRAME);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(&body)?;
    w.flush()?;
    Ok(())
}

/// Reads one length-prefixed frame (blocking).
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ServiceError> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(ServiceError::Protocol(format!("bad frame length {len}")));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Frame::decode_body(&body)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(f: Frame) {
        let mut buf = Vec::new();
        write_frame(&mut buf, &f).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(got, f);
    }

    #[test]
    fn every_frame_roundtrips() {
        for trace in [false, true] {
            roundtrip(Frame::Submit {
                req_id: 7,
                priority: Priority::Interactive,
                deadline_ms: 250,
                ranges: vec![(0, 31), (5, 20)],
                trace,
            });
        }
        roundtrip(Frame::Cancel { req_id: 9 });
        roundtrip(Frame::MetricsRequest);
        roundtrip(Frame::Shutdown);
        for (kind, tier) in [
            (ProgressKind::Done, Tier::Normal),
            (ProgressKind::Progress, Tier::Coarse),
            (ProgressKind::Done, Tier::Widened),
            (ProgressKind::Shed, Tier::Shed),
        ] {
            roundtrip(Frame::Progress {
                req_id: 7,
                kind,
                round: 3,
                used: 120,
                total: 120,
                estimate: -1234.567891011,
                bound: 0.0,
                tier,
            });
        }
        roundtrip(Frame::Reject { req_id: 8, code: 1, detail: 64, message: "queue full".into() });
        roundtrip(Frame::MetricsReply { json: "{\"kind\":\"counter\"}".into() });
        roundtrip(Frame::Goodbye);
        roundtrip(Frame::Profile {
            req_id: 11,
            profile: QueryProfile {
                trace_id: 0xdead_beef,
                queue_wait_ns: 1_234,
                latency_ns: 9_876_543,
                rounds: 4,
                blocks_read: 17,
                blocks_shared: 3,
                cache_hits: 3,
                cache_misses: 18,
                retries: 2,
                degraded_blocks: 1,
                trajectory: vec![
                    TrajectoryPoint { round: 1, coefficients_used: 64, error_bound: 12.5 },
                    TrajectoryPoint { round: 4, coefficients_used: 256, error_bound: 0.0 },
                ],
            },
        });
    }

    #[test]
    fn estimates_cross_the_wire_bit_exactly() {
        for v in [0.1 + 0.2, f64::MIN_POSITIVE, -0.0, 1e300, f64::NAN] {
            let f = Frame::Progress {
                req_id: 1,
                kind: ProgressKind::Progress,
                round: 1,
                used: 1,
                total: 2,
                estimate: v,
                bound: v,
                tier: Tier::Normal,
            };
            let mut buf = Vec::new();
            write_frame(&mut buf, &f).unwrap();
            match read_frame(&mut buf.as_slice()).unwrap() {
                Frame::Progress { estimate, .. } => {
                    assert_eq!(estimate.to_bits(), v.to_bits());
                }
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn hostile_inputs_are_typed_protocol_errors() {
        // Oversized length prefix.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(ServiceError::Protocol(_))));
        // Unknown opcode.
        assert!(matches!(Frame::decode_body(&[0x7f]), Err(ServiceError::Protocol(_))));
        // Truncated SUBMIT.
        assert!(matches!(Frame::decode_body(&[0x01, 1, 2]), Err(ServiceError::Protocol(_))));
        // Trailing junk.
        let mut body = Frame::Cancel { req_id: 3 }.encode_body();
        body.push(0xee);
        assert!(matches!(Frame::decode_body(&body), Err(ServiceError::Protocol(_))));
        // Bad progress kind.
        let mut body = Frame::Progress {
            req_id: 1,
            kind: ProgressKind::Done,
            round: 0,
            used: 0,
            total: 0,
            estimate: 0.0,
            bound: 0.0,
            tier: Tier::Normal,
        }
        .encode_body();
        body[9] = 99;
        assert!(matches!(Frame::decode_body(&body), Err(ServiceError::Protocol(_))));
        // Bad tier byte (the last one).
        body[9] = 0;
        *body.last_mut().unwrap() = 200;
        assert!(matches!(Frame::decode_body(&body), Err(ServiceError::Protocol(_))));
        // Unknown SUBMIT flag bits are protocol errors, not silent drops.
        let mut body = Frame::Submit {
            req_id: 3,
            priority: Priority::Batch,
            deadline_ms: 0,
            ranges: vec![(1, 2)],
            trace: false,
        }
        .encode_body();
        *body.last_mut().unwrap() = 0x82;
        assert!(matches!(Frame::decode_body(&body), Err(ServiceError::Protocol(_))));
        // A SUBMIT without its flags byte is truncated, not "untraced".
        body.pop();
        assert!(matches!(Frame::decode_body(&body), Err(ServiceError::Protocol(_))));
    }

    #[test]
    fn eof_surfaces_as_io_error() {
        let empty: &[u8] = &[];
        assert!(matches!(read_frame(&mut { empty }), Err(ServiceError::Io(_))));
    }
}
