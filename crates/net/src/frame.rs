//! The wire codec: versioned, length-prefixed frames.
//!
//! Every message on the socket is one *frame*:
//!
//! ```text
//! [len: u32 LE] [payload: len bytes]
//! ```
//!
//! and every payload opens with the same envelope:
//!
//! ```text
//! [magic: "BPNT"] [version: u8] [kind/status: u8] [body ...]
//! ```
//!
//! Request kinds (client → server):
//!
//! | kind | name      | body |
//! |------|-----------|------|
//! | 1    | `Submit`  | tenant `u32` (`0xFFFF_FFFF` = default) · mode `u8` (0 replay, 2 generic) · deadline `u32` ms (0 = none) · op count `u16` + tagged ops · input count `u8` + slots · output flag `u8` (+ slot) · n `u32` · one `n × u64` polynomial per input |
//! | 2    | `MetricsJson` | empty |
//! | 3    | `MetricsProm` | empty |
//! | 4    | `Ping`    | empty |
//!
//! Op tags: 1 = `Forward{slot}`, 2 = `Inverse{slot}`, 3 =
//! `Pointwise{dst,src}`, 4 = `ScaleBy{slot,factor:u64}`. All integers
//! little-endian.
//!
//! Response status: 0 = ok (body is the result — `n:u32` + `n × u64` for
//! submits, UTF-8 text for metrics, empty for ping); anything else is an
//! error body `code:u8 · retry_after_ms:u32 · message` (UTF-8, rest of
//! frame).
//!
//! Decoding is cursor-based and bounds-checked throughout: adversarial
//! bytes (truncated frames, oversized length prefixes, bad versions,
//! garbage) produce a typed [`FrameError`], never a panic and never an
//! allocation proportional to an attacker-chosen length beyond
//! [`FrameLimits::max_frame_bytes`].

use bpntt_core::{BpNttError, ExecMode, PipeOp, PipelineSpec};
use std::error::Error;
use std::fmt;
use std::io::{self, Read, Write};

/// Leading magic of every payload.
pub const MAGIC: [u8; 4] = *b"BPNT";
/// The protocol version this build speaks.
pub const VERSION: u8 = 1;
/// The wire encoding of "no tenant; use the service default".
pub const TENANT_DEFAULT: u32 = u32::MAX;

/// Hard caps applied while decoding, before any allocation is sized by
/// attacker-controlled fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameLimits {
    /// Largest accepted frame payload, bytes. A length prefix beyond
    /// this drops the connection (the stream cannot be resynchronised).
    pub max_frame_bytes: u32,
    /// Most ops in one submitted pipeline spec.
    pub max_ops: usize,
    /// Most operand slots (inputs) in one submission.
    pub max_slots: usize,
    /// Longest accepted polynomial, points.
    pub max_poly_len: usize,
}

impl Default for FrameLimits {
    fn default() -> Self {
        FrameLimits {
            max_frame_bytes: 1 << 20,
            max_ops: 64,
            max_slots: 8,
            max_poly_len: 1 << 16,
        }
    }
}

/// Typed decode failure. Every variant is a protocol violation by the
/// peer; none is retryable on the same byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The payload ended before a field it promised.
    Truncated {
        /// Bytes the field needed.
        needed: usize,
        /// Bytes remaining.
        got: usize,
    },
    /// The payload does not open with [`MAGIC`].
    BadMagic,
    /// Unknown protocol version.
    BadVersion {
        /// The version byte received.
        version: u8,
    },
    /// Unknown request kind byte.
    BadKind {
        /// The kind byte received.
        kind: u8,
    },
    /// Unknown execution-mode byte in a submit.
    BadMode {
        /// The mode byte received.
        mode: u8,
    },
    /// Unknown op tag in a submitted spec.
    BadOpTag {
        /// The tag byte received.
        tag: u8,
    },
    /// The length prefix exceeds [`FrameLimits::max_frame_bytes`].
    FrameTooLarge {
        /// The advertised payload length.
        len: u32,
        /// The configured cap.
        max: u32,
    },
    /// More ops than [`FrameLimits::max_ops`].
    TooManyOps {
        /// Ops advertised.
        ops: usize,
        /// The configured cap.
        max: usize,
    },
    /// More operand slots than [`FrameLimits::max_slots`].
    TooManySlots {
        /// Slots advertised.
        slots: usize,
        /// The configured cap.
        max: usize,
    },
    /// A polynomial longer than [`FrameLimits::max_poly_len`].
    PolyTooLong {
        /// Points advertised.
        n: usize,
        /// The configured cap.
        max: usize,
    },
    /// Bytes left over after a complete message was decoded.
    TrailingBytes {
        /// How many bytes trailed.
        extra: usize,
    },
    /// A response error body carried an unknown error code.
    BadErrorCode {
        /// The code byte received.
        code: u8,
    },
    /// A textual body (metrics, error message) was not UTF-8.
    BadText,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Truncated { needed, got } => {
                write!(f, "truncated frame: field needs {needed} bytes, {got} left")
            }
            FrameError::BadMagic => write!(f, "payload does not start with the BPNT magic"),
            FrameError::BadVersion { version } => {
                write!(f, "unsupported protocol version {version}")
            }
            FrameError::BadKind { kind } => write!(f, "unknown request kind {kind}"),
            FrameError::BadMode { mode } => write!(f, "unknown execution mode {mode}"),
            FrameError::BadOpTag { tag } => write!(f, "unknown pipeline op tag {tag}"),
            FrameError::FrameTooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
            FrameError::TooManyOps { ops, max } => {
                write!(f, "spec with {ops} ops exceeds the {max}-op cap")
            }
            FrameError::TooManySlots { slots, max } => {
                write!(
                    f,
                    "submission with {slots} slots exceeds the {max}-slot cap"
                )
            }
            FrameError::PolyTooLong { n, max } => {
                write!(f, "{n}-point polynomial exceeds the {max}-point cap")
            }
            FrameError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after a complete message")
            }
            FrameError::BadErrorCode { code } => write!(f, "unknown wire error code {code}"),
            FrameError::BadText => write!(f, "textual body is not valid UTF-8"),
        }
    }
}

impl Error for FrameError {}

/// Wire error codes carried in error responses — a stable, compact
/// projection of [`BpNttError`] for clients that switch on failure kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum WireErrorCode {
    /// Queue-pressure shed; retry after the carried hint.
    Overloaded = 1,
    /// Per-tenant token bucket rejected the submission.
    RateLimited = 2,
    /// The request's deadline passed before execution.
    DeadlineExpired = 3,
    /// The request was cancelled (e.g. its connection vanished).
    Cancelled = 4,
    /// The service is shutting down.
    Shutdown = 5,
    /// The tenant id is not registered.
    UnknownTenant = 6,
    /// The submission itself was invalid (spec/operand validation).
    InvalidRequest = 7,
    /// The frame could not be decoded ([`FrameError`] on the server).
    BadFrame = 8,
    /// Any other server-side failure.
    Internal = 9,
}

impl WireErrorCode {
    /// Decodes a code byte.
    pub fn from_u8(code: u8) -> Result<Self, FrameError> {
        Ok(match code {
            1 => WireErrorCode::Overloaded,
            2 => WireErrorCode::RateLimited,
            3 => WireErrorCode::DeadlineExpired,
            4 => WireErrorCode::Cancelled,
            5 => WireErrorCode::Shutdown,
            6 => WireErrorCode::UnknownTenant,
            7 => WireErrorCode::InvalidRequest,
            8 => WireErrorCode::BadFrame,
            9 => WireErrorCode::Internal,
            code => return Err(FrameError::BadErrorCode { code }),
        })
    }

    /// Classifies a service error for the wire. The boolean is whether
    /// the error is *retryable* by backing off (vs. a caller bug).
    pub fn classify(err: &BpNttError) -> (Self, u64) {
        match err {
            BpNttError::Overloaded { retry_after_ms, .. } => {
                (WireErrorCode::Overloaded, *retry_after_ms)
            }
            BpNttError::RateLimited { retry_after_ms, .. } => {
                (WireErrorCode::RateLimited, *retry_after_ms)
            }
            BpNttError::DeadlineExpired { .. } => (WireErrorCode::DeadlineExpired, 0),
            BpNttError::Cancelled => (WireErrorCode::Cancelled, 0),
            BpNttError::ServiceShutdown => (WireErrorCode::Shutdown, 0),
            BpNttError::UnknownTenant { .. } => (WireErrorCode::UnknownTenant, 0),
            BpNttError::InvalidPipeline { .. }
            | BpNttError::WrongLength { .. }
            | BpNttError::Unreduced { .. }
            | BpNttError::BatchMismatch { .. }
            | BpNttError::BatchTooLarge { .. }
            | BpNttError::CapacityExceeded { .. } => (WireErrorCode::InvalidRequest, 0),
            _ => (WireErrorCode::Internal, 0),
        }
    }
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A pipeline submission.
    Submit(SubmitRequest),
    /// Fetch [`ServiceMetrics`](bpntt_core::ServiceMetrics) as JSON.
    MetricsJson,
    /// Fetch the metrics in Prometheus text exposition format.
    MetricsProm,
    /// Liveness probe; the server answers with an empty ok.
    Ping,
}

/// The body of a [`Request::Submit`].
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// The raw tenant id, or `None` for the service default tenant.
    pub tenant: Option<u32>,
    /// Execution mode.
    pub mode: ExecMode,
    /// Per-request deadline in milliseconds; 0 = none.
    pub deadline_ms: u32,
    /// The op-graph to run.
    pub spec: PipelineSpec,
    /// One operand polynomial per spec input slot, equal lengths.
    pub inputs: Vec<Vec<u64>>,
}

/// A decoded server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Success; the body is interpretation-by-request (result
    /// polynomial, metrics text, or empty).
    Ok(Vec<u8>),
    /// Typed failure.
    Err {
        /// The failure class.
        code: WireErrorCode,
        /// Suggested back-off before retrying, milliseconds (0 = not a
        /// back-off situation).
        retry_after_ms: u32,
        /// Human-readable detail.
        message: String,
    },
}

// ---------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Truncated {
                needed: n,
                got: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn finish(self) -> Result<(), FrameError> {
        if self.remaining() != 0 {
            return Err(FrameError::TrailingBytes {
                extra: self.remaining(),
            });
        }
        Ok(())
    }
}

fn envelope(cur: &mut Cursor<'_>) -> Result<u8, FrameError> {
    if cur.take(4)? != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = cur.u8()?;
    if version != VERSION {
        return Err(FrameError::BadVersion { version });
    }
    cur.u8()
}

// ---------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------

fn push_envelope(out: &mut Vec<u8>, kind: u8) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION);
    out.push(kind);
}

/// Encodes a request payload (no length prefix; see [`write_frame`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    match req {
        Request::Submit(sub) => {
            push_envelope(&mut out, 1);
            out.extend_from_slice(&sub.tenant.unwrap_or(TENANT_DEFAULT).to_le_bytes());
            out.push(match sub.mode {
                ExecMode::Replay => 0,
                ExecMode::Generic => 2,
            });
            out.extend_from_slice(&sub.deadline_ms.to_le_bytes());
            let ops = sub.spec.ops();
            out.extend_from_slice(&(ops.len() as u16).to_le_bytes());
            for op in ops {
                match *op {
                    PipeOp::Forward { slot } => out.extend_from_slice(&[1, slot]),
                    PipeOp::Inverse { slot } => out.extend_from_slice(&[2, slot]),
                    PipeOp::Pointwise { dst, src } => out.extend_from_slice(&[3, dst, src]),
                    PipeOp::ScaleBy { slot, factor } => {
                        out.extend_from_slice(&[4, slot]);
                        out.extend_from_slice(&factor.to_le_bytes());
                    }
                }
            }
            let slots = sub.spec.input_slots();
            out.push(slots.len() as u8);
            out.extend_from_slice(slots);
            match sub.spec.output_slot() {
                Some(slot) => out.extend_from_slice(&[1, slot]),
                None => out.push(0),
            }
            let n = sub.inputs.first().map_or(0, Vec::len) as u32;
            out.extend_from_slice(&n.to_le_bytes());
            for poly in &sub.inputs {
                for &c in poly {
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        Request::MetricsJson => push_envelope(&mut out, 2),
        Request::MetricsProm => push_envelope(&mut out, 3),
        Request::Ping => push_envelope(&mut out, 4),
    }
    out
}

/// Decodes one request payload (the bytes after the length prefix).
pub fn decode_request(payload: &[u8], limits: &FrameLimits) -> Result<Request, FrameError> {
    let mut cur = Cursor::new(payload);
    let kind = envelope(&mut cur)?;
    let req = match kind {
        1 => {
            let tenant = match cur.u32()? {
                TENANT_DEFAULT => None,
                raw => Some(raw),
            };
            let mode = match cur.u8()? {
                0 => ExecMode::Replay,
                2 => ExecMode::Generic,
                mode => return Err(FrameError::BadMode { mode }),
            };
            let deadline_ms = cur.u32()?;
            let op_count = cur.u16()? as usize;
            if op_count > limits.max_ops {
                return Err(FrameError::TooManyOps {
                    ops: op_count,
                    max: limits.max_ops,
                });
            }
            let mut spec = PipelineSpec::new();
            for _ in 0..op_count {
                spec = match cur.u8()? {
                    1 => spec.forward(cur.u8()?),
                    2 => spec.inverse(cur.u8()?),
                    3 => {
                        let dst = cur.u8()?;
                        spec.pointwise(dst, cur.u8()?)
                    }
                    4 => {
                        let slot = cur.u8()?;
                        spec.scale_by(slot, cur.u64()?)
                    }
                    tag => return Err(FrameError::BadOpTag { tag }),
                };
            }
            let slot_count = cur.u8()? as usize;
            if slot_count > limits.max_slots {
                return Err(FrameError::TooManySlots {
                    slots: slot_count,
                    max: limits.max_slots,
                });
            }
            for _ in 0..slot_count {
                spec = spec.input(cur.u8()?);
            }
            if cur.u8()? != 0 {
                spec = spec.output(cur.u8()?);
            }
            let n = cur.u32()? as usize;
            if n > limits.max_poly_len {
                return Err(FrameError::PolyTooLong {
                    n,
                    max: limits.max_poly_len,
                });
            }
            // The remaining-bytes check in `take` bounds every
            // allocation below: `slot_count × n × 8` never exceeds the
            // (already capped) payload length.
            let mut inputs = Vec::with_capacity(slot_count);
            for _ in 0..slot_count {
                let mut poly = Vec::with_capacity(n.min(cur.remaining() / 8 + 1));
                for _ in 0..n {
                    poly.push(cur.u64()?);
                }
                inputs.push(poly);
            }
            Request::Submit(SubmitRequest {
                tenant,
                mode,
                deadline_ms,
                spec,
                inputs,
            })
        }
        2 => Request::MetricsJson,
        3 => Request::MetricsProm,
        4 => Request::Ping,
        kind => return Err(FrameError::BadKind { kind }),
    };
    cur.finish()?;
    Ok(req)
}

// ---------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------

/// Encodes a response payload (no length prefix).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    match resp {
        Response::Ok(body) => {
            push_envelope(&mut out, 0);
            out.extend_from_slice(body);
        }
        Response::Err {
            code,
            retry_after_ms,
            message,
        } => {
            push_envelope(&mut out, 1);
            out.push(*code as u8);
            out.extend_from_slice(&retry_after_ms.to_le_bytes());
            out.extend_from_slice(message.as_bytes());
        }
    }
    out
}

/// Decodes one response payload.
pub fn decode_response(payload: &[u8]) -> Result<Response, FrameError> {
    let mut cur = Cursor::new(payload);
    match envelope(&mut cur)? {
        0 => Ok(Response::Ok(cur.take(cur.remaining())?.to_vec())),
        _ => {
            let code = WireErrorCode::from_u8(cur.u8()?)?;
            let retry_after_ms = cur.u32()?;
            let message = std::str::from_utf8(cur.take(cur.remaining())?)
                .map_err(|_| FrameError::BadText)?
                .to_string();
            Ok(Response::Err {
                code,
                retry_after_ms,
                message,
            })
        }
    }
}

/// Encodes a polynomial result as an ok-response body.
pub fn encode_poly_body(poly: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + poly.len() * 8);
    out.extend_from_slice(&(poly.len() as u32).to_le_bytes());
    for &c in poly {
        out.extend_from_slice(&c.to_le_bytes());
    }
    out
}

/// Decodes a polynomial result from an ok-response body.
pub fn decode_poly_body(body: &[u8]) -> Result<Vec<u64>, FrameError> {
    let mut cur = Cursor::new(body);
    let n = cur.u32()? as usize;
    let mut poly = Vec::with_capacity(n.min(cur.remaining() / 8 + 1));
    for _ in 0..n {
        poly.push(cur.u64()?);
    }
    cur.finish()?;
    Ok(poly)
}

// ---------------------------------------------------------------------
// Stream I/O
// ---------------------------------------------------------------------

/// Writes one length-prefixed frame.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// What ended a [`read_frame`] call.
#[derive(Debug)]
pub enum RecvError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// Socket failure or timeout (incl. mid-frame EOF — a truncation).
    Io(io::Error),
    /// The length prefix violated [`FrameLimits::max_frame_bytes`].
    Frame(FrameError),
}

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvError::Closed => write!(f, "peer closed the connection"),
            RecvError::Io(e) => write!(f, "socket error: {e}"),
            RecvError::Frame(e) => write!(f, "frame error: {e}"),
        }
    }
}

impl Error for RecvError {}

/// Reads one length-prefixed frame, enforcing the payload cap *before*
/// allocating. Clean EOF at a frame boundary is [`RecvError::Closed`];
/// EOF mid-frame is an [`io::ErrorKind::UnexpectedEof`] I/O error.
///
/// Timeout semantics (socket read timeouts surface as
/// [`io::ErrorKind::WouldBlock`]/[`io::ErrorKind::TimedOut`]): a timeout
/// *before any byte of a frame* passes through unchanged — the caller
/// may treat an idle peer however it likes. A timeout *inside* a frame
/// — a partial length prefix or payload, the slow-loris signature — is
/// rewritten to [`io::ErrorKind::UnexpectedEof`], because the stream can
/// no longer be resynchronised and the peer must be dropped.
pub fn read_frame<R: Read>(r: &mut R, limits: &FrameLimits) -> Result<Vec<u8>, RecvError> {
    let stalled = |what: &str| {
        RecvError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("peer stalled or vanished inside a {what}"),
        ))
    };
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Err(RecvError::Closed),
            Ok(0) => return Err(stalled("length prefix")),
            Ok(k) => filled += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if filled > 0
                    && (e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut) =>
            {
                return Err(stalled("length prefix"))
            }
            Err(e) => return Err(RecvError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > limits.max_frame_bytes {
        return Err(RecvError::Frame(FrameError::FrameTooLarge {
            len,
            max: limits.max_frame_bytes,
        }));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut {
            stalled("frame payload")
        } else {
            RecvError::Io(e)
        }
    })?;
    Ok(payload)
}
