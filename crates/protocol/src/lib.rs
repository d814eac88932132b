//! # pinum-protocol — the advisor daemon's wire format
//!
//! Hand-rolled, dependency-light (pure `std`) serialization for the
//! multi-tenant advisor daemon (`pinum-server`), plus a blocking TCP
//! [`Client`]. No serde: the build environment is offline and the repo's
//! shim philosophy is to keep external surface area at zero, so the
//! codec is written out explicitly — which also makes the byte layout a
//! documented, deterministic contract instead of a derive artifact.
//!
//! ## Frame format
//!
//! Every message travels in one length-prefixed frame:
//!
//! ```text
//! +----------------+---------------------------------------------+
//! | u32 LE: len    | payload (len bytes)                         |
//! +----------------+---------------------------------------------+
//! payload = [ u8 version | u64 LE request id | u8 tag | body ]
//! ```
//!
//! * `len` counts the payload only (not itself) and is capped at
//!   [`MAX_FRAME_LEN`]; a larger prefix is rejected *before* any
//!   allocation, so a hostile length cannot balloon memory.
//! * `version` is [`WIRE_VERSION`]. A reader rejects other versions with
//!   [`WireError::UnsupportedVersion`] but — because framing is intact —
//!   can keep reading subsequent frames.
//! * `request id` is an opaque caller-chosen correlation id echoed in
//!   the response frame.
//! * `tag` selects the [`Request`]/[`Response`] variant; `body` is that
//!   variant's fields in declaration order.
//!
//! ## Primitive encodings
//!
//! All multi-byte integers are little-endian. `f64` travels as the IEEE
//! 754 bit pattern (`to_bits`/`from_bits`) so costs round-trip
//! bit-identically — the determinism contract of the whole repo extends
//! over the wire. `bool` is one byte, `0` or `1` (any other value is
//! [`WireError::Malformed`]). `String` is a `u32` byte length followed
//! by UTF-8 (validated). `Option<T>` is a one-byte tag (`0`/`1`)
//! followed by `T` when present. `Vec<T>` is a `u32` element count
//! followed by the elements; the count is validated against the bytes
//! actually remaining in the frame before anything is allocated.
//!
//! ## Malformed input
//!
//! Decoding never panics: every read is bounds-checked and every
//! error is a typed [`WireError`]. Errors split into two classes —
//! *frame-recoverable* (the length prefix delimited the frame, but the
//! payload didn't decode: unknown tag, bad bool, truncated body, …),
//! after which the connection can continue with the next frame, and
//! *fatal* (socket error, EOF mid-frame, oversized length prefix),
//! after which the stream has no trustworthy resynchronization point.
//! [`frame::read_request`]/[`frame::read_response`] express the split in
//! their return type.

pub mod client;
pub mod frame;
pub mod messages;
pub mod wire;

pub use client::Client;
pub use frame::{read_request, read_response, write_request, write_response, FrameIn};
pub use messages::{
    ErrorCode, Request, Response, WireAccess, WireAccessCatalog, WireAdmission, WireAdmitResult,
    WireBudgetStats, WireCostParams, WireIndex, WireOptions, WirePlan, WirePlanCache, WireProbe,
    WireReadviseReport, WireStats, WireTemplate,
};

/// Protocol version byte carried by every frame. Version 2 dropped three
/// never-set fields of [`WireOptions`] and an always-zero counter of
/// [`WireStats`] from version 1's layout.
pub const WIRE_VERSION: u8 = 2;

/// Hard cap on a frame's payload length. Large enough for any real
/// admission batch (a full plan-cache + access-catalog snapshot is tens
/// of kilobytes), small enough that a corrupt or hostile length prefix
/// cannot balloon memory: nothing is allocated before the prefix passes
/// this check.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Typed decode/transport error. Never panics out of the codec.
#[derive(Debug)]
pub enum WireError {
    /// Underlying socket/stream error.
    Io(std::io::Error),
    /// The stream ended inside a frame (header or payload).
    TruncatedFrame,
    /// The payload ended before the message body did.
    Truncated,
    /// Length prefix above [`MAX_FRAME_LEN`].
    Oversized(u32),
    /// Version byte this reader does not speak.
    UnsupportedVersion(u8),
    /// Unknown message tag for this side of the protocol.
    UnknownTag(u8),
    /// Structurally invalid body (bad bool/option tag, invalid UTF-8, an
    /// element count larger than the bytes backing it, …).
    Malformed(&'static str),
}

impl WireError {
    /// Whether the framing survived the error: the frame was delimited
    /// by its length prefix, so the reader can continue with the next
    /// frame on the same connection.
    pub fn frame_recoverable(&self) -> bool {
        match self {
            WireError::Io(_) | WireError::TruncatedFrame | WireError::Oversized(_) => false,
            WireError::Truncated
            | WireError::UnsupportedVersion(_)
            | WireError::UnknownTag(_)
            | WireError::Malformed(_) => true,
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io error: {e}"),
            WireError::TruncatedFrame => write!(f, "stream ended inside a frame"),
            WireError::Truncated => write!(f, "payload ended before the message body"),
            WireError::Oversized(len) => {
                write!(f, "frame length {len} exceeds the {MAX_FRAME_LEN} cap")
            }
            WireError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            WireError::Malformed(what) => write!(f, "malformed message: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}
