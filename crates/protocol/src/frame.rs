//! Frame layer: length-prefix delimiting, version checking, and the
//! recoverable/fatal error split connection loops are built on. See the
//! crate docs for the byte layout.

use crate::messages::{Request, Response};
use crate::wire::{put_u64, put_u8, Cursor};
use crate::{WireError, MAX_FRAME_LEN, WIRE_VERSION};
use std::io::{Read, Write};

/// Outcome of reading one frame off a connection.
#[derive(Debug)]
pub enum FrameIn<T> {
    /// A well-formed message.
    Msg { request_id: u64, msg: T },
    /// The stream ended cleanly on a frame boundary.
    Eof,
    /// The length prefix delimited the frame but its payload did not
    /// decode — the connection can continue with the next frame.
    /// `request_id` is present when the header portion (version + id)
    /// parsed before the failure, so the peer can still correlate an
    /// error reply.
    Bad {
        request_id: Option<u64>,
        error: WireError,
    },
}

fn write_frame<W: Write>(w: &mut W, request_id: u64, tag: u8, body: &[u8]) -> std::io::Result<()> {
    let len = 1 + 8 + 1 + body.len();
    debug_assert!(len <= MAX_FRAME_LEN as usize, "outgoing frame over the cap");
    let mut head = Vec::with_capacity(4 + 10);
    head.extend_from_slice(&(len as u32).to_le_bytes());
    put_u8(&mut head, WIRE_VERSION);
    put_u64(&mut head, request_id);
    put_u8(&mut head, tag);
    w.write_all(&head)?;
    w.write_all(body)
}

/// Reads one delimited payload. `Ok(None)` is clean EOF (no bytes of a
/// next frame); a stream ending anywhere *inside* a frame is
/// [`WireError::TruncatedFrame`], and a length prefix over the cap is
/// [`WireError::Oversized`] — both fatal, nothing was allocated.
fn read_payload<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, WireError> {
    let mut len_buf = [0u8; 4];
    // Distinguish clean EOF (zero bytes) from a torn header.
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(WireError::TruncatedFrame),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::TruncatedFrame
        } else {
            WireError::Io(e)
        }
    })?;
    Ok(Some(payload))
}

/// Decodes a payload's `[version | request id | tag | body]`, mapping
/// every body failure to [`FrameIn::Bad`] (framing survived).
fn decode_payload<T>(
    payload: &[u8],
    decode: impl FnOnce(u8, &mut Cursor<'_>) -> Result<T, WireError>,
) -> FrameIn<T> {
    let mut c = Cursor::new(payload);
    let version = match c.u8() {
        Ok(v) => v,
        Err(e) => {
            return FrameIn::Bad {
                request_id: None,
                error: e,
            }
        }
    };
    if version != WIRE_VERSION {
        return FrameIn::Bad {
            request_id: None,
            error: WireError::UnsupportedVersion(version),
        };
    }
    let request_id = match c.u64() {
        Ok(id) => id,
        Err(e) => {
            return FrameIn::Bad {
                request_id: None,
                error: e,
            }
        }
    };
    let result = c.u8().and_then(|tag| decode(tag, &mut c)).and_then(|msg| {
        if c.exhausted() {
            Ok(msg)
        } else {
            Err(WireError::Malformed("trailing bytes after message body"))
        }
    });
    match result {
        Ok(msg) => FrameIn::Msg { request_id, msg },
        Err(error) => FrameIn::Bad {
            request_id: Some(request_id),
            error,
        },
    }
}

/// Writes one request frame.
pub fn write_request<W: Write>(w: &mut W, request_id: u64, req: &Request) -> std::io::Result<()> {
    let mut body = Vec::new();
    req.encode_body(&mut body);
    write_frame(w, request_id, req.tag(), &body)
}

/// Writes one response frame.
pub fn write_response<W: Write>(
    w: &mut W,
    request_id: u64,
    resp: &Response,
) -> std::io::Result<()> {
    let mut body = Vec::new();
    resp.encode_body(&mut body);
    write_frame(w, request_id, resp.tag(), &body)
}

/// Reads one request frame (the daemon side). `Err` is fatal for the
/// connection; [`FrameIn::Bad`] is answerable with a typed error reply.
pub fn read_request<R: Read>(r: &mut R) -> Result<FrameIn<Request>, WireError> {
    match read_payload(r)? {
        None => Ok(FrameIn::Eof),
        Some(payload) => Ok(decode_payload(&payload, Request::decode_body)),
    }
}

/// Reads one response frame (the client side).
pub fn read_response<R: Read>(r: &mut R) -> Result<FrameIn<Response>, WireError> {
    match read_payload(r)? {
        None => Ok(FrameIn::Eof),
        Some(payload) => Ok(decode_payload(&payload, Response::decode_body)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorCode;

    #[test]
    fn request_frames_roundtrip() {
        let req = Request::ReweightAdmission {
            tenant: 3,
            admission: 17,
            weight: 2.5,
        };
        let mut buf = Vec::new();
        write_request(&mut buf, 42, &req).unwrap();
        let mut r = buf.as_slice();
        match read_request(&mut r).unwrap() {
            FrameIn::Msg { request_id, msg } => {
                assert_eq!(request_id, 42);
                assert_eq!(msg, req);
            }
            other => panic!("expected a message, got {other:?}"),
        }
        assert!(matches!(read_request(&mut r).unwrap(), FrameIn::Eof));
    }

    #[test]
    fn persistence_messages_roundtrip() {
        let reqs = [
            Request::SnapshotNow { tenant: 9 },
            Request::TenantEpoch { tenant: 9 },
        ];
        let mut buf = Vec::new();
        for (i, req) in reqs.iter().enumerate() {
            write_request(&mut buf, i as u64, req).unwrap();
            assert_eq!(req.tenant(), Some(9));
        }
        let mut r = buf.as_slice();
        for (i, req) in reqs.iter().enumerate() {
            match read_request(&mut r).unwrap() {
                FrameIn::Msg { request_id, msg } => {
                    assert_eq!(request_id, i as u64);
                    assert_eq!(&msg, req);
                }
                other => panic!("expected a message, got {other:?}"),
            }
        }

        let resps = [
            Response::SnapshotTaken { log_seq: 41 },
            Response::Epoch {
                durable: true,
                log_seq: 41,
                snapshot_seq: Some(30),
                appends: 41,
                fsyncs: 7,
                batches: 5,
                max_batch_records: 16,
            },
            Response::Epoch {
                durable: false,
                log_seq: 0,
                snapshot_seq: None,
                appends: 0,
                fsyncs: 0,
                batches: 0,
                max_batch_records: 0,
            },
            Response::Error {
                code: ErrorCode::PersistenceDisabled,
                detail: "volatile tenant".into(),
            },
            Response::Error {
                code: ErrorCode::Persistence,
                detail: "journal write failed".into(),
            },
        ];
        let mut buf = Vec::new();
        for (i, resp) in resps.iter().enumerate() {
            write_response(&mut buf, i as u64, resp).unwrap();
        }
        let mut r = buf.as_slice();
        for resp in &resps {
            match read_response(&mut r).unwrap() {
                FrameIn::Msg { msg, .. } => assert_eq!(&msg, resp),
                other => panic!("expected a message, got {other:?}"),
            }
        }
        assert!(matches!(read_response(&mut r).unwrap(), FrameIn::Eof));
    }

    #[test]
    fn torn_header_and_torn_payload_are_fatal() {
        let mut buf = Vec::new();
        write_request(&mut buf, 7, &Request::Shutdown).unwrap();
        // Cut inside the length prefix.
        assert!(matches!(
            read_request(&mut &buf[..2]),
            Err(WireError::TruncatedFrame)
        ));
        // Cut inside the payload.
        assert!(matches!(
            read_request(&mut &buf[..buf.len() - 1]),
            Err(WireError::TruncatedFrame)
        ));
    }

    #[test]
    fn oversized_prefix_is_fatal_and_allocation_free() {
        let buf = (MAX_FRAME_LEN + 1).to_le_bytes();
        assert!(matches!(
            read_request(&mut buf.as_slice()),
            Err(WireError::Oversized(_))
        ));
    }

    #[test]
    fn bad_payload_is_recoverable_and_keeps_the_request_id() {
        // A well-delimited frame with an unknown tag.
        let mut payload = Vec::new();
        put_u8(&mut payload, WIRE_VERSION);
        put_u64(&mut payload, 99);
        put_u8(&mut payload, 250);
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        // A healthy frame follows it on the same stream.
        write_request(&mut buf, 100, &Request::Shutdown).unwrap();
        let mut r = buf.as_slice();
        match read_request(&mut r).unwrap() {
            FrameIn::Bad { request_id, error } => {
                assert_eq!(request_id, Some(99));
                assert!(matches!(error, WireError::UnknownTag(250)));
                assert!(error.frame_recoverable());
            }
            other => panic!("expected Bad, got {other:?}"),
        }
        // The connection survives: the next frame still parses.
        assert!(matches!(
            read_request(&mut r).unwrap(),
            FrameIn::Msg {
                request_id: 100,
                msg: Request::Shutdown
            }
        ));
    }

    #[test]
    fn wrong_version_is_recoverable() {
        // The previous layout's version and a version never issued.
        for version in [WIRE_VERSION - 1, 9] {
            let mut payload = Vec::new();
            put_u8(&mut payload, version);
            put_u64(&mut payload, 1);
            put_u8(&mut payload, 9);
            let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
            buf.extend_from_slice(&payload);
            match read_request(&mut buf.as_slice()).unwrap() {
                FrameIn::Bad { error, .. } => {
                    assert!(
                        matches!(error, WireError::UnsupportedVersion(v) if v == version),
                        "version {version}: got {error:?}"
                    );
                    assert!(error.frame_recoverable());
                }
                other => panic!("expected Bad, got {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_is_malformed() {
        let mut payload = Vec::new();
        put_u8(&mut payload, WIRE_VERSION);
        put_u64(&mut payload, 5);
        put_u8(&mut payload, 9); // Shutdown has an empty body...
        put_u8(&mut payload, 0xCC); // ...so this byte is garbage.
        let mut buf = (payload.len() as u32).to_le_bytes().to_vec();
        buf.extend_from_slice(&payload);
        match read_request(&mut buf.as_slice()).unwrap() {
            FrameIn::Bad { request_id, error } => {
                assert_eq!(request_id, Some(5));
                assert!(matches!(error, WireError::Malformed(_)));
            }
            other => panic!("expected Bad, got {other:?}"),
        }
    }
}
