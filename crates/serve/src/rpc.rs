//! JSON-RPC 2.0 envelopes and LSP-style `Content-Length` framing.
//!
//! A message on the wire is
//!
//! ```text
//! Content-Length: 52\r\n
//! \r\n
//! {"jsonrpc":"2.0","id":1,"method":"initialize", ...}
//! ```
//!
//! Header names are case-insensitive; unknown headers (`Content-Type`, …)
//! are ignored. The body is one JSON-RPC 2.0 request, response, or batch
//! array, always in [`Json::to_compact`] form when written by this crate.
//!
//! This module is transport-agnostic: [`read_frame`] works on any
//! [`BufRead`], [`write_frame`] on any [`Write`] — stdio and TCP reuse the
//! same code, and the framing tests drive it over in-memory buffers.

use std::io::{self, BufRead, Read, Write};

use regtree_core::api::Json;

/// Standard JSON-RPC 2.0 error code: the body was not valid JSON (or not
/// valid UTF-8).
pub const PARSE_ERROR: i64 = -32700;
/// Standard: the body was JSON but not a well-formed request envelope.
pub const INVALID_REQUEST: i64 = -32600;
/// Standard: the method does not exist.
pub const METHOD_NOT_FOUND: i64 = -32601;
/// Standard: the params are missing or have the wrong shape.
pub const INVALID_PARAMS: i64 = -32602;
/// Standard: the server failed internally.
pub const INTERNAL_ERROR: i64 = -32603;

/// A run exhausted its resource budget before the verdict was decided.
/// `error.data` carries the sound partial response.
pub const BUDGET_EXHAUSTED: i64 = -32000;
/// The request was cancelled via `$/cancelRequest`. `error.data` carries
/// whatever partial response the run produced.
pub const CANCELLED: i64 = -32001;
/// The `sessionId` does not name an open session.
pub const SESSION_NOT_FOUND: i64 = -32002;
/// A schema-requiring method was called on a session opened without a
/// schema (the RPC face of `regtree_core::Error::NoSchema`).
pub const NO_SCHEMA: i64 = -32003;
/// The server is at its in-flight request cap; retry later.
pub const OVERLOADED: i64 = -32004;
/// The named document was never loaded into this session.
pub const DOC_NOT_FOUND: i64 = -32005;
/// The frame body exceeds the server's payload cap.
pub const PAYLOAD_TOO_LARGE: i64 = -32006;
/// The client's `protocolVersion` is incompatible with the server's.
pub const PROTOCOL_MISMATCH: i64 = -32007;

/// A typed JSON-RPC error: code, human message, optional structured data
/// (partial results ride in `data`).
#[derive(Debug, Clone)]
pub struct RpcError {
    /// JSON-RPC error code (standard or one of this crate's `-320xx`).
    pub code: i64,
    /// One-line human-readable description.
    pub message: String,
    /// Structured payload — e.g. the sound partial response of an
    /// exhausted run.
    pub data: Option<Json>,
}

impl RpcError {
    /// An error with no `data`.
    pub(crate) fn new(code: i64, message: impl Into<String>) -> RpcError {
        RpcError {
            code,
            message: message.into(),
            data: None,
        }
    }

    /// An error carrying a structured `data` payload.
    pub(crate) fn with_data(code: i64, message: impl Into<String>, data: Json) -> RpcError {
        RpcError {
            code,
            message: message.into(),
            data: Some(data),
        }
    }

    /// The `{code, message, data?}` error object.
    pub(crate) fn to_json(&self) -> Json {
        let mut members = vec![
            ("code".to_string(), Json::Num(self.code.to_string())),
            ("message".to_string(), Json::str(self.message.clone())),
        ];
        if let Some(data) = &self.data {
            members.push(("data".to_string(), data.clone()));
        }
        Json::Obj(members)
    }
}

/// A success response envelope for request `id`.
pub fn response_ok(id: &Json, result: Json) -> Json {
    Json::Obj(vec![
        ("jsonrpc".to_string(), Json::str("2.0")),
        ("id".to_string(), id.clone()),
        ("result".to_string(), result),
    ])
}

/// An error response envelope. `id` is `Json::Null` when the request id
/// could not be determined (parse errors, malformed envelopes).
pub fn response_err(id: &Json, err: &RpcError) -> Json {
    Json::Obj(vec![
        ("jsonrpc".to_string(), Json::str("2.0")),
        ("id".to_string(), id.clone()),
        ("error".to_string(), err.to_json()),
    ])
}

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// Clean end of stream between messages — the peer hung up.
    Closed,
    /// The stream ended mid-headers or mid-body.
    Truncated(String),
    /// Declared `Content-Length` exceeds the configured cap. The body has
    /// already been drained, so the connection stays usable.
    TooLarge {
        /// Declared body size.
        size: usize,
        /// The server's cap.
        max: usize,
    },
    /// The bytes before the body do not form valid framing headers.
    Protocol(String),
    /// The underlying transport failed.
    Io(io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated(d) => write!(f, "truncated frame: {d}"),
            FrameError::TooLarge { size, max } => {
                write!(f, "payload of {size} bytes exceeds cap of {max}")
            }
            FrameError::Protocol(d) => write!(f, "framing protocol error: {d}"),
            FrameError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Longest header line [`read_frame`] accepts, terminator included.
/// `max_payload` bounds only the body; this bounds what one header line can
/// make the server buffer.
const MAX_HEADER_LINE: u64 = 8 * 1024;

/// Reads one framed message body (at most `max_payload` bytes).
///
/// Oversized frames are *drained* before returning [`FrameError::TooLarge`]
/// so the caller can answer with a typed error and keep the connection. A
/// header line longer than 8 KiB is a [`FrameError::Protocol`], read no
/// further than its first 8 KiB + 1 bytes.
pub fn read_frame<R: BufRead>(reader: &mut R, max_payload: usize) -> Result<Vec<u8>, FrameError> {
    let mut content_length: Option<usize> = None;
    let mut first = true;
    loop {
        let mut raw = Vec::new();
        let n = reader
            .by_ref()
            .take(MAX_HEADER_LINE + 1)
            .read_until(b'\n', &mut raw)?;
        if n == 0 {
            return if first {
                Err(FrameError::Closed)
            } else {
                Err(FrameError::Truncated("stream ended mid-headers".into()))
            };
        }
        if n as u64 > MAX_HEADER_LINE {
            return Err(FrameError::Protocol(format!(
                "header line longer than {MAX_HEADER_LINE} bytes"
            )));
        }
        first = false;
        // Header bytes that are not UTF-8 cannot be framing headers.
        let Ok(line) = std::str::from_utf8(&raw) else {
            return Err(FrameError::Protocol("headers are not valid UTF-8".into()));
        };
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break; // blank line: headers done
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(FrameError::Protocol(format!(
                "header line without ':': {line:?}"
            )));
        };
        if name.trim().eq_ignore_ascii_case("content-length") {
            let v = value.trim();
            let len: usize = v.parse().map_err(|_| {
                FrameError::Protocol(format!("Content-Length is not an integer: {v:?}"))
            })?;
            content_length = Some(len);
        }
        // Other headers (Content-Type, …) are ignored.
    }
    let Some(len) = content_length else {
        return Err(FrameError::Protocol("missing Content-Length header".into()));
    };
    if len > max_payload {
        // Drain the declared body so the next frame starts clean.
        io::copy(&mut reader.take(len as u64), &mut io::sink())?;
        return Err(FrameError::TooLarge {
            size: len,
            max: max_payload,
        });
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated(format!("stream ended before {len} body bytes"))
        } else {
            FrameError::Io(e)
        }
    })?;
    Ok(body)
}

/// Writes one framed message and flushes.
pub fn write_frame<W: Write>(writer: &mut W, body: &[u8]) -> io::Result<()> {
    write!(writer, "Content-Length: {}\r\n\r\n", body.len())?;
    writer.write_all(body)?;
    writer.flush()
}

/// Frames and writes a JSON message in compact form.
pub fn write_message<W: Write>(writer: &mut W, message: &Json) -> io::Result<()> {
    write_frame(writer, message.to_compact().as_bytes())
}

/// A parsed request envelope.
///
/// `id: None` marks a notification (no response may be sent — not even an
/// error). Responses echo the `id` value verbatim, whatever JSON scalar the
/// client chose.
#[derive(Debug)]
pub struct Incoming {
    /// Request id; `None` for notifications.
    pub id: Option<Json>,
    /// Method name.
    pub method: String,
    /// Params value (`Json::Null` when absent).
    pub params: Json,
}

/// Validates one JSON-RPC 2.0 envelope.
///
/// On failure returns the best-effort request id (for the error response)
/// plus the error — per spec, a malformed envelope is answered with
/// `id: null` unless an id could still be extracted.
pub fn parse_envelope(value: Json) -> Result<Incoming, (Json, RpcError)> {
    let id = value.get("id").cloned();
    let err_id = id.clone().unwrap_or(Json::Null);
    if value.as_object().is_none() {
        return Err((
            Json::Null,
            RpcError::new(INVALID_REQUEST, "request is not an object"),
        ));
    }
    match value.get("jsonrpc").and_then(Json::as_str) {
        Some("2.0") => {}
        _ => {
            return Err((
                err_id,
                RpcError::new(
                    INVALID_REQUEST,
                    "missing or wrong 'jsonrpc' (expected \"2.0\")",
                ),
            ));
        }
    }
    if let Some(id) = &id {
        // Ids must be strings, numbers or null (objects/arrays are not
        // echoable keys).
        if !matches!(id, Json::Str(_) | Json::Num(_) | Json::Null) {
            return Err((
                Json::Null,
                RpcError::new(
                    INVALID_REQUEST,
                    "request id must be a string, number or null",
                ),
            ));
        }
    }
    let Some(method) = value.get("method").and_then(Json::as_str) else {
        return Err((
            err_id,
            RpcError::new(INVALID_REQUEST, "missing 'method' string"),
        ));
    };
    let params = value.get("params").cloned().unwrap_or(Json::Null);
    Ok(Incoming {
        id,
        method: method.to_string(),
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"x":1}"#).unwrap();
        let mut r = io::BufReader::new(&buf[..]);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), br#"{"x":1}"#);
        assert!(matches!(read_frame(&mut r, 1024), Err(FrameError::Closed)));
    }

    #[test]
    fn header_case_and_extra_headers_ignored() {
        let raw = b"content-length: 2\r\nContent-Type: application/json\r\n\r\n{}";
        let mut r = io::BufReader::new(&raw[..]);
        assert_eq!(read_frame(&mut r, 1024).unwrap(), b"{}");
    }

    #[test]
    fn truncated_body_is_detected() {
        let raw = b"Content-Length: 10\r\n\r\n{}";
        let mut r = io::BufReader::new(&raw[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Truncated(_))
        ));
    }

    #[test]
    fn oversized_frame_is_drained() {
        let mut raw = b"Content-Length: 5\r\n\r\nAAAAA".to_vec();
        write_frame(&mut raw, b"{}").unwrap();
        let mut r = io::BufReader::new(&raw[..]);
        assert!(matches!(
            read_frame(&mut r, 3),
            Err(FrameError::TooLarge { size: 5, max: 3 })
        ));
        // The follow-up frame is still readable.
        assert_eq!(read_frame(&mut r, 3).unwrap(), b"{}");
    }

    #[test]
    fn missing_content_length_is_protocol_error() {
        let raw = b"Content-Type: application/json\r\n\r\n{}";
        let mut r = io::BufReader::new(&raw[..]);
        assert!(matches!(
            read_frame(&mut r, 1024),
            Err(FrameError::Protocol(_))
        ));
    }

    #[test]
    fn envelope_rules() {
        let ok = Json::parse(r#"{"jsonrpc":"2.0","id":7,"method":"x"}"#).unwrap();
        let inc = parse_envelope(ok).unwrap();
        assert_eq!(inc.method, "x");
        assert_eq!(inc.id.unwrap().as_u64(), Some(7));

        let notif = Json::parse(r#"{"jsonrpc":"2.0","method":"y"}"#).unwrap();
        assert!(parse_envelope(notif).unwrap().id.is_none());

        let bad = Json::parse(r#"{"id":1,"method":"x"}"#).unwrap();
        let (id, err) = parse_envelope(bad).unwrap_err();
        assert_eq!(id.as_u64(), Some(1));
        assert_eq!(err.code, INVALID_REQUEST);

        let bad_id = Json::parse(r#"{"jsonrpc":"2.0","id":[1],"method":"x"}"#).unwrap();
        let (id, err) = parse_envelope(bad_id).unwrap_err();
        assert!(id.is_null());
        assert_eq!(err.code, INVALID_REQUEST);
    }
}
