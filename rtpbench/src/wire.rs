//! The client side of the protocol, kept free of regtree code so that a
//! timed window measures the server only.
//!
//! Requests are rendered to bytes before the window by [`Request`], with
//! holes for the request id and the `sessionId`. Each frame goes out as one
//! `write_all` of header and body on a `TCP_NODELAY` socket, and responses
//! are checked by scanning bytes ([`check`]).

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Longest a request may take before it counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(10);

enum Piece {
    Lit(Vec<u8>),
    Id,
    Sid,
}

/// `s` as a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `params` object of a request, built member by member.
#[derive(Default)]
pub struct Params {
    pieces: Vec<Piece>,
}

impl Params {
    pub fn new() -> Params {
        Params::default()
    }

    fn key(&mut self, key: &str) {
        let sep = if self.pieces.is_empty() { "" } else { "," };
        self.lit(format!("{sep}{}:", escape(key)).as_bytes());
    }

    fn lit(&mut self, bytes: &[u8]) {
        match self.pieces.last_mut() {
            Some(Piece::Lit(prev)) => prev.extend_from_slice(bytes),
            _ => self.pieces.push(Piece::Lit(bytes.to_vec())),
        }
    }

    /// `"sessionId": <the client's current session>`.
    pub fn session(mut self) -> Params {
        self.key("sessionId");
        self.pieces.push(Piece::Sid);
        self
    }

    /// A string member.
    pub fn str(self, key: &str, value: &str) -> Params {
        self.raw(key, &escape(value))
    }

    /// A member whose value is already JSON text.
    pub fn raw(mut self, key: &str, json: &str) -> Params {
        self.key(key);
        self.lit(json.as_bytes());
        self
    }
}

/// What a response must contain, and what the client keeps from it.
#[derive(Clone, Debug, PartialEq)]
pub enum Expect {
    /// Any result.
    Any,
    /// A `session/open` result; its `sessionId` becomes the client's.
    Opened,
    /// A `document/load` result with this `valid` member (`None`: null);
    /// its `nodes` count is recorded.
    Loaded { valid: Option<bool> },
    /// An `independence/check` verdict.
    Independent(bool),
    /// A `document/update` result; its per-FD outcomes are recorded.
    Updated,
    /// An `fd/check` result in which all of this many FDs are satisfied.
    Satisfied(usize),
    /// A `session/close` result.
    Closed,
    /// An `independence/matrix` result identical to the client's first.
    SameMatrix,
    /// The `null` result of `shutdown`.
    Null,
}

/// One JSON-RPC request, rendered up to its id and session holes.
pub struct Request {
    pieces: Vec<Piece>,
    /// The check its response must pass.
    pub expect: Expect,
}

impl Request {
    pub fn new(method: &str, params: Params, expect: Expect) -> Request {
        let mut pieces = vec![Piece::Lit(br#"{"jsonrpc":"2.0","id":"#.to_vec()), Piece::Id];
        let mut head = format!(",\"method\":{}", escape(method));
        if !params.pieces.is_empty() {
            head.push_str(",\"params\":{");
        }
        pieces.push(Piece::Lit(head.into_bytes()));
        let has_params = !params.pieces.is_empty();
        pieces.extend(params.pieces);
        pieces.push(Piece::Lit(if has_params {
            b"}}".to_vec()
        } else {
            b"}".to_vec()
        }));
        Request { pieces, expect }
    }

    /// The complete frame (header and body) for this id and session.
    pub fn render(&self, id: u64, sid: u64) -> Vec<u8> {
        let (id, sid) = (id.to_string(), sid.to_string());
        let body_len: usize = self
            .pieces
            .iter()
            .map(|p| match p {
                Piece::Lit(b) => b.len(),
                Piece::Id => id.len(),
                Piece::Sid => sid.len(),
            })
            .sum();
        let header = format!("Content-Length: {body_len}\r\n\r\n");
        let mut frame = Vec::with_capacity(header.len() + body_len);
        frame.extend_from_slice(header.as_bytes());
        for p in &self.pieces {
            frame.extend_from_slice(match p {
                Piece::Lit(b) => b,
                Piece::Id => id.as_bytes(),
                Piece::Sid => sid.as_bytes(),
            });
        }
        frame
    }
}

/// Why a call failed. A check failure leaves the stream in sync; a
/// transport failure does not.
#[derive(Debug)]
pub enum CallError {
    Transport(String),
    Check(String),
}

impl std::fmt::Display for CallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CallError::Transport(e) => write!(f, "transport: {e}"),
            CallError::Check(e) => write!(f, "check: {e}"),
        }
    }
}

/// Carries one frame to the server and brings back the response body.
pub trait Transport {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, String>;
    /// Called just before an op's first request and just after its last
    /// response, to bracket the op in a trace.
    fn op_boundary(&mut self, _start: bool) {}
}

/// One TCP connection to the server.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(OP_TIMEOUT))?;
        stream.set_write_timeout(Some(OP_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }
}

impl Transport for Conn {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.writer.write_all(frame).map_err(|e| e.to_string())?;
        read_body(&mut self.reader)
    }
}

/// Reads one `Content-Length` framed body.
pub fn read_body<R: BufRead>(reader: &mut R) -> Result<Vec<u8>, String> {
    let mut len = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            return Err("connection closed".into());
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse::<usize>().ok();
            }
        }
    }
    let len = len.ok_or("response without Content-Length")?;
    let mut body = vec![0; len];
    reader.read_exact(&mut body).map_err(|e| e.to_string())?;
    Ok(body)
}

/// What a client keeps between requests, and records for later checks.
#[derive(Default)]
pub struct Session {
    pub sid: u64,
    pub next_id: u64,
    /// Index of the op in flight, which records are filed under.
    pub op: usize,
    /// `(op, nodes)` of every `document/load`.
    pub nodes: Vec<(usize, u64)>,
    /// `(op, per-FD outcomes)` of every `document/update`; `true` means
    /// satisfied.
    pub outcomes: Vec<(usize, Vec<bool>)>,
    /// The first `independence/matrix` result.
    pub first_matrix: Option<Vec<u8>>,
}

/// Runs the requests of one op in order. The latency runs from the first
/// byte written to the last response byte read.
pub fn run_op<T: Transport>(
    t: &mut T,
    st: &mut Session,
    op: &[Request],
) -> Result<Duration, CallError> {
    let mut first: Option<Instant> = None;
    let mut last = Instant::now();
    for req in op {
        st.next_id += 1;
        let frame = req.render(st.next_id, st.sid);
        if first.is_none() {
            t.op_boundary(true);
            first = Some(Instant::now());
        }
        let body = t.exchange(&frame);
        last = Instant::now();
        let body = match body {
            Ok(b) => b,
            Err(e) => {
                t.op_boundary(false);
                return Err(CallError::Transport(e));
            }
        };
        if let Err(e) = check(&req.expect, &body, st.next_id, st) {
            t.op_boundary(false);
            return Err(CallError::Check(e));
        }
    }
    t.op_boundary(false);
    Ok(last - first.unwrap_or(last))
}

/// Position of `needle` in `hay`.
pub fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The unsigned number right after `key` (e.g. `"nodes":`).
pub fn number_after(hay: &[u8], key: &[u8]) -> Option<u64> {
    let start = find(hay, key)? + key.len();
    let digits = hay[start..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&hay[start..start + digits])
        .ok()?
        .parse()
        .ok()
}

/// Every string value that follows an occurrence of `key`, which must end
/// with the opening quote (e.g. `"outcome":"`).
pub fn strings_after<'a>(hay: &'a [u8], key: &[u8]) -> Vec<&'a [u8]> {
    let mut out = Vec::new();
    let mut rest = hay;
    while let Some(i) = find(rest, key) {
        rest = &rest[i + key.len()..];
        let end = rest.iter().position(|&b| b == b'"').unwrap_or(rest.len());
        out.push(&rest[..end]);
        rest = &rest[end..];
    }
    out
}

fn snippet(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(240)]).into_owned()
}

/// Checks a response body against `expect`, by scanning bytes. An error
/// envelope, a wrong id or a missing expected member is a failure.
pub fn check(expect: &Expect, body: &[u8], id: u64, st: &mut Session) -> Result<(), String> {
    let prefix = format!(r#"{{"jsonrpc":"2.0","id":{id},"result":"#);
    if !body.starts_with(prefix.as_bytes()) || !body.ends_with(b"}") {
        return Err(format!("not a result for id {id}: {}", snippet(body)));
    }
    let result = &body[prefix.len()..body.len() - 1];
    let has = |needle: &str| find(result, needle.as_bytes()).is_some();
    let ok = match expect {
        Expect::Any => true,
        Expect::Null => result == b"null",
        Expect::Opened => match number_after(result, br#""sessionId":"#) {
            Some(sid) => {
                st.sid = sid;
                true
            }
            None => false,
        },
        Expect::Loaded { valid } => {
            let valid = match valid {
                Some(true) => r#""valid":true"#,
                Some(false) => r#""valid":false"#,
                None => r#""valid":null"#,
            };
            match number_after(result, br#""nodes":"#) {
                Some(n) if has(valid) => {
                    st.nodes.push((st.op, n));
                    true
                }
                _ => false,
            }
        }
        Expect::Independent(indep) => has(&format!(r#""independent":{indep}"#)),
        Expect::Updated => {
            let outcomes = strings_after(result, br#""outcome":""#);
            let all = outcomes.iter().all(|o| *o == b"satisfied");
            let known = outcomes
                .iter()
                .all(|o| *o == b"satisfied" || *o == b"violated");
            if known && !outcomes.is_empty() && has(&format!(r#""all_satisfied":{all}"#)) {
                let record = outcomes.iter().map(|o| *o == b"satisfied").collect();
                st.outcomes.push((st.op, record));
                true
            } else {
                false
            }
        }
        Expect::Satisfied(n) => {
            let outcomes = strings_after(result, br#""outcome":""#);
            outcomes.len() == *n
                && outcomes.iter().all(|o| *o == b"satisfied")
                && has(r#""all_satisfied":true"#)
        }
        Expect::Closed => has(r#""closed":true"#),
        Expect::SameMatrix => match &st.first_matrix {
            Some(first) => first == result,
            None if has(r#""exhausted_pairs":0"#) => {
                st.first_matrix = Some(result.to_vec());
                true
            }
            None => false,
        },
    };
    if ok {
        Ok(())
    } else {
        Err(format!("expected {expect:?}, got {}", snippet(body)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body(id: u64, result: &str) -> Vec<u8> {
        format!(r#"{{"jsonrpc":"2.0","id":{id},"result":{result}}}"#).into_bytes()
    }

    #[test]
    fn requests_render_one_frame_with_holes_filled() {
        let req = Request::new(
            "independence/check",
            Params::new().session().str("fd", "/s : a -> \"b\""),
            Expect::Any,
        );
        let frame = req.render(7, 3);
        let text = String::from_utf8(frame).unwrap();
        let body = r#"{"jsonrpc":"2.0","id":7,"method":"independence/check","params":{"sessionId":3,"fd":"/s : a -> \"b\""}}"#;
        assert_eq!(
            text,
            format!("Content-Length: {}\r\n\r\n{body}", body.len())
        );
        let bare = Request::new("shutdown", Params::new(), Expect::Null).render(1, 0);
        let body = br#"{"jsonrpc":"2.0","id":1,"method":"shutdown"}"#;
        assert_eq!(read_body(&mut &bare[..]).unwrap(), body.to_vec());
    }

    #[test]
    fn escaper_handles_quotes_newlines_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn independence_verdicts_are_scanned() {
        let mut st = Session::default();
        let yes = body(4, r#"{"independent":true,"exhausted":null,"ic_states":3}"#);
        let no = body(4, r#"{"independent":false,"exhausted":null,"ic_states":3}"#);
        assert!(check(&Expect::Independent(true), &yes, 4, &mut st).is_ok());
        assert!(check(&Expect::Independent(false), &no, 4, &mut st).is_ok());
        assert!(check(&Expect::Independent(true), &no, 4, &mut st).is_err());
        assert!(
            check(&Expect::Independent(true), &yes, 5, &mut st).is_err(),
            "wrong id"
        );
    }

    #[test]
    fn fd_outcomes_are_scanned() {
        let mut st = Session::default();
        let sat = body(
            2,
            r#"{"documents":[{"path":"exam","checks":[{"fd":"fd1","outcome":"satisfied","exhausted":null,"violation":null},{"fd":"fd2","outcome":"satisfied","exhausted":null,"violation":null}]}],"all_satisfied":true,"exhausted":false}"#,
        );
        assert!(check(&Expect::Satisfied(2), &sat, 2, &mut st).is_ok());
        assert!(check(&Expect::Satisfied(3), &sat, 2, &mut st).is_err());
        let violated = body(
            9,
            r#"{"path":"session","version":5,"touched":1,"checks":[{"fd":"a","scope":"localized","check":{"fd":"a","outcome":"violated","exhausted":null,"violation":"x"}},{"fd":"b","scope":"unaffected","check":{"fd":"b","outcome":"satisfied","exhausted":null,"violation":null}}],"all_satisfied":false}"#,
        );
        st.op = 5;
        assert!(check(&Expect::Updated, &violated, 9, &mut st).is_ok());
        assert_eq!(st.outcomes, vec![(5, vec![false, true])]);
        assert!(check(&Expect::Satisfied(2), &violated, 9, &mut st).is_err());
        let unknown = body(
            3,
            r#"{"checks":[{"check":{"outcome":"unknown"}}],"all_satisfied":false}"#,
        );
        assert!(check(&Expect::Updated, &unknown, 3, &mut st).is_err());
    }

    #[test]
    fn error_envelopes_fail_every_check() {
        let err = br#"{"jsonrpc":"2.0","id":6,"error":{"code":-32602,"message":"fd: \"independent\":true"}}"#;
        for expect in [
            Expect::Any,
            Expect::Independent(true),
            Expect::Updated,
            Expect::Satisfied(0),
            Expect::Null,
        ] {
            assert!(check(&expect, err, 6, &mut Session::default()).is_err());
        }
    }

    #[test]
    fn sessions_nodes_and_matrices_are_kept() {
        let mut st = Session::default();
        check(
            &Expect::Opened,
            &body(1, r#"{"sessionId":42,"hasSchema":true}"#),
            1,
            &mut st,
        )
        .unwrap();
        assert_eq!(st.sid, 42);
        let loaded = body(2, r#"{"name":"d","nodes":6402,"valid":true}"#);
        check(&Expect::Loaded { valid: Some(true) }, &loaded, 2, &mut st).unwrap();
        assert_eq!(st.nodes, vec![(0, 6402)]);
        assert!(check(&Expect::Loaded { valid: None }, &loaded, 2, &mut st).is_err());
        let m = body(3, r#"{"cells":[],"exhausted_pairs":0}"#);
        check(&Expect::SameMatrix, &m, 3, &mut st).unwrap();
        check(
            &Expect::SameMatrix,
            &body(4, r#"{"cells":[],"exhausted_pairs":0}"#),
            4,
            &mut st,
        )
        .unwrap();
        let other = body(5, r#"{"cells":[1],"exhausted_pairs":0}"#);
        assert!(check(&Expect::SameMatrix, &other, 5, &mut st).is_err());
    }
}
