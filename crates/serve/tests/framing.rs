//! Wire-level tests of the JSON-RPC framing and dispatch: every edge case
//! runs the real connection loop over in-memory buffers — no sockets, no
//! subprocesses — and asserts on the exact framed responses.

use std::io::{BufReader, Cursor, Write};
use std::sync::Arc;

use parking_lot::Mutex;

use regtree_core::api::Json;
use regtree_serve::rpc::{self, read_frame, write_frame};
use regtree_serve::{serve_connection, ServerConfig, Service};

/// A `Write` that appends into a shared buffer (the captured wire output).
#[derive(Clone)]
struct Capture(Arc<Mutex<Vec<u8>>>);

impl Write for Capture {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Runs one scripted connection; returns the parsed response messages and
/// whether the client asked the server to shut down.
fn run_script(script: &[u8], config: ServerConfig) -> (Vec<Json>, bool) {
    let service = Arc::new(Service::new(config));
    let sink = Arc::new(Mutex::new(Vec::new()));
    let writer: Arc<Mutex<Box<dyn Write + Send>>> =
        Arc::new(Mutex::new(Box::new(Capture(Arc::clone(&sink)))));
    let mut reader = BufReader::new(script);
    let shutdown = serve_connection(&service, &mut reader, writer).expect("connection loop runs");
    let raw = sink.lock().clone();
    let mut frames = Vec::new();
    let mut r = BufReader::new(&raw[..]);
    while let Ok(body) = read_frame(&mut r, usize::MAX >> 1) {
        frames.push(
            Json::parse(std::str::from_utf8(&body).expect("responses are UTF-8"))
                .expect("responses are valid JSON"),
        );
    }
    (frames, shutdown)
}

fn frame(body: &str) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, body.as_bytes()).unwrap();
    out
}

fn request(id: u64, method: &str, params: &str) -> Vec<u8> {
    frame(&format!(
        r#"{{"jsonrpc":"2.0","id":{id},"method":"{method}","params":{params}}}"#
    ))
}

fn error_code(resp: &Json) -> Option<i64> {
    resp.get("error")?.get("code")?.as_f64().map(|f| f as i64)
}

#[test]
fn unknown_method_answers_method_not_found() {
    let (resps, _) = run_script(
        &request(1, "no/such/method", "null"),
        ServerConfig::default(),
    );
    assert_eq!(resps.len(), 1);
    assert_eq!(resps[0].get("id").and_then(Json::as_u64), Some(1));
    assert_eq!(error_code(&resps[0]), Some(rpc::METHOD_NOT_FOUND));
}

#[test]
fn truncated_content_length_is_parse_error_then_close() {
    // Declares 999 bytes, delivers 2: the loop answers -32700 (id null)
    // and drops the connection since the stream position is untrustworthy.
    let script = b"Content-Length: 999\r\n\r\n{}".to_vec();
    let (resps, shutdown) = run_script(&script, ServerConfig::default());
    assert!(!shutdown);
    assert_eq!(resps.len(), 1);
    assert!(resps[0].get("id").unwrap().is_null());
    assert_eq!(error_code(&resps[0]), Some(rpc::PARSE_ERROR));
}

#[test]
fn oversized_payload_is_typed_and_connection_survives() {
    let mut script = frame(&format!(r#"{{"pad":"{}"}}"#, "x".repeat(200)));
    script.extend(request(2, "server/stats", "null"));
    let (resps, _) = run_script(
        &script,
        ServerConfig {
            max_payload: 64,
            ..ServerConfig::default()
        },
    );
    assert_eq!(resps.len(), 2);
    assert_eq!(error_code(&resps[0]), Some(rpc::PAYLOAD_TOO_LARGE));
    // The follow-up request on the same connection still worked.
    assert_eq!(resps[1].get("id").and_then(Json::as_u64), Some(2));
    assert!(resps[1].get("result").is_some());
}

#[test]
fn malformed_utf8_body_is_parse_error() {
    let mut script = b"Content-Length: 4\r\n\r\n".to_vec();
    script.extend([0xff, 0xfe, 0x80, 0x81]);
    script.extend(request(3, "server/stats", "null"));
    let (resps, _) = run_script(&script, ServerConfig::default());
    assert_eq!(resps.len(), 2);
    assert_eq!(error_code(&resps[0]), Some(rpc::PARSE_ERROR));
    assert!(resps[1].get("result").is_some(), "connection kept working");
}

#[test]
fn deeply_nested_frame_is_parse_error_and_connection_survives() {
    let mut script = frame(&"[".repeat(100_000));
    script.extend(request(4, "server/stats", "null"));
    let (resps, _) = run_script(&script, ServerConfig::default());
    assert_eq!(resps.len(), 2);
    assert_eq!(error_code(&resps[0]), Some(rpc::PARSE_ERROR));
    assert_eq!(resps[1].get("id").and_then(Json::as_u64), Some(4));
    assert!(resps[1].get("result").is_some(), "connection kept working");
}

/// Pattern, FD and schema text nested 5,000 levels deep is an invalid
/// parameter, not a stack overflow: the daemon answers -32602 and then
/// serves the `server/stats` queued behind it.
#[test]
fn deeply_nested_pattern_fd_and_schema_are_invalid_params() {
    let predicates = format!("a{}{}", "[b".repeat(5_000), "]".repeat(5_000));
    let parentheses = format!("root: {}x{}", "(".repeat(5_000), ")".repeat(5_000));
    let cases = [
        format!(
            r#"{{"jsonrpc":"2.0","id":2,"method":"pattern/parse","params":{{"pattern":"/{predicates}"}}}}"#
        ),
        format!(
            r#"{{"jsonrpc":"2.0","id":2,"method":"independence/check","params":{{"sessionId":1,"fd":"/s : {predicates} -> t","update":"/s/t"}}}}"#
        ),
        format!(
            r#"{{"jsonrpc":"2.0","id":2,"method":"session/open","params":{{"schema":"{parentheses}"}}}}"#
        ),
    ];
    for hostile in cases {
        // One batch, so the session exists before the check and the stats
        // request runs after the hostile one.
        let batch = format!(
            r#"[{{"jsonrpc":"2.0","id":1,"method":"session/open","params":{{}}}},{hostile},
                {{"jsonrpc":"2.0","id":3,"method":"server/stats","params":null}}]"#
        );
        let (resps, _) = run_script(&frame(&batch), ServerConfig::default());
        let items = resps[0].as_array().expect("batch answer is an array");
        assert_eq!(items.len(), 3);
        let hostile = &items[1];
        assert_eq!(error_code(hostile), Some(rpc::INVALID_PARAMS));
        let message = hostile.get("error").and_then(|e| e.get("message"));
        assert!(
            message
                .and_then(Json::as_str)
                .is_some_and(|m| m.contains("nesting deeper than 256")),
            "{message:?}"
        );
        assert_eq!(items[2].get("id").and_then(Json::as_u64), Some(3));
        assert!(items[2].get("result").is_some(), "stats answered");
    }
}

#[test]
fn invalid_json_and_invalid_envelope() {
    let mut script = frame("{not json");
    script.extend(frame(r#"{"id":9,"method":"server/stats"}"#)); // no jsonrpc
    let (resps, _) = run_script(&script, ServerConfig::default());
    assert_eq!(resps.len(), 2);
    assert_eq!(error_code(&resps[0]), Some(rpc::PARSE_ERROR));
    assert_eq!(error_code(&resps[1]), Some(rpc::INVALID_REQUEST));
    assert_eq!(resps[1].get("id").and_then(Json::as_u64), Some(9));
}

#[test]
fn missing_content_length_header_closes_with_parse_error() {
    let script = b"Content-Type: application/json\r\n\r\n{}".to_vec();
    let (resps, _) = run_script(&script, ServerConfig::default());
    assert_eq!(resps.len(), 1);
    assert_eq!(error_code(&resps[0]), Some(rpc::PARSE_ERROR));
}

/// A header line with no end is cut at 8 KiB: `read_frame` stops reading
/// there instead of buffering the whole line.
#[test]
fn endless_header_line_is_protocol_error_read_no_further_than_8_kib() {
    let first = b"Content-Length: 2\r\n";
    let mut raw = first.to_vec();
    raw.extend(b"X-Pad: ");
    raw.resize(raw.len() + (1 << 20), b'x');
    let mut r = Cursor::new(raw);
    assert!(matches!(
        read_frame(&mut r, 1 << 30),
        Err(rpc::FrameError::Protocol(_))
    ));
    assert!(r.position() <= (first.len() + 8 * 1024 + 1) as u64);
}

#[test]
fn long_unknown_header_before_content_length_still_frames() {
    let mut raw = format!("X-Pad: {}\r\n", "x".repeat(4 * 1024)).into_bytes();
    raw.extend(frame("{}"));
    let mut r = Cursor::new(raw);
    assert_eq!(read_frame(&mut r, 1024).unwrap(), b"{}");
}

#[test]
fn batch_answers_in_order_and_skips_notifications() {
    let body = r#"[
        {"jsonrpc":"2.0","id":1,"method":"server/stats"},
        {"jsonrpc":"2.0","method":"some/notification"},
        {"jsonrpc":"2.0","id":2,"method":"no/such"},
        {"bad":"envelope"}
    ]"#;
    let (resps, _) = run_script(&frame(body), ServerConfig::default());
    assert_eq!(resps.len(), 1, "one array response per batch");
    let arr = resps[0].as_array().expect("batch answer is an array");
    assert_eq!(arr.len(), 3, "notification gets no slot");
    assert_eq!(arr[0].get("id").and_then(Json::as_u64), Some(1));
    assert!(arr[0].get("result").is_some());
    assert_eq!(error_code(&arr[1]), Some(rpc::METHOD_NOT_FOUND));
    assert_eq!(error_code(&arr[2]), Some(rpc::INVALID_REQUEST));
}

#[test]
fn empty_batch_is_invalid_request() {
    let (resps, _) = run_script(&frame("[]"), ServerConfig::default());
    assert_eq!(resps.len(), 1);
    assert_eq!(error_code(&resps[0]), Some(rpc::INVALID_REQUEST));
}

#[test]
fn shutdown_is_acknowledged_and_stops_the_loop() {
    let mut script = request(1, "shutdown", "null");
    script.extend(request(2, "server/stats", "null")); // never reached
    let (resps, shutdown) = run_script(&script, ServerConfig::default());
    assert!(shutdown);
    assert_eq!(resps.len(), 1);
    assert!(resps[0].get("result").unwrap().is_null());
}

#[test]
fn exit_notification_closes_silently() {
    let mut script = frame(r#"{"jsonrpc":"2.0","method":"exit"}"#);
    script.extend(request(2, "server/stats", "null"));
    let (resps, shutdown) = run_script(&script, ServerConfig::default());
    assert!(!shutdown, "exit is not shutdown");
    assert!(resps.is_empty(), "no response to a notification, loop ends");
}

#[test]
fn protocol_handshake_accepts_same_major_and_rejects_other() {
    let mut script = request(1, "initialize", r#"{"protocolVersion":"1.9"}"#);
    script.extend(request(2, "initialize", r#"{"protocolVersion":"2.0"}"#));
    let (resps, _) = run_script(&script, ServerConfig::default());
    let by_id = |id: u64| {
        resps
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
            .expect("response present")
    };
    let ok = by_id(1).get("result").expect("1.x is compatible");
    assert_eq!(
        ok.get("serverName").and_then(Json::as_str),
        Some("rtpserved")
    );
    assert!(ok
        .get("capabilities")
        .and_then(|c| c.get("methods"))
        .and_then(Json::as_array)
        .is_some_and(|m| !m.is_empty()));
    assert_eq!(error_code(by_id(2)), Some(rpc::PROTOCOL_MISMATCH));
}

/// Full session flow plus the two typed-governance errors: `NO_SCHEMA` on a
/// schema-requiring method, and `BUDGET_EXHAUSTED` carrying the sound
/// partial result when a tiny budget runs out.
#[test]
fn session_flow_no_schema_and_budget_exhaustion() {
    let fd = "/session : candidate/exam/discipline -> candidate/exam/rank";
    let xml = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../fixtures/session.xml"
    ))
    .expect("fixture readable");
    let load = Json::Obj(vec![
        ("sessionId".to_string(), Json::u64(1)),
        ("name".to_string(), Json::str("session.xml")),
        ("xml".to_string(), Json::str(xml)),
        ("validate".to_string(), Json::Bool(true)),
    ]);
    // One batch: single requests on a connection each get their own worker
    // and may complete out of order, so `document/load` could otherwise
    // run before the session exists. Batch items run in order.
    let batch = format!(
        r#"[{{"jsonrpc":"2.0","id":1,"method":"session/open","params":{{}}}},
            {{"jsonrpc":"2.0","id":2,"method":"document/load","params":{}}},
            {{"jsonrpc":"2.0","id":3,"method":"independence/check","params":{{"sessionId":1,"fd":"{fd}","update":"/session/candidate/exam/rank","limits":{{"maxStates":1}}}}}}]"#,
        load.to_compact()
    );
    let (resps, _) = run_script(&frame(&batch), ServerConfig::default());
    assert_eq!(resps.len(), 1, "one array response per batch");
    let items = resps[0].as_array().expect("batch answer is an array");
    let by_id = |id: u64| {
        items
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
            .expect("response present")
    };
    assert_eq!(
        by_id(1)
            .get("result")
            .and_then(|r| r.get("sessionId"))
            .and_then(Json::as_u64),
        Some(1)
    );
    // validate:true on a schemaless session is the typed NO_SCHEMA error.
    assert_eq!(error_code(by_id(2)), Some(rpc::NO_SCHEMA));
    // One interned state is never enough: typed exhaustion, with the sound
    // partial response riding in error.data.
    let err = by_id(3).get("error").expect("budget error");
    assert_eq!(
        err.get("code").and_then(Json::as_f64).map(|f| f as i64),
        Some(rpc::BUDGET_EXHAUSTED)
    );
    let data = err.get("data").expect("partial response in data");
    assert_eq!(data.get("exhausted").and_then(Json::as_str), Some("states"));
    assert_eq!(data.get("independent").and_then(Json::as_bool), Some(false));
}

#[test]
fn session_schema_covers_labels_interned_after_open() {
    // `i: _*` admits every attribute, including `@k` and `@v`, which the
    // session's alphabet only learns from the FD after `session/open`
    // built the analyzer. The criterion must not answer from a schema
    // automaton compiled before they existed: the document below is a
    // counterexample to independence.
    let fd = r#"["kv", "/s : i/@k -> i/@v"]"#;
    let update = r#"{"select": "/s/i/@v", "op": "set_text", "value": "2", "first_only": true}"#;
    let xml = r#"<s><i k=\"1\" v=\"1\"/><i k=\"1\" v=\"1\"/></s>"#;
    let batch = format!(
        r#"[{{"jsonrpc":"2.0","id":1,"method":"session/open","params":{{"schema":"root: s\ns: i*\ni: _*\n"}}}},
            {{"jsonrpc":"2.0","id":2,"method":"independence/check","params":{{"sessionId":1,"fd":"/s : i/@k -> i/@v","update":"/s/i/@v"}}}},
            {{"jsonrpc":"2.0","id":3,"method":"independence/matrix","params":{{"sessionId":1,"fds":[{fd}],"updates":[["v","/s/i/@v"]]}}}},
            {{"jsonrpc":"2.0","id":4,"method":"document/load","params":{{"sessionId":1,"name":"d","xml":"{xml}","validate":true}}}},
            {{"jsonrpc":"2.0","id":5,"method":"document/update","params":{{"sessionId":1,"name":"d","fds":[{fd}],"update":{update}}}}},
            {{"jsonrpc":"2.0","id":6,"method":"document/validate","params":{{"sessionId":1,"name":"d"}}}}]"#
    );
    let (resps, _) = run_script(&frame(&batch), ServerConfig::default());
    let items = resps[0].as_array().expect("batch answer is an array");
    let result = |id: u64| {
        items
            .iter()
            .find(|r| r.get("id").and_then(Json::as_u64) == Some(id))
            .and_then(|r| r.get("result"))
            .unwrap_or_else(|| panic!("request {id} failed: {items:?}"))
    };
    assert_eq!(
        result(2).get("independent").and_then(Json::as_bool),
        Some(false)
    );
    let cell = &result(3).get("cells").and_then(Json::as_array).unwrap()[0];
    assert_eq!(cell.get("verdict").and_then(Json::as_str), Some("recheck"));
    assert_eq!(result(4).get("valid").and_then(Json::as_bool), Some(true));
    let check = &result(5).get("checks").and_then(Json::as_array).unwrap()[0];
    assert_eq!(
        check
            .get("check")
            .and_then(|c| c.get("outcome"))
            .and_then(Json::as_str),
        Some("violated")
    );
    assert_eq!(result(6).get("valid").and_then(Json::as_bool), Some(true));
}
