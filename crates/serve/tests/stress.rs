//! Concurrent-clients stress test over real TCP: N client threads run a
//! mixed workload (independence checks, FD satisfaction, minimization,
//! stats) against one shared server, and every verdict is compared against
//! a direct [`Analyzer`] baseline computed in-process — zero mismatches
//! allowed. A separate case cancels an in-flight matrix request and
//! requires the typed cancellation error.

use std::io::BufReader;
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

use regtree_alphabet::Alphabet;
use regtree_core::api::Json;
use regtree_core::{
    parse_fd, parse_update_class, Analyzer, Fd, FdOutcome, FdSet, RunLimits, UpdateClass,
};
use regtree_hedge::Schema;
use regtree_serve::rpc::{self, read_frame, write_message};
use regtree_serve::{ServerConfig, Service, TcpServer};
use regtree_xml::parse_document;

const SCHEMA_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures/exam.rts");
const XML_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures/session.xml");

const FD_FULL: &str =
    "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank";
const FD_DISC_RANK: &str = "/session : candidate/exam/discipline -> candidate/exam/rank";
const UPD_LEVEL: &str = "/session/candidate/level";
const UPD_RANK: &str = "/session/candidate/exam/rank";

/// The independence workload: (fd, update) pairs checked by every client.
const PAIRS: [(&str, &str); 3] = [
    (FD_FULL, UPD_LEVEL),
    (FD_FULL, UPD_RANK),
    (FD_DISC_RANK, UPD_LEVEL),
];

fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn pair_array(items: &[(String, String)]) -> Json {
    Json::Arr(
        items
            .iter()
            .map(|(n, e)| Json::Arr(vec![Json::str(n.clone()), Json::str(e.clone())]))
            .collect(),
    )
}

/// One sequential JSON-RPC client over its own TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    write: TcpStream,
    next_id: u64,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            write: stream,
            next_id: 1,
        }
    }

    fn notify(&mut self, method: &str, params: Json) {
        let msg = obj(vec![
            ("jsonrpc", Json::str("2.0")),
            ("method", Json::str(method)),
            ("params", params),
        ]);
        write_message(&mut self.write, &msg).expect("send notification");
    }

    /// Sends a request and blocks until its response arrives.
    fn request(&mut self, method: &str, params: Json) -> Json {
        let id = self.send_request(method, params);
        self.wait_for(id)
    }

    /// Sends a request without waiting (for pipelined cancellation).
    fn send_request(&mut self, method: &str, params: Json) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let msg = obj(vec![
            ("jsonrpc", Json::str("2.0")),
            ("id", Json::u64(id)),
            ("method", Json::str(method)),
            ("params", params),
        ]);
        write_message(&mut self.write, &msg).expect("send request");
        id
    }

    fn wait_for(&mut self, id: u64) -> Json {
        loop {
            let body = read_frame(&mut self.reader, usize::MAX >> 1).expect("read response");
            let resp = Json::parse(std::str::from_utf8(&body).expect("UTF-8")).expect("valid JSON");
            if resp.get("id").and_then(Json::as_u64) == Some(id) {
                return resp;
            }
        }
    }

    /// Unwraps a successful response or panics with the error.
    fn expect_ok<'a>(resp: &'a Json, what: &str) -> &'a Json {
        resp.get("result")
            .unwrap_or_else(|| panic!("{what} failed: {}", resp.to_compact()))
    }
}

fn outcome_str(outcome: &FdOutcome) -> &'static str {
    match outcome {
        FdOutcome::Satisfied => "satisfied",
        FdOutcome::Violated(_) => "violated",
        FdOutcome::Unknown { .. } => "unknown",
        _ => unreachable!("non-exhaustive FdOutcome"),
    }
}

/// The verdicts every client must reproduce, computed on a direct
/// [`Analyzer`] with no server in between.
struct Expected {
    independent: Vec<bool>,
    fd_outcomes: Vec<&'static str>,
    minimize_kept: Vec<String>,
}

fn compute_expected(schema_text: &str, xml: &str) -> Expected {
    let alphabet = Alphabet::new();
    let schema = Schema::parse(&alphabet, schema_text).expect("fixture schema parses");
    let analyzer = Analyzer::builder().schema(schema).build();
    let parse_fd = |expr: &str| -> Fd { parse_fd(&alphabet, expr).expect("workload fd parses") };
    let parse_upd = |expr: &str| -> UpdateClass {
        parse_update_class(&alphabet, expr).expect("workload update class parses")
    };
    let independent = PAIRS
        .iter()
        .map(|(f, u)| {
            analyzer
                .independence(&parse_fd(f), &parse_upd(u))
                .verdict
                .is_independent()
        })
        .collect();
    let doc = parse_document(&alphabet, xml).expect("fixture document parses");
    let fds = [parse_fd(FD_FULL), parse_fd(FD_DISC_RANK)];
    let fd_outcomes = analyzer
        .check_fds(&fds, &doc)
        .outcomes
        .iter()
        .map(outcome_str)
        .collect();
    let mut set = FdSet::new();
    set.push("full", parse_fd(FD_FULL));
    set.push("disc-rank", parse_fd(FD_DISC_RANK));
    set.push("full-dup", parse_fd(FD_FULL));
    let min = set.minimize(&RunLimits::UNLIMITED);
    assert!(min.exhausted.is_none());
    let minimize_kept = min.kept.iter().map(|&k| set.name(k).to_string()).collect();
    Expected {
        independent,
        fd_outcomes,
        minimize_kept,
    }
}

fn start_server() -> (SocketAddr, std::thread::JoinHandle<()>) {
    let service = Arc::new(Service::new(ServerConfig::default()));
    let server = TcpServer::bind("127.0.0.1:0", service).expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || {
        server.run().expect("server run");
    });
    (addr, handle)
}

/// One client's full workload; returns the number of verdict mismatches.
fn run_client(addr: SocketAddr, schema_text: &str, xml: &str, expected: &Expected) -> usize {
    let mut client = Client::connect(addr);
    let mut mismatches = 0;

    let init = client.request(
        "initialize",
        obj(vec![("protocolVersion", Json::str("1.0"))]),
    );
    Client::expect_ok(&init, "initialize");

    let open = client.request(
        "session/open",
        obj(vec![("schema", Json::str(schema_text.to_string()))]),
    );
    let session_id = Client::expect_ok(&open, "session/open")
        .get("sessionId")
        .and_then(Json::as_u64)
        .expect("sessionId");

    let load = client.request(
        "document/load",
        obj(vec![
            ("sessionId", Json::u64(session_id)),
            ("name", Json::str("exam")),
            ("xml", Json::str(xml.to_string())),
            ("validate", Json::Bool(true)),
        ]),
    );
    assert_eq!(
        Client::expect_ok(&load, "document/load")
            .get("valid")
            .and_then(Json::as_bool),
        Some(true),
        "Figure 1 document validates against the exam schema"
    );

    let named_fds = vec![
        ("full".to_string(), FD_FULL.to_string()),
        ("disc-rank".to_string(), FD_DISC_RANK.to_string()),
    ];
    for round in 0..4 {
        // Independence verdicts must match the direct Analyzer exactly.
        for (i, (fd, upd)) in PAIRS.iter().enumerate() {
            let resp = client.request(
                "independence/check",
                obj(vec![
                    ("sessionId", Json::u64(session_id)),
                    ("fd", Json::str(*fd)),
                    ("update", Json::str(*upd)),
                ]),
            );
            let got = Client::expect_ok(&resp, "independence/check")
                .get("independent")
                .and_then(Json::as_bool);
            if got != Some(expected.independent[i]) {
                mismatches += 1;
            }
        }
        // FD satisfaction on the loaded document.
        let resp = client.request(
            "fd/check",
            obj(vec![
                ("sessionId", Json::u64(session_id)),
                ("fds", pair_array(&named_fds)),
            ]),
        );
        let docs = Client::expect_ok(&resp, "fd/check")
            .get("documents")
            .and_then(Json::as_array)
            .expect("documents array");
        let checks = docs[0]
            .get("checks")
            .and_then(Json::as_array)
            .expect("checks");
        for (i, check) in checks.iter().enumerate() {
            if check.get("outcome").and_then(Json::as_str) != Some(expected.fd_outcomes[i]) {
                mismatches += 1;
            }
        }
        // Cover minimization too.
        let with_dup = {
            let mut v = named_fds.clone();
            v.push(("full-dup".to_string(), FD_FULL.to_string()));
            v
        };
        let resp = client.request(
            "fd/minimize",
            obj(vec![
                ("sessionId", Json::u64(session_id)),
                ("fds", pair_array(&with_dup)),
            ]),
        );
        let kept: Vec<&str> = Client::expect_ok(&resp, "fd/minimize")
            .get("kept")
            .and_then(Json::as_array)
            .expect("kept array")
            .iter()
            .filter_map(Json::as_str)
            .collect();
        if kept
            != expected
                .minimize_kept
                .iter()
                .map(String::as_str)
                .collect::<Vec<_>>()
        {
            mismatches += 1;
        }
        // Session stats stay coherent mid-stress.
        if round == 2 {
            let stats = client.request(
                "session/stats",
                obj(vec![("sessionId", Json::u64(session_id))]),
            );
            let result = Client::expect_ok(&stats, "session/stats");
            assert_eq!(result.get("documents").and_then(Json::as_u64), Some(1));
            assert_eq!(result.get("hasSchema").and_then(Json::as_bool), Some(true));
        }
    }

    let close = client.request(
        "session/close",
        obj(vec![("sessionId", Json::u64(session_id))]),
    );
    Client::expect_ok(&close, "session/close");
    mismatches
}

#[test]
fn concurrent_clients_have_zero_verdict_mismatches() {
    let schema_text = std::fs::read_to_string(SCHEMA_PATH).expect("schema fixture");
    let xml = std::fs::read_to_string(XML_PATH).expect("xml fixture");
    let expected = Arc::new(compute_expected(&schema_text, &xml));
    // The workload is meaningful: the paper's Figure 4 example really is
    // independent, and updating the FD's own target really is not.
    assert_eq!(expected.independent, vec![true, false, true]);
    assert_eq!(expected.fd_outcomes, vec!["satisfied", "satisfied"]);

    let (addr, server) = start_server();
    let schema_text = Arc::new(schema_text);
    let xml = Arc::new(xml);
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let (schema_text, xml, expected) = (
                Arc::clone(&schema_text),
                Arc::clone(&xml),
                Arc::clone(&expected),
            );
            std::thread::spawn(move || run_client(addr, &schema_text, &xml, &expected))
        })
        .collect();
    let total_mismatches: usize = clients
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    assert_eq!(
        total_mismatches, 0,
        "every verdict matches the direct Analyzer"
    );

    // A clean shutdown request stops the whole server.
    let mut closer = Client::connect(addr);
    let resp = closer.request("shutdown", Json::Null);
    assert!(resp.get("result").is_some());
    server.join().expect("server thread exits after shutdown");
}

/// A deliberately large schemaless matrix (36 cells over deep paths) that
/// the client cancels while it is in flight: the answer must be the typed
/// [`rpc::CANCELLED`] error with the sound partial response in `data`.
#[test]
fn cancelling_an_inflight_matrix_returns_the_typed_error() {
    let (addr, server) = start_server();
    let mut client = Client::connect(addr);
    let open = client.request("session/open", obj(vec![]));
    let session_id = Client::expect_ok(&open, "session/open")
        .get("sessionId")
        .and_then(Json::as_u64)
        .expect("sessionId");

    let fds: Vec<(String, String)> = (0..6)
        .map(|i| {
            (
                format!("f{i}"),
                format!("/r : a/b/c/d/e/x0, a/b/c/d/e/x1 -> a/b/c/d/e/g{i}"),
            )
        })
        .collect();
    let updates: Vec<(String, String)> = (0..6)
        .map(|i| (format!("u{i}"), format!("/r/a/b/c/d/e/h{i}")))
        .collect();

    let mut cancelled = false;
    for _ in 0..5 {
        let id = client.send_request(
            "independence/matrix",
            obj(vec![
                ("sessionId", Json::u64(session_id)),
                ("fds", pair_array(&fds)),
                ("updates", pair_array(&updates)),
            ]),
        );
        // Pipelined immediately after the request: the reader loop cancels
        // the worker's token while the matrix is still being computed.
        client.notify("$/cancelRequest", obj(vec![("id", Json::u64(id))]));
        let resp = client.wait_for(id);
        if let Some(err) = resp.get("error") {
            assert_eq!(
                err.get("code").and_then(Json::as_f64).map(|f| f as i64),
                Some(rpc::CANCELLED),
                "unexpected error: {}",
                resp.to_compact()
            );
            assert!(
                err.get("data").is_some(),
                "cancellation carries the sound partial response"
            );
            cancelled = true;
            break;
        }
        // The matrix finished before the cancel landed; try again.
    }
    assert!(cancelled, "cancellation never won the race in 5 attempts");

    let resp = client.request("shutdown", Json::Null);
    assert!(resp.get("result").is_some());
    server.join().expect("server thread exits");
}
