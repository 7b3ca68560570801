//! A long-lived connection must not hold on to its finished request
//! workers: a thread that has exited keeps its stack until it is joined,
//! so a connection that joined them only at close grew with every request
//! it served.
//!
//! This file holds one test, so the process's memory is that test's alone.

use std::io::{BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;

use parking_lot::Mutex;

use regtree_core::api::Json;
use regtree_serve::rpc::{read_frame, write_frame};
use regtree_serve::{serve_connection, ServerConfig, Service};

/// Requests timed after the warm-up.
const REQUESTS: u64 = 2_000;
/// Allowed growth of the resident set over those requests. A connection
/// that keeps every finished worker grows by over 10 KiB per request.
const MAX_GROWTH_KIB: u64 = 8 * 1024;

/// The process's resident set in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has a VmRSS line")
}

#[test]
fn finished_request_workers_are_freed_before_the_connection_closes() {
    let service = Arc::new(Service::new(ServerConfig::default()));
    let (client, server) = UnixStream::pair().expect("socket pair");
    let connection = std::thread::spawn(move || {
        let writer: Arc<Mutex<Box<dyn Write + Send>>> =
            Arc::new(Mutex::new(Box::new(server.try_clone().expect("clone"))));
        serve_connection(&service, &mut BufReader::new(server), writer)
    });

    // Closed loop: each request waits for its answer, so at most one
    // worker is running at any time.
    let mut out = client.try_clone().expect("clone");
    let mut input = BufReader::new(client);
    let mut call = |id: u64| {
        let body =
            format!(r#"{{"jsonrpc":"2.0","id":{id},"method":"server/stats","params":null}}"#);
        write_frame(&mut out, body.as_bytes()).expect("request written");
        let reply = read_frame(&mut input, 1 << 20).expect("reply read");
        let reply = Json::parse(std::str::from_utf8(&reply).expect("UTF-8")).expect("JSON");
        assert_eq!(
            reply.get("id").and_then(Json::as_u64),
            Some(id),
            "{reply:?}"
        );
        assert!(reply.get("result").is_some(), "{reply:?}");
    };
    for id in 0..100 {
        call(id);
    }
    let before = vm_rss_kib();
    for id in 100..100 + REQUESTS {
        call(id);
    }
    let growth = vm_rss_kib().saturating_sub(before);

    // Hanging up ends the connection loop, which joins what is left.
    drop(out);
    drop(input);
    let shutdown = connection.join().expect("connection thread");
    assert!(!shutdown.expect("connection loop ends cleanly"));
    assert!(
        growth <= MAX_GROWTH_KIB,
        "resident set grew by {growth} KiB over {REQUESTS} sequential requests"
    );
}
