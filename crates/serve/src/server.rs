//! Transports: a connection loop generic over reader/writer, plus the
//! stdio and TCP front-ends that feed it.
//!
//! One thread reads frames off the connection. Notifications are handled
//! inline (that is what makes `$/cancelRequest` able to reach a request
//! already running); each request is dispatched on its own worker thread so
//! a long analysis never blocks cancellation or further requests on the
//! same connection. Single requests may therefore complete out of order;
//! only the items of one batch run, and answer, in order. All workers
//! share the write side through a mutex —
//! responses are framed whole under the lock, so concurrent completions
//! never interleave bytes.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use regtree_core::api::Json;
use regtree_core::CancelToken;

use crate::rpc::{self, parse_envelope, read_frame, write_message, FrameError, Incoming, RpcError};
use crate::service::Service;

/// Writer shared by the reader loop and every worker thread.
type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// In-flight requests of one connection, keyed by the compact form of the
/// request id (distinct JSON ids have distinct compact forms).
type PendingMap = Arc<Mutex<HashMap<String, CancelToken>>>;

fn send(writer: &SharedWriter, message: &Json) -> io::Result<()> {
    let mut w = writer.lock();
    write_message(&mut *w, message)
}

/// Runs the request/response loop over one duplex byte stream until the
/// peer hangs up, the stream dies, or a `shutdown` request / `exit`
/// notification arrives. Returns `true` when the server itself should stop
/// (a `shutdown` request was served).
pub fn serve_connection<R: BufRead>(
    service: &Arc<Service>,
    reader: &mut R,
    writer: SharedWriter,
) -> io::Result<bool> {
    let pending: PendingMap = Arc::new(Mutex::new(HashMap::new()));
    let mut workers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut shutdown = false;
    'outer: loop {
        let body = match read_frame(reader, service.config().max_payload) {
            Ok(body) => body,
            Err(FrameError::Closed) => break,
            Err(FrameError::TooLarge { size, max }) => {
                // Frame was drained; answer typed and keep the connection.
                let err = RpcError::new(
                    rpc::PAYLOAD_TOO_LARGE,
                    format!("payload of {size} bytes exceeds cap of {max}"),
                );
                send(&writer, &rpc::response_err(&Json::Null, &err))?;
                continue;
            }
            Err(FrameError::Truncated(d)) | Err(FrameError::Protocol(d)) => {
                // Framing is broken: answer best-effort, then close — the
                // stream position is no longer trustworthy.
                let err = RpcError::new(rpc::PARSE_ERROR, format!("unreadable frame: {d}"));
                let _ = send(&writer, &rpc::response_err(&Json::Null, &err));
                break;
            }
            Err(FrameError::Io(e)) => return Err(e),
        };
        let text = match std::str::from_utf8(&body) {
            Ok(t) => t,
            Err(_) => {
                let err = RpcError::new(rpc::PARSE_ERROR, "body is not valid UTF-8");
                send(&writer, &rpc::response_err(&Json::Null, &err))?;
                continue;
            }
        };
        let value = match Json::parse(text) {
            Ok(v) => v,
            Err(e) => {
                let err = RpcError::new(rpc::PARSE_ERROR, format!("invalid JSON: {e}"));
                send(&writer, &rpc::response_err(&Json::Null, &err))?;
                continue;
            }
        };
        match value {
            // Batch: items run sequentially on this thread; one array
            // response collects every non-notification answer.
            Json::Arr(items) => {
                if items.is_empty() {
                    let err = RpcError::new(rpc::INVALID_REQUEST, "empty batch");
                    send(&writer, &rpc::response_err(&Json::Null, &err))?;
                    continue;
                }
                let mut responses = Vec::new();
                for item in items {
                    match handle_one(service, item, &writer, &pending, false, &mut workers) {
                        Handled::Response(r) => responses.push(r),
                        Handled::Spawned | Handled::Notification => {}
                        Handled::Shutdown(r) => {
                            responses.push(r);
                            shutdown = true;
                        }
                        Handled::Exit => {
                            if !responses.is_empty() {
                                send(&writer, &Json::Arr(responses))?;
                            }
                            break 'outer;
                        }
                    }
                }
                if !responses.is_empty() {
                    send(&writer, &Json::Arr(responses))?;
                }
                if shutdown {
                    break;
                }
            }
            single => match handle_one(service, single, &writer, &pending, true, &mut workers) {
                Handled::Response(r) => send(&writer, &r)?,
                Handled::Spawned | Handled::Notification => {}
                Handled::Shutdown(r) => {
                    send(&writer, &r)?;
                    shutdown = true;
                    break;
                }
                Handled::Exit => break,
            },
        }
    }
    for handle in workers {
        let _ = handle.join();
    }
    Ok(shutdown)
}

enum Handled {
    /// A response to deliver (single: immediately; batch: collected).
    Response(Json),
    /// The request was handed to a worker thread which will respond itself.
    Spawned,
    /// A notification; nothing to send.
    Notification,
    /// A `shutdown` request: deliver the response, then stop the server.
    Shutdown(Json),
    /// An `exit` notification: close the connection immediately.
    Exit,
}

fn handle_one(
    service: &Arc<Service>,
    value: Json,
    writer: &SharedWriter,
    pending: &PendingMap,
    may_spawn: bool,
    workers: &mut Vec<std::thread::JoinHandle<()>>,
) -> Handled {
    let Incoming { id, method, params } = match parse_envelope(value) {
        Ok(inc) => inc,
        Err((id, err)) => return Handled::Response(rpc::response_err(&id, &err)),
    };
    let Some(id) = id else {
        // Notifications: cancellation and exit are meaningful, the rest
        // are ignored per JSON-RPC (never answered, not even with errors).
        match method.as_str() {
            "$/cancelRequest" => {
                if let Some(target) = params.get("id") {
                    let key = target.to_compact();
                    if let Some(token) = pending.lock().get(&key) {
                        token.cancel();
                    }
                }
            }
            "exit" => return Handled::Exit,
            _ => {}
        }
        return Handled::Notification;
    };
    if method == "shutdown" {
        return Handled::Shutdown(rpc::response_ok(&id, Json::Null));
    }
    let Some(guard) = service.admit() else {
        let err = RpcError::new(
            rpc::OVERLOADED,
            format!(
                "server is at its in-flight cap of {}",
                service.config().max_inflight
            ),
        );
        return Handled::Response(rpc::response_err(&id, &err));
    };
    let cancel = CancelToken::new();
    let key = id.to_compact();
    pending.lock().insert(key.clone(), cancel.clone());
    let finish = {
        let pending = Arc::clone(pending);
        move |result: Result<Json, RpcError>| -> Json {
            pending.lock().remove(&key);
            match result {
                Ok(result) => rpc::response_ok(&id, result),
                Err(err) => rpc::response_err(&id, &err),
            }
        }
    };
    if may_spawn {
        let service = Arc::clone(service);
        let writer = Arc::clone(writer);
        // A finished thread keeps its stack until it is joined or its
        // handle is dropped: free them now, not when the connection closes.
        workers.retain(|h| !h.is_finished());
        workers.push(std::thread::spawn(move || {
            let result = service.dispatch(&method, &params, &cancel);
            drop(guard);
            let _ = send(&writer, &finish(result));
        }));
        Handled::Spawned
    } else {
        // Batch items answer in order, so they run inline.
        let result = service.dispatch(&method, &params, &cancel);
        drop(guard);
        Handled::Response(finish(result))
    }
}

/// Serves one client over stdin/stdout (the editor-integration transport).
/// Returns when stdin closes or the client sends `shutdown`/`exit`.
pub fn serve_stdio(service: &Arc<Service>) -> io::Result<()> {
    let mut reader = BufReader::new(io::stdin());
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(io::stdout())));
    serve_connection(service, &mut reader, writer)?;
    Ok(())
}

/// A TCP front-end: accepts connections and serves each on its own thread.
pub struct TcpServer {
    listener: TcpListener,
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
}

impl TcpServer {
    /// Binds `addr` (use port 0 to let the OS pick — handy in tests).
    pub fn bind(addr: &str, service: Arc<Service>) -> io::Result<TcpServer> {
        Ok(TcpServer {
            listener: TcpListener::bind(addr)?,
            service,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (real port when bound with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept loop. Returns after a client's `shutdown` request completes.
    pub fn run(&self) -> io::Result<()> {
        let addr = self.local_addr()?;
        loop {
            let (stream, _) = self.listener.accept()?;
            if self.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let service = Arc::clone(&self.service);
            let stop = Arc::clone(&self.stop);
            std::thread::spawn(move || {
                if let Ok(true) = handle_tcp_client(&service, stream) {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop so `run` can observe the flag.
                    let _ = TcpStream::connect(addr);
                }
            });
        }
    }
}

fn handle_tcp_client(service: &Arc<Service>, stream: TcpStream) -> io::Result<bool> {
    let write_half = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let writer: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
    serve_connection(service, &mut reader, writer)
}
