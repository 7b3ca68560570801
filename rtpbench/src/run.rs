//! One server lifetime of a run against a real `rtpserved`: set-up, the
//! timed closed-loop window, peak memory, shutdown.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use crate::wire::{run_op, CallError, Conn, Expect, Params, Request, Session, OP_TIMEOUT};
use crate::workload::Plan;

/// A spawned `rtpserved --tcp 127.0.0.1:0`; killed if dropped while alive.
struct Server {
    child: Child,
    stderr: BufReader<ChildStderr>,
    addr: String,
}

impl Server {
    fn start(bin: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut server = Server {
            child,
            stderr,
            addr: String::new(),
        };
        let mut line = String::new();
        server
            .stderr
            .read_line(&mut line)
            .map_err(|e| e.to_string())?;
        server.addr = line
            .trim()
            .strip_prefix("rtpserved listening on ")
            .ok_or_else(|| format!("unexpected first line from rtpserved: {line:?}"))?
            .to_string();
        Ok(server)
    }

    /// `VmHWM`, the peak resident set, in MiB.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| e.to_string())?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM in /proc status".to_string())
    }

    /// Sends `shutdown` on `conn` and waits for a clean exit.
    fn shutdown(mut self, mut conn: Conn, mut st: Session) -> Result<(), String> {
        let req = Request::new("shutdown", Params::new(), Expect::Null);
        run_op(&mut conn, &mut st, std::slice::from_ref(&req)).map_err(|e| e.to_string())?;
        drop(conn);
        let deadline = Instant::now() + OP_TIMEOUT;
        loop {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                let mut rest = String::new();
                let _ = self.stderr.read_to_string(&mut rest);
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("rtpserved exited with {status}: {rest}"))
                };
            }
            if Instant::now() > deadline {
                return Err("rtpserved did not exit after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client's share of a run.
pub struct ClientRun {
    pub session: Session,
    /// Latencies of the ops that passed, in ms.
    pub latencies_ms: Vec<f64>,
    pub attempted: usize,
    pub errors: Vec<String>,
    window: (Instant, Instant),
}

/// The result of one server lifetime.
pub struct Lifetime {
    pub setup_s: f64,
    pub clients: Vec<ClientRun>,
    /// From the start of the window to the end of the last op.
    pub window_s: f64,
    pub peak_rss_mib: f64,
}

/// Spawns a server, sets every client up (`setup_s` runs from the spawn
/// to the last warm-up op), runs the closed-loop window, reads the peak
/// RSS and shuts the server down.
pub fn lifetime(plan: &Plan, bin: &Path, window: Duration) -> Result<Lifetime, String> {
    let t0 = Instant::now();
    let server = Server::start(bin)?;
    let barrier = Barrier::new(plan.clients.len() + 1);
    let (setup_s, runs) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..plan.clients.len())
            .map(|c| {
                let (barrier, addr) = (&barrier, server.addr.as_str());
                s.spawn(move || client(plan, c, addr, barrier, window))
            })
            .collect();
        barrier.wait();
        let setup_s = t0.elapsed().as_secs_f64();
        let runs: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (setup_s, runs)
    });
    let clients = runs.into_iter().collect::<Result<Vec<_>, _>>()?;
    let start = clients.iter().map(|c| c.window.0).min().expect("clients");
    let end = clients.iter().map(|c| c.window.1).max().expect("clients");
    let peak_rss_mib = server.peak_rss_mib()?;
    // The client connections closed with their threads.
    let conn = Conn::connect(&server.addr).map_err(|e| format!("connect: {e}"))?;
    server.shutdown(conn, Session::default())?;
    Ok(Lifetime {
        setup_s,
        clients,
        window_s: (end - start).as_secs_f64(),
        peak_rss_mib,
    })
}

fn client(
    plan: &Plan,
    c: usize,
    addr: &str,
    barrier: &Barrier,
    window: Duration,
) -> Result<ClientRun, String> {
    let cp = &plan.clients[c];
    let setup = (|| {
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let mut st = Session::default();
        for req in &cp.setup {
            run_op(&mut conn, &mut st, std::slice::from_ref(req)).map_err(|e| e.to_string())?;
        }
        for k in 0..cp.warmup {
            st.op = k;
            run_op(&mut conn, &mut st, &plan.op(c, k).requests)
                .map_err(|e| format!("warm-up op {k}: {e}"))?;
        }
        Ok::<_, String>((conn, st))
    })();
    // Wait even after a failed set-up, or the other threads never start.
    barrier.wait();
    let (mut conn, mut session) = setup?;
    let start = Instant::now();
    let mut run = ClientRun {
        session: Session::default(),
        latencies_ms: Vec::new(),
        attempted: 0,
        errors: Vec::new(),
        window: (start, start),
    };
    let deadline = start + window;
    let mut k = cp.warmup;
    while Instant::now() < deadline {
        session.op = k;
        run.attempted += 1;
        match run_op(&mut conn, &mut session, &plan.op(c, k).requests) {
            Ok(d) if d <= OP_TIMEOUT => run.latencies_ms.push(d.as_secs_f64() * 1e3),
            Ok(d) => run.errors.push(format!("op {k} took {d:?}")),
            Err(CallError::Check(e)) => run.errors.push(format!("op {k}: {e}")),
            Err(CallError::Transport(e)) => {
                run.errors.push(format!("op {k}: {e}"));
                break;
            }
        }
        k += 1;
    }
    run.window = (start, Instant::now());
    run.session = session;
    Ok(run)
}
