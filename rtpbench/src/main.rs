//! `rtpbench` — the end-to-end benchmark of `rtpserved`.
//!
//! ```text
//! rtpbench run --server PATH --out DIR [--workload NAME|all] [--seed N]
//!              [--seconds S] [--trace 0|1] [--runs K]
//! rtpbench compare A.json B.json [--bounds BENCHMARK.json]
//! ```
//!
//! `run` measures each workload against fresh `rtpserved --tcp` servers
//! from two closed-loop clients, checks every response, and prints one
//! `<workload> <metric> <value> <unit> n=<samples>` line per metric and,
//! last, the run as one JSON object. After the window comes the traced
//! in-process replay, which gives the per-layer metrics and writes
//! `DIR/trace-<workload>.jsonl`. `--trace 0` skips the replay and reports
//! the end-to-end metrics only; `--trace 1` reports the per-layer metrics
//! only. `--runs K` repeats everything with seeds `N..N+K`. All runs of one
//! invocation go to `DIR/results.json`, which `compare` reads. `run.sh`
//! builds the server and this binary and is the usual way in.

mod compare;
mod gen;
mod metrics;
mod replay;
mod run;
mod stats;
mod trace;
mod wire;
mod workload;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use metrics::{Metric, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median, percentile};
use workload::{Kind, Plan};

const USAGE: &str = "\
usage: rtpbench run --server PATH --out DIR [--workload NAME|all] [--seed N]
                    [--seconds S] [--trace 0|1] [--runs K]
       rtpbench compare A.json B.json [--bounds BENCHMARK.json]";

/// Fresh servers per run, each measured for an equal share of the run.
/// Latencies and throughput pool the ops of all of them; `setup_s` and the
/// peak RSS are the medians of their per-server values.
const LIFETIMES: usize = 4;

struct RunArgs {
    server: PathBuf,
    out: PathBuf,
    workloads: Vec<Kind>,
    seed: u64,
    seconds: u64,
    /// `Some(false)`: end-to-end metrics only; `Some(true)`: per-layer
    /// metrics only; `None`: both.
    trace: Option<bool>,
    runs: u64,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        server: PathBuf::new(),
        out: PathBuf::new(),
        workloads: Kind::ALL.to_vec(),
        seed: 0,
        seconds: RUN_SECONDS,
        trace: None,
        runs: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} expects an integer"))
        };
        match flag.as_str() {
            "--server" => r.server = PathBuf::from(value),
            "--out" => r.out = PathBuf::from(value),
            "--workload" if value == "all" => r.workloads = Kind::ALL.to_vec(),
            "--workload" => {
                r.workloads =
                    vec![Kind::parse(value).ok_or_else(|| format!("no workload {value}"))?]
            }
            "--seed" => r.seed = num()?,
            "--seconds" => r.seconds = num()?,
            "--trace" => r.trace = Some(num()? == 1),
            "--runs" => r.runs = num()?.max(1),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if r.server.as_os_str().is_empty() || r.out.as_os_str().is_empty() {
        return Err("--server and --out are required".into());
    }
    Ok(r)
}

/// The outcome of one `(workload, seed)` run.
struct Outcome {
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    /// `(metric, value, samples)`, in table order.
    values: Vec<(&'static Metric, f64, usize)>,
}

fn measure(kind: Kind, seed: u64, args: &RunArgs) -> Result<Outcome, String> {
    let plan = Plan::new(kind, seed);
    let window = Duration::from_secs(args.seconds) / LIFETIMES as u32;
    let mut latencies = Vec::new();
    let (mut window_s, mut setups, mut rss) = (0.0, Vec::new(), Vec::new());
    let mut attempted = 0;
    let mut errors = Vec::new();
    let mut first_sessions = None;
    for _ in 0..LIFETIMES {
        let life = run::lifetime(&plan, &args.server, window)?;
        window_s += life.window_s;
        setups.push(life.setup_s);
        rss.push(life.peak_rss_mib);
        for c in &life.clients {
            latencies.extend_from_slice(&c.latencies_ms);
            attempted += c.attempted;
            // One error per failed op, then one per mismatch found after
            // the window.
            errors.extend_from_slice(&c.errors);
        }
        let sessions: Vec<wire::Session> = life.clients.into_iter().map(|c| c.session).collect();
        errors.extend(workload::deep_check(&plan, &sessions));
        first_sessions.get_or_insert(sessions);
    }
    let sessions = first_sessions.expect("at least one lifetime");
    let p50 = median(&latencies);
    let n = latencies.len();

    let mut values = Vec::new();
    if args.trace != Some(true) {
        let e2e = [
            (p50, n),
            (percentile(&latencies, 90.0), n),
            (n as f64 / window_s, n),
            (median(&setups), LIFETIMES),
            (median(&rss), LIFETIMES),
        ];
        values.extend(END_TO_END.iter().zip(e2e).map(|(m, (v, n))| (m, v, n)));
    }
    if args.trace != Some(false) {
        let r = replay::replay(&plan, p50, &sessions);
        errors.extend(r.errors);
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let path = args.out.join(format!("trace-{}.jsonl", kind.name()));
        std::fs::write(&path, r.trace).map_err(|e| format!("{}: {e}", path.display()))?;
        values.extend(PER_LAYER.iter().zip(r.metrics).map(|(m, v)| (m, v, r.ops)));
    }
    Ok(Outcome {
        attempted,
        failed: errors.len(),
        errors,
        values,
    })
}

/// The run as the one-line JSON object the last line of output carries.
fn result_json(o: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, (m, v, _)) in o.values.iter().enumerate() {
        let v = if v.is_finite() { *v } else { 0.0 };
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            metrics,
            r#"{sep}"{}":{{"value":{v},"unit":"{}"}}"#,
            m.name, m.unit
        );
    }
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{metrics}}}}}"#,
        o.failed == 0,
        o.attempted.max(1),
        o.failed
    )
}

fn run_all(args: &RunArgs) -> Result<bool, String> {
    let mut all_ok = true;
    let mut results = Vec::new();
    for seed in args.seed..args.seed + args.runs {
        for &kind in &args.workloads {
            let o = measure(kind, seed, args)
                .map_err(|e| format!("{} seed {seed}: {e}", kind.name()))?;
            for (m, v, n) in &o.values {
                println!("{} {} {v} {} n={n}", kind.name(), m.name, m.unit);
            }
            let rate = o.failed as f64 / o.attempted.max(1) as f64;
            println!(
                "{} error_rate {rate} failed/attempted n={}",
                kind.name(),
                o.attempted
            );
            for e in o.errors.iter().take(5) {
                eprintln!("{} seed {seed}: {e}", kind.name());
            }
            all_ok &= o.failed == 0;
            let json = result_json(&o);
            println!("{json}");
            results.push(format!(
                r#"{{"workload":"{}","seed":{seed},"result":{json}}}"#,
                kind.name()
            ));
        }
    }
    std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
    let path = args.out.join("results.json");
    let text = format!("{{\"runs\":[\n{}\n]}}\n", results.join(",\n"));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|r| run_all(&r)),
        Some("compare") if args.len() >= 3 => {
            let bounds = match args.get(3).map(String::as_str) {
                Some("--bounds") => args.get(4).map_or("BENCHMARK.json", String::as_str),
                _ => "BENCHMARK.json",
            };
            compare::compare(&args[1], &args[2], bounds).map(|worse| !worse)
        }
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("rtpbench: {e}");
            ExitCode::from(2)
        }
    }
}
