//! `rtpcheck` — command-line front-end for the `regtree` library.
//!
//! ```text
//! rtpcheck validate      --schema SCHEMA.rts DOC.xml...
//! rtpcheck fd-check      --fd "CTX : P1,P2 -> Q" DOC.xml...
//! rtpcheck fd-check      --fds FDS.lst DOC.xml...   (batch, parallel)
//! rtpcheck eval          --xpath "/session/candidate" DOC.xml
//! rtpcheck independence  --fd "CTX : P1 -> Q" --update "/xpath" [--schema S]
//!                        [--deadline-ms N] [--max-states N] [--stats]
//!                        [--format json] [--trace out.json] [--stats-verbose]
//! rtpcheck independence-matrix --fds FDS.lst --updates UPS.lst [--schema S]
//!                        [--prune]
//! rtpcheck fds minimize  --fds FDS.lst [BUDGET] [--format json]
//! rtpcheck demo
//! ```
//!
//! Schemas use the `label: content-model` rule format of
//! [`regtree_hedge::Schema::parse`]; FDs use the textual pattern language
//! of [`regtree_core::parse_fd`] — a superset of the \[8\] path formalism
//! adding descendant axes, wildcards and counting predicates (see
//! `docs/PATTERN_LANGUAGE.md`); update classes are absolute paths in the
//! same language, without value tests, whose final step is predicate-free
//! (the selected node must be a leaf of the update template).
//!
//! Analysis commands run through the [`regtree_core::Analyzer`] façade and
//! accept resource budgets (`--deadline-ms`, `--max-states`, `--max-memo`,
//! `--max-frontier`). A run that exhausts a budget prints what it knows and
//! exits 3 instead of hanging on an adversarial instance.
//!
//! Analysis commands also accept the tracing flags: `--trace FILE` captures
//! a timeline of phase spans loadable in `chrome://tracing`/Perfetto
//! (`--trace-format jsonl` switches to one-record-per-line JSON), and
//! `--stats-verbose` adds a per-phase wall-time breakdown to the `--stats`
//! counters, which it implies. With `--format json`, stdout is
//! exactly one JSON document — progress notes (such as the trace-file
//! confirmation) go to stderr.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use regtree_alphabet::Alphabet;
use regtree_core::api::{
    metrics_to_json, parse_update_json, phases_to_json, scope_name, DocumentChecks, FdCheckOutcome,
    FdCheckResponse, IndependenceResponse, Json, MatrixResponse, MinimizeResponse,
    PatternParseResponse, UpdateCheckEntry, UpdateResponse,
};
use regtree_core::{
    parse_fd, parse_update_class, Analyzer, ApplyError, ChromeTraceSink, Error as CoreError,
    FdOutcome, FdSet, RunLimits, RunMetrics, SpanId, SpanKind, SummarySink, TraceFormat,
    TraceSummary, Tracer, UpdateClass, Verdict,
};
use regtree_hedge::Schema;
use regtree_pattern::CompiledPattern;
use regtree_xml::{parse_document, to_xml_with, SerializeOptions, VersionedDocument};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args.iter().map(String::as_str).collect::<Vec<_>>()) {
        Ok(out) => {
            print!("{out}");
            ExitCode::SUCCESS
        }
        Err(CliError::Violation(out)) => {
            print!("{out}");
            ExitCode::from(1)
        }
        Err(CliError::Exhausted(out)) => {
            print!("{out}");
            ExitCode::from(3)
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "\
rtpcheck — regular tree patterns: XML FDs, updates and independence

USAGE:
  rtpcheck validate     --schema FILE DOC.xml...
  rtpcheck fd-check     --fd EXPR | --fds FILE [BUDGET] [OUTPUT] DOC.xml...
  rtpcheck fd-check     --fd EXPR | --fds FILE --updates FILE.jsonl DOC.xml
                        (apply a JSONL update stream in place; each FD is
                        rechecked at the smallest sound scope — see
                        'update request' syntax below)
  rtpcheck eval         --xpath PATH DOC.xml
  rtpcheck independence --fd EXPR --update PATH [--schema FILE] [BUDGET]
                        [OUTPUT]
  rtpcheck independence-matrix --fds FILE --updates FILE [--schema FILE]
                        [--prune] [BUDGET] [OUTPUT] (alias: matrix)
                        (--prune drops FDs implied by the rest of the set;
                        their rows print 'implied' and skip the engine)
  rtpcheck fds minimize --fds FILE [BUDGET] [OUTPUT]
                        (irredundant core of an FD set with provenance;
                        exit 3 when the closure budget ran out — the
                        partial result is still sound)
  rtpcheck pattern parse [--explain] [--format json] EXPR...
                        (parse textual patterns, print the canonical form;
                        --explain also prints the compiled template)
  rtpcheck demo

  BUDGET flags:     --deadline-ms N  --max-states N  --max-memo N
                    --max-frontier N  (an exhausted run reports UNKNOWN)
  OUTPUT flags:     --format json|text  --stats  --stats-verbose
                    --trace FILE  --trace-format chrome|jsonl
                    (--format json: stdout is one JSON document; notes on
                    stderr. --stats: work counters as name=value.
                    --stats-verbose: --stats plus per-phase wall time.
                    --trace: phase timeline for chrome://tracing/Perfetto)
  EXIT CODES:       0 independent/satisfied · 1 violation or unproven
                    independence · 2 usage/input errors · 3 budget exhausted
  FD EXPR syntax:   /ctx/path : cond1, cond2[N] -> target
                    (paths use the full pattern language: //, *, @attr,
                    text(), [q], [count(p) >= n] — docs/PATTERN_LANGUAGE.md)
  PATH syntax:      the pattern language, e.g. /session/candidate/level
                    (update classes: no value tests, predicate-free final
                    step; predicate branches map in document order: [p]
                    before the continuation — Definition 2 order semantics)
  update request:   one JSON object per line ('#' comments skipped):
                    {\"select\": PATH, \"op\": replace|append_child|
                     prepend_child|delete|set_text, \"xml\": SUBTREE,
                     \"value\": TEXT, \"first_only\": BOOL}
";

/// CLI outcomes that need distinct exit codes.
#[derive(Debug)]
enum CliError {
    /// Bad arguments (exit 2).
    Usage(String),
    /// A check ran and found a violation or an unproven pair (exit 1) —
    /// output still printed.
    Violation(String),
    /// IO/parse failures (exit 2).
    Runtime(String),
    /// A resource budget ran out before the answer was decided (exit 3) —
    /// partial output still printed.
    Exhausted(String),
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn runtime(msg: impl std::fmt::Display) -> CliError {
    CliError::Runtime(msg.to_string())
}

/// Parsed flag set: `--key value` pairs plus positionals.
struct Flags {
    values: Vec<(String, String)>,
    positional: Vec<String>,
    json: bool,
    stats: bool,
    stats_verbose: bool,
    prune: bool,
    explain: bool,
}

fn parse_flags(args: &[&str]) -> Result<Flags, CliError> {
    let mut values = Vec::new();
    let mut positional = Vec::new();
    let mut json = false;
    let mut stats = false;
    let mut stats_verbose = false;
    let mut prune = false;
    let mut explain = false;
    let mut i = 0;
    while i < args.len() {
        let a = args[i];
        if a == "--json" {
            json = true;
            i += 1;
        } else if a == "--stats" {
            stats = true;
            i += 1;
        } else if a == "--stats-verbose" {
            // The phase table carries only time; the counts stay on the
            // `--stats` line.
            stats = true;
            stats_verbose = true;
            i += 1;
        } else if a == "--prune" {
            prune = true;
            i += 1;
        } else if a == "--explain" {
            explain = true;
            i += 1;
        } else if let Some(key) = a.strip_prefix("--") {
            let v = args
                .get(i + 1)
                .ok_or_else(|| usage(format!("flag --{key} needs a value")))?;
            values.push((key.to_string(), v.to_string()));
            i += 2;
        } else {
            positional.push(a.to_string());
            i += 1;
        }
    }
    Ok(Flags {
        values,
        positional,
        json,
        stats,
        stats_verbose,
        prune,
        explain,
    })
}

impl Flags {
    fn get(&self, key: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key)
            .ok_or_else(|| usage(format!("missing required flag --{key}")))
    }

    /// Did the user ask for JSON output (`--format json` or legacy `--json`)?
    fn wants_json(&self) -> Result<bool, CliError> {
        match self.get("format") {
            None => Ok(self.json),
            Some("json") => Ok(true),
            Some("text") => Ok(false),
            Some(other) => Err(usage(format!(
                "--format expects 'json' or 'text', got '{other}'"
            ))),
        }
    }

    fn u64_flag(&self, key: &str) -> Result<Option<u64>, CliError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse::<u64>()
                .map(Some)
                .map_err(|_| usage(format!("--{key} expects an integer, got '{v}'"))),
        }
    }

    /// Collects the budget flags into [`RunLimits`] (absent = unlimited).
    fn limits(&self) -> Result<RunLimits, CliError> {
        let mut l = RunLimits::default();
        if let Some(ms) = self.u64_flag("deadline-ms")? {
            l = l.with_deadline_ms(ms);
        }
        if let Some(n) = self.u64_flag("max-states")? {
            l = l.with_max_states(n);
        }
        if let Some(n) = self.u64_flag("max-memo")? {
            l = l.with_max_memo(n);
        }
        if let Some(n) = self.u64_flag("max-frontier")? {
            l = l.with_max_frontier(n);
        }
        Ok(l)
    }
}

fn run(args: &[&str]) -> Result<String, CliError> {
    let Some((&cmd, rest)) = args.split_first() else {
        return Err(usage("no subcommand"));
    };
    match cmd {
        "validate" => cmd_validate(rest),
        "fd-check" => cmd_fd_check(rest),
        "eval" => cmd_eval(rest),
        "independence" => cmd_independence(rest),
        "independence-matrix" | "matrix" => cmd_matrix(rest),
        "fds" => match rest.split_first() {
            Some((&"minimize", rest)) => cmd_fds_minimize(rest),
            Some((other, _)) => Err(usage(format!("unknown fds subcommand '{other}'"))),
            None => Err(usage("fds needs a subcommand (minimize)")),
        },
        "pattern" => match rest.split_first() {
            Some((&"parse", rest)) => cmd_pattern_parse(rest),
            Some((other, _)) => Err(usage(format!("unknown pattern subcommand '{other}'"))),
            None => Err(usage("pattern needs a subcommand (parse)")),
        },
        "demo" => cmd_demo(),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(usage(format!("unknown subcommand '{other}'"))),
    }
}

fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| runtime(format!("reading {path}: {e}")))
}

fn load_docs(
    alphabet: &Alphabet,
    paths: &[String],
) -> Result<Vec<(String, regtree_xml::Document)>, CliError> {
    if paths.is_empty() {
        return Err(usage("no documents given"));
    }
    paths
        .iter()
        .map(|p| {
            let src = read_file(p)?;
            let doc = parse_document(alphabet, &src).map_err(runtime)?;
            Ok((p.clone(), doc))
        })
        .collect()
}

/// Trace sinks requested on the command line: `--trace FILE` captures a
/// Chrome-trace (or JSONL) timeline, `--stats-verbose` aggregates a per-phase
/// summary. Both may be active at once; [`TeeTracer`] fans the hooks out.
struct Tracing {
    /// Timeline sink plus its output path and format, when `--trace` was given.
    chrome: Option<(Arc<ChromeTraceSink>, String, TraceFormat)>,
    /// Aggregating sink, when `--stats-verbose` was given.
    summary: Option<Arc<SummarySink>>,
}

impl Tracing {
    fn from_flags(flags: &Flags) -> Result<Tracing, CliError> {
        let format = match flags.get("trace-format") {
            None => TraceFormat::Chrome,
            Some(name) => TraceFormat::from_name(name).ok_or_else(|| {
                usage(format!(
                    "--trace-format expects 'chrome' or 'jsonl', got '{name}'"
                ))
            })?,
        };
        let chrome = match flags.get("trace") {
            Some(path) => Some((Arc::new(ChromeTraceSink::new()), path.to_string(), format)),
            None if flags.get("trace-format").is_some() => {
                return Err(usage("--trace-format needs --trace FILE"));
            }
            None => None,
        };
        let summary = flags.stats_verbose.then(|| Arc::new(SummarySink::new()));
        Ok(Tracing { chrome, summary })
    }

    /// The tracer to attach to the analyzer, if any sink was requested.
    fn tracer(&self) -> Option<Arc<dyn Tracer>> {
        let mut sinks: Vec<Arc<dyn Tracer>> = Vec::new();
        if let Some((sink, _, _)) = &self.chrome {
            sinks.push(Arc::clone(sink) as Arc<dyn Tracer>);
        }
        if let Some(sink) = &self.summary {
            sinks.push(Arc::clone(sink) as Arc<dyn Tracer>);
        }
        match sinks.len() {
            0 => None,
            1 => sinks.pop(),
            _ => Some(Arc::new(TeeTracer(sinks))),
        }
    }

    /// Writes the trace file (if any) and snapshots the phase summary (if
    /// any). Called on every exit path — violation and exhaustion included —
    /// so a cut-short run still leaves its timeline behind.
    fn finish(&self) -> Result<Option<TraceSummary>, CliError> {
        if let Some((sink, path, format)) = &self.chrome {
            sink.save_to(path, *format)
                .map_err(|e| runtime(format!("writing trace {path}: {e}")))?;
            eprintln!("trace written to {path} ({} records)", sink.len());
        }
        Ok(self.summary.as_ref().map(|s| s.summary()))
    }
}

/// Forwards every hook to each sink. Span ids are allocated by the traced
/// code, not the sink, so the same id reaches all sinks and their span
/// begin/end pairs line up without translation.
struct TeeTracer(Vec<Arc<dyn Tracer>>);

impl Tracer for TeeTracer {
    fn span_begin(&self, id: SpanId, kind: SpanKind, label: &str) {
        for t in &self.0 {
            t.span_begin(id, kind, label);
        }
    }

    fn span_end(&self, id: SpanId, kind: SpanKind) {
        for t in &self.0 {
            t.span_end(id, kind);
        }
    }
}

/// Builds an [`Analyzer`] from the shared CLI flags: an optional schema, the
/// budget flags, and any requested trace sinks. Also reports whether a
/// schema was given.
fn build_analyzer(
    alphabet: &Alphabet,
    flags: &Flags,
    tracing: &Tracing,
) -> Result<(Analyzer, bool), CliError> {
    let mut builder = Analyzer::builder().limits(flags.limits()?);
    let with_schema = flags.get("schema").is_some();
    if let Some(path) = flags.get("schema") {
        builder = builder.schema(Schema::parse(alphabet, &read_file(path)?).map_err(runtime)?);
    }
    if let Some(tracer) = tracing.tracer() {
        builder = builder.tracer(tracer);
    }
    Ok((builder.build(), with_schema))
}

fn cmd_validate(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let alphabet = Alphabet::new();
    let schema_src = read_file(flags.require("schema")?)?;
    let schema = Schema::parse(&alphabet, &schema_src).map_err(runtime)?;
    let docs = load_docs(&alphabet, &flags.positional)?;
    let mut out = String::new();
    let mut failed = false;
    for (path, doc) in &docs {
        match schema.validate(doc) {
            Ok(()) => writeln!(out, "{path}: valid").expect("write to string"),
            Err(e) => {
                failed = true;
                writeln!(out, "{path}: INVALID — {e}").expect("write to string");
            }
        }
    }
    if failed {
        Err(CliError::Violation(out))
    } else {
        Ok(out)
    }
}

fn cmd_fd_check(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let alphabet = Alphabet::new();
    // Either one inline dependency (--fd EXPR) or a whole named list
    // (--fds FILE); a batch is checked per document by the analyzer's
    // governed parallel runner, one worker thread per core.
    let mut names: Vec<String> = Vec::new();
    let mut fds: Vec<regtree_core::Fd> = Vec::new();
    if let Some(path) = flags.get("fds") {
        for (name, fd) in parse_named_list(&alphabet, path, "fd", parse_fd)? {
            names.push(name);
            fds.push(fd);
        }
    }
    if let Some(expr) = flags.get("fd") {
        let fd = parse_fd(&alphabet, expr).map_err(runtime)?;
        names.push("fd".to_string());
        fds.push(fd);
    }
    if fds.is_empty() {
        return Err(usage("missing required flag --fd EXPR (or --fds FILE)"));
    }
    if flags.get("updates").is_some() {
        return cmd_fd_check_updates(&flags, &alphabet, &names, &fds);
    }
    let json = flags.wants_json()?;
    let tracing = Tracing::from_flags(&flags)?;
    let docs = load_docs(&alphabet, &flags.positional)?;
    let mut builder = Analyzer::builder().limits(flags.limits()?);
    if let Some(tracer) = tracing.tracer() {
        builder = builder.tracer(tracer);
    }
    let analyzer = builder.build();
    let mut failed = false;
    let mut ran_out = false;
    let mut totals = RunMetrics::default();
    let mut reports = Vec::with_capacity(docs.len());
    for (path, doc) in &docs {
        let report = analyzer.check_fds(&fds, doc);
        totals.merge(&report.metrics);
        for outcome in &report.outcomes {
            match outcome {
                FdOutcome::Violated(_) => failed = true,
                FdOutcome::Unknown { .. } => ran_out = true,
                _ => {}
            }
        }
        reports.push((path, doc, report));
    }
    // The trace file is written before rendering so violation and
    // exhaustion exits still produce it.
    let phases = tracing.finish()?;
    let out = if json {
        // Machine-readable mode: stdout is exactly one JSON document in the
        // shared `regtree_core::api` shape (the same one `rtpserved` serves).
        let documents = reports
            .iter()
            .map(|(path, doc, report)| DocumentChecks {
                path: (*path).clone(),
                checks: names
                    .iter()
                    .zip(&report.outcomes)
                    .map(|(name, outcome)| {
                        let violation = match outcome {
                            FdOutcome::Violated(v) => Some(v.describe(doc)),
                            _ => None,
                        };
                        FdCheckOutcome::from_outcome(name, outcome, violation)
                    })
                    .collect(),
            })
            .collect();
        let mut resp = FdCheckResponse::from_documents(documents);
        resp.metrics = flags.stats.then_some(totals);
        resp.phases = phases.clone();
        format!("{}\n", resp.to_json().to_pretty())
    } else {
        let mut out = String::new();
        for (path, doc, report) in &reports {
            for (name, outcome) in names.iter().zip(&report.outcomes) {
                let prefix = if fds.len() == 1 {
                    (*path).clone()
                } else {
                    format!("{path} [{name}]")
                };
                match outcome {
                    FdOutcome::Satisfied => {
                        writeln!(out, "{prefix}: satisfies the FD").expect("write to string");
                    }
                    FdOutcome::Violated(v) => {
                        writeln!(out, "{prefix}: VIOLATED — {}", v.describe(doc))
                            .expect("write to string");
                    }
                    FdOutcome::Unknown { exhausted, .. } => {
                        writeln!(out, "{prefix}: UNKNOWN — {exhausted}").expect("write to string");
                    }
                    other => {
                        writeln!(out, "{prefix}: {other:?}").expect("write to string");
                    }
                }
            }
        }
        if flags.stats {
            writeln!(out, "stats: {totals}").expect("write to string");
        }
        if let Some(s) = &phases {
            write!(out, "{s}").expect("write to string");
        }
        out
    };
    if failed {
        Err(CliError::Violation(out))
    } else if ran_out {
        Err(CliError::Exhausted(out))
    } else {
        Ok(out)
    }
}

/// The `--updates FILE` mode of `fd-check`: one document, one JSONL stream
/// of update requests ([`regtree_core::api::parse_update_json`] shapes,
/// blank lines and `#` comments skipped). Updates are applied in place as
/// deltas and every FD is rechecked at the smallest sound scope instead of
/// from scratch (`regtree_core::incremental`).
fn cmd_fd_check_updates(
    flags: &Flags,
    alphabet: &Alphabet,
    names: &[String],
    fds: &[regtree_core::Fd],
) -> Result<String, CliError> {
    let json = flags.wants_json()?;
    let tracing = Tracing::from_flags(flags)?;
    let updates_src = read_file(flags.require("updates")?)?;
    let mut docs = load_docs(alphabet, &flags.positional)?;
    if docs.len() != 1 {
        return Err(usage("--updates mode checks exactly one DOC.xml"));
    }
    let (path, doc) = docs.remove(0);

    let mut builder = Analyzer::builder().limits(flags.limits()?);
    if let Some(tracer) = tracing.tracer() {
        builder = builder.tracer(tracer);
    }
    let analyzer = builder.build();
    let mut vdoc = VersionedDocument::new(doc);
    let mut checker = analyzer.incremental_checker(fds.to_vec(), &vdoc);

    let mut totals = RunMetrics::default();
    let mut responses: Vec<UpdateResponse> = Vec::new();
    let mut failed = false;
    let mut ran_out = false;
    for (lineno, line) in updates_src.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = |e: String| runtime(format!("updates line {}: {e}", lineno + 1));
        let request = Json::parse(line).map_err(bad)?;
        let update = parse_update_json(alphabet, &request).map_err(bad)?;
        let report = match checker.apply_and_recheck(&mut vdoc, &update) {
            Ok(report) => report,
            Err(e @ ApplyError::Exhausted(_)) => {
                let msg = format!("updates line {}: {e}", lineno + 1);
                return Err(CliError::Exhausted(if json {
                    let error = Json::Obj(vec![("error".into(), Json::str(&msg))]);
                    format!("{}\n", error.to_pretty())
                } else {
                    format!("{msg}\n")
                }));
            }
            Err(e) => return Err(bad(e.to_string())),
        };
        totals.merge(&report.metrics);
        let checks: Vec<UpdateCheckEntry> = names
            .iter()
            .zip(report.scopes.iter().zip(&report.outcomes))
            .map(|(name, (&scope, outcome))| {
                match outcome {
                    FdOutcome::Violated(_) => failed = true,
                    FdOutcome::Unknown { .. } => ran_out = true,
                    _ => {}
                }
                let violation = match outcome {
                    FdOutcome::Violated(v) => Some(v.describe(vdoc.doc())),
                    _ => None,
                };
                UpdateCheckEntry {
                    fd: name.clone(),
                    scope: scope_name(scope).to_string(),
                    check: FdCheckOutcome::from_outcome(name, outcome, violation),
                }
            })
            .collect();
        responses.push(UpdateResponse {
            path: path.clone(),
            version: vdoc.version(),
            touched: report.touched.len(),
            checks,
            all_satisfied: report.all_satisfied(),
            metrics: None,
            phases: None,
        });
    }

    let phases = tracing.finish()?;
    let out = if json {
        let mut members = vec![
            ("path".into(), Json::str(&path)),
            (
                "updates".into(),
                Json::Arr(responses.iter().map(UpdateResponse::to_json).collect()),
            ),
            ("all_satisfied".into(), Json::Bool(checker.all_satisfied())),
        ];
        if flags.stats {
            members.push(("metrics".into(), metrics_to_json(&totals)));
        }
        if let Some(s) = &phases {
            members.push(("phases".into(), phases_to_json(s)));
        }
        format!("{}\n", Json::Obj(members).to_pretty())
    } else {
        let mut out = String::new();
        for (i, resp) in responses.iter().enumerate() {
            let scopes: Vec<&str> = resp.checks.iter().map(|c| c.scope.as_str()).collect();
            let verdict = if resp.all_satisfied {
                "satisfied".to_string()
            } else {
                resp.checks
                    .iter()
                    .filter(|c| c.check.outcome != "satisfied")
                    .map(|c| {
                        format!(
                            "{}: {}{}",
                            c.fd,
                            c.check.outcome.to_uppercase(),
                            c.check
                                .violation
                                .as_deref()
                                .map(|v| format!(" — {v}"))
                                .unwrap_or_default()
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ")
            };
            writeln!(
                out,
                "update {:>4}: touched={} scopes=[{}] {}",
                i + 1,
                resp.touched,
                scopes.join(" "),
                verdict
            )
            .expect("write to string");
        }
        writeln!(
            out,
            "{path}: {} update(s) applied, final state {}",
            responses.len(),
            if checker.all_satisfied() {
                "satisfies every FD"
            } else {
                "has violations"
            }
        )
        .expect("write to string");
        if flags.stats {
            writeln!(out, "stats: {totals}").expect("write to string");
        }
        if let Some(s) = &phases {
            write!(out, "{s}").expect("write to string");
        }
        out
    };
    if failed {
        Err(CliError::Violation(out))
    } else if ran_out {
        Err(CliError::Exhausted(out))
    } else {
        Ok(out)
    }
}

fn cmd_eval(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let alphabet = Alphabet::new();
    let src = flags.require("xpath")?;
    let pattern = CompiledPattern::from_text(&alphabet, src)
        .map_err(|e| CliError::Runtime(render_parse_error(src, &e)))?;
    let docs = load_docs(&alphabet, &flags.positional)?;
    let mut out = String::new();
    for (path, doc) in &docs {
        let results = pattern.evaluate(doc);
        writeln!(out, "{path}: {} match(es)", results.len()).expect("write to string");
        for tuple in results {
            for node in tuple {
                writeln!(
                    out,
                    "  {} <{}>",
                    doc.dewey_string(node),
                    doc.label_name(node)
                )
                .expect("write to string");
            }
        }
    }
    Ok(out)
}

/// `rtpcheck pattern parse [--explain] [--format json] EXPR...`: parses
/// textual patterns, prints the canonical form, and with `--explain` the
/// compiled template — the quickest way to see what a pattern means before
/// using it in an FD or a query.
fn cmd_pattern_parse(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let json = flags.wants_json()?;
    let alphabet = Alphabet::new();
    if flags.positional.is_empty() {
        return Err(usage("pattern parse needs at least one pattern expression"));
    }
    let mut out = String::new();
    let mut responses = Vec::new();
    for expr in &flags.positional {
        let compiled = CompiledPattern::from_text(&alphabet, expr)
            .map_err(|e| CliError::Runtime(render_parse_error(expr, &e)))?;
        let resp = PatternParseResponse::from_compiled(expr, &compiled);
        if json {
            responses.push(resp.to_json());
        } else if flags.explain {
            writeln!(out, "input:     {}", resp.source).expect("write to string");
            writeln!(out, "canonical: {}", resp.canonical).expect("write to string");
            writeln!(
                out,
                "template:  {} node(s), selected {}",
                resp.template_nodes,
                resp.selected
                    .iter()
                    .map(|i| format!("n{i}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
            .expect("write to string");
            for line in resp.sketch.lines() {
                writeln!(out, "  {line}").expect("write to string");
            }
            for (n, v) in &resp.value_tests {
                writeln!(
                    out,
                    "value test: n{n} = {v:?} (applied as a mapping filter)"
                )
                .expect("write to string");
            }
        } else {
            writeln!(out, "{}", resp.canonical).expect("write to string");
        }
    }
    if json {
        let doc = if responses.len() == 1 {
            responses.pop().expect("one response")
        } else {
            Json::Arr(responses)
        };
        Ok(format!("{}\n", doc.to_pretty()))
    } else {
        Ok(out)
    }
}

/// Renders a [`regtree_pattern::lang::ParseError`] with a caret line
/// pointing at the byte offset in the source.
fn render_parse_error(src: &str, e: &regtree_pattern::lang::ParseError) -> String {
    let mut out = format!("{e}\n  {src}\n  ");
    for _ in 0..e.offset.min(src.len()) {
        out.push(' ');
    }
    out.push('^');
    out
}

/// Renders an FD or update-class parse failure: pattern-text errors get
/// the [`render_parse_error`] caret under the offending byte of `src`.
fn render_error(src: &str, e: &CoreError) -> String {
    match e {
        CoreError::PatternText(pe) => render_parse_error(src, pe),
        CoreError::UpdateClass(_) => format!("{e}; the final step must be predicate-free"),
        _ => e.to_string(),
    }
}

fn cmd_independence(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let json = flags.wants_json()?;
    let tracing = Tracing::from_flags(&flags)?;
    let alphabet = Alphabet::new();
    let fd = parse_fd(&alphabet, flags.require("fd")?).map_err(runtime)?;
    let update = flags.require("update")?;
    let class = parse_update_class(&alphabet, update)
        .map_err(|e| CliError::Runtime(render_error(update, &e)))?;
    let (analyzer, with_schema) = build_analyzer(&alphabet, &flags, &tracing)?;
    let analysis = analyzer.independence(&fd, &class);
    let phases = tracing.finish()?;
    let witness_xml = match &analysis.verdict {
        Verdict::Unknown {
            witness: Some(doc), ..
        } => Some(to_xml_with(doc, SerializeOptions { indent: true })),
        _ => None,
    };
    let mut report = IndependenceResponse::from_analysis(&analysis, witness_xml);
    report.metrics = flags.stats.then_some(analysis.metrics);
    report.phases = phases;
    let out = if json {
        format!("{}\n", report.to_json().to_pretty())
    } else {
        let mut out = String::new();
        if report.independent {
            writeln!(
                out,
                "INDEPENDENT: no update of this class can break the FD{}",
                if with_schema {
                    " (under the schema)"
                } else {
                    ""
                }
            )
            .expect("write to string");
        } else if let Some(resource) = analysis.verdict.exhausted() {
            writeln!(
                out,
                "EXHAUSTED: {resource} before the criterion decided — re-run with a larger budget"
            )
            .expect("write to string");
        } else {
            writeln!(
                out,
                "UNKNOWN: the criterion cannot prove independence (IC language nonempty)"
            )
            .expect("write to string");
            if let Some(xml) = &report.witness_xml {
                writeln!(out, "witness document where update and FD interact:\n{xml}")
                    .expect("write to string");
            }
        }
        writeln!(
            out,
            "automaton: {} IC states, size {}, {} product states explored",
            report.ic_states, report.automaton_size, report.explored_states
        )
        .expect("write to string");
        if let Some(m) = &report.metrics {
            writeln!(out, "stats: {m}").expect("write to string");
        }
        if let Some(s) = &report.phases {
            write!(out, "{s}").expect("write to string");
        }
        out
    };
    if report.independent {
        Ok(out)
    } else if report.exhausted.is_some() {
        Err(CliError::Exhausted(out))
    } else {
        Err(CliError::Violation(out))
    }
}

/// Reads a `name = expression` list file (one entry per line; `#`
/// comments) and parses every expression with `parse` (`parse_fd` or
/// `parse_update_class`); a failure reads `<item> '<name>': …`.
fn parse_named_list<T>(
    alphabet: &Alphabet,
    path: &str,
    item: &str,
    parse: fn(&Alphabet, &str) -> Result<T, CoreError>,
) -> Result<Vec<(String, T)>, CliError> {
    let mut out = Vec::new();
    for (lineno, raw) in read_file(path)?.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name, expr) = line
            .split_once('=')
            .ok_or_else(|| runtime(format!("line {}: expected 'name = expr'", lineno + 1)))?;
        let (name, expr) = (name.trim(), expr.trim());
        let parsed = parse(alphabet, expr)
            .map_err(|e| runtime(format!("{item} '{name}': {}", render_error(expr, &e))))?;
        out.push((name.to_string(), parsed));
    }
    if out.is_empty() {
        return Err(runtime("empty list file"));
    }
    Ok(out)
}

/// `rtpcheck fds minimize --fds FILE`: the irredundant core of an FD set
/// with provenance (which kept FDs imply each dropped one). Budget flags
/// govern the implication closure; a run that exhausts its budget prints
/// the sound partial result and exits 3.
fn cmd_fds_minimize(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let json = flags.wants_json()?;
    let alphabet = Alphabet::new();
    let mut set = FdSet::new();
    for (name, fd) in parse_named_list(&alphabet, flags.require("fds")?, "fd", parse_fd)? {
        set.push(name, fd);
    }
    let min = set.minimize(&flags.limits()?);
    let out = if json {
        // Machine-readable mode: stdout is exactly one JSON document. On
        // the PARTIAL (exit 3) path the human-readable note goes to stderr,
        // matching the independence/matrix convention.
        if let Some(r) = min.exhausted {
            eprintln!(
                "note: PARTIAL — closure budget exhausted ({r}); recorded \
                 drops are proven, further drops may have been missed"
            );
        }
        format!(
            "{}\n",
            MinimizeResponse::from_minimization(&min, &set)
                .to_json()
                .to_pretty()
        )
    } else {
        let mut out = String::new();
        writeln!(
            out,
            "{} of {} FDs form the irredundant core:",
            min.kept.len(),
            set.len()
        )
        .expect("write to string");
        for &k in &min.kept {
            writeln!(out, "  keep  {}", set.name(k)).expect("write to string");
        }
        for d in &min.dropped {
            let by = if d.by.is_empty() {
                "trivial".to_string()
            } else {
                format!(
                    "implied by {}",
                    d.by.iter()
                        .map(|&j| set.name(j))
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            };
            writeln!(out, "  drop  {} ({by})", set.name(d.index)).expect("write to string");
        }
        if let Some(r) = min.exhausted {
            writeln!(
                out,
                "PARTIAL: closure budget exhausted ({r}) — recorded drops are \
                 proven, further drops may have been missed"
            )
            .expect("write to string");
        }
        out
    };
    if min.is_complete() {
        Ok(out)
    } else {
        Err(CliError::Exhausted(out))
    }
}

fn cmd_matrix(args: &[&str]) -> Result<String, CliError> {
    let flags = parse_flags(args)?;
    let alphabet = Alphabet::new();
    let fds = parse_named_list(&alphabet, flags.require("fds")?, "fd", parse_fd)?;
    let classes = parse_named_list(
        &alphabet,
        flags.require("updates")?,
        "update",
        parse_update_class,
    )?;
    let fd_refs: Vec<(&str, &regtree_core::Fd)> =
        fds.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let class_refs: Vec<(&str, &UpdateClass)> =
        classes.iter().map(|(n, c)| (n.as_str(), c)).collect();
    let json = flags.wants_json()?;
    let tracing = Tracing::from_flags(&flags)?;
    let (analyzer, _) = build_analyzer(&alphabet, &flags, &tracing)?;
    let matrix = if flags.prune {
        analyzer.matrix_pruned(&fd_refs, &class_refs)
    } else {
        analyzer.matrix(&fd_refs, &class_refs)
    };
    let phases = tracing.finish()?;
    let pairs = fd_refs.len() * class_refs.len();
    let exhausted = matrix.exhausted_count();
    let mut totals = RunMetrics::default();
    for cell in &matrix.cells {
        totals.merge(&cell.metrics);
    }
    let out = if json {
        // Machine-readable mode: stdout is exactly one JSON document in the
        // shared `regtree_core::api` shape (the same one `rtpserved` serves).
        let mut resp = MatrixResponse::from_matrix(&matrix);
        resp.metrics = flags.stats.then_some(totals);
        resp.phases = phases.clone();
        format!("{}\n", resp.to_json().to_pretty())
    } else {
        let mut out = matrix.to_string();
        let explored: usize = matrix.cells.iter().map(|c| c.explored_states).sum();
        let total: usize = matrix.cells.iter().map(|c| c.automaton_size).sum();
        writeln!(
            out,
            "\n{} of {pairs} pairs provably independent ({explored} of {total} product states explored)",
            matrix.independent_count()
        )
        .expect("write to string");
        // Every non-independent cell must be rechecked after its update class
        // runs — including Unknown cells whose budget ran out.
        writeln!(
            out,
            "{} of {pairs} pairs must be rechecked after updates{}",
            matrix.recheck_count(),
            if exhausted > 0 {
                format!(" ({exhausted} undecided: budget exhausted, marked RECHECK?)")
            } else {
                String::new()
            }
        )
        .expect("write to string");
        if flags.prune {
            writeln!(
                out,
                "pruning: {} cells computed, {} reused (*), {} rows dropped as implied",
                matrix.computed_count(),
                matrix.reused_count(),
                matrix.implied_row_count()
            )
            .expect("write to string");
        } else if matrix.reused_count() > 0 {
            // Duplicate FD/class pairs share one engine run via the matrix
            // interner even without --prune.
            writeln!(
                out,
                "sharing: {} cells computed, {} reused from identical pairs (*)",
                matrix.computed_count(),
                matrix.reused_count()
            )
            .expect("write to string");
        }
        if flags.stats {
            writeln!(out, "stats: {totals}").expect("write to string");
        }
        if let Some(s) = &phases {
            write!(out, "{s}").expect("write to string");
        }
        out
    };
    if exhausted > 0 {
        Err(CliError::Exhausted(out))
    } else {
        Ok(out)
    }
}

fn cmd_demo() -> Result<String, CliError> {
    let alphabet = regtree_gen::exam_alphabet();
    let doc = regtree_gen::figure1_document(&alphabet);
    let schema = regtree_gen::exam_schema(&alphabet);
    let mut out = String::new();
    writeln!(out, "— Figure 1 document ({} nodes) —", doc.len()).expect("write");
    writeln!(
        out,
        "{}",
        to_xml_with(&doc, SerializeOptions { indent: true })
    )
    .expect("write");
    writeln!(
        out,
        "schema validation: {:?}",
        schema.validate(&doc).is_ok()
    )
    .expect("write");
    for (name, fd) in [
        ("fd1", regtree_gen::fd1(&alphabet)),
        ("fd2", regtree_gen::fd2(&alphabet)),
        ("fd3", regtree_gen::fd3(&alphabet)),
    ] {
        writeln!(
            out,
            "{name}: {}",
            if regtree_core::satisfies(&fd, &doc) {
                "satisfied"
            } else {
                "violated"
            }
        )
        .expect("write");
    }
    let class = regtree_gen::update_class_u(&alphabet);
    let analyzer = Analyzer::builder().schema(schema).build();
    for (name, fd) in [
        ("fd3 vs U", regtree_gen::fd3(&alphabet)),
        ("fd5 vs U", regtree_gen::fd5(&alphabet)),
    ] {
        let a = analyzer.independence(&fd, &class);
        writeln!(
            out,
            "{name} (with schema): {}",
            if a.verdict.is_independent() {
                "INDEPENDENT"
            } else {
                "unknown"
            }
        )
        .expect("write");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(content: &str, ext: &str) -> tempfileish::TempPath {
        tempfileish::write(content, ext)
    }

    /// Minimal self-contained temp-file helper (no external crate).
    mod tempfileish {
        use std::path::PathBuf;
        use std::sync::atomic::{AtomicU64, Ordering};

        static N: AtomicU64 = AtomicU64::new(0);

        pub struct TempPath(pub PathBuf);

        impl Drop for TempPath {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }

        pub fn write(content: &str, ext: &str) -> TempPath {
            let n = N.fetch_add(1, Ordering::SeqCst);
            let mut p = std::env::temp_dir();
            p.push(format!("rtpcheck-test-{}-{n}.{ext}", std::process::id()));
            std::fs::write(&p, content).expect("temp write");
            TempPath(p)
        }
    }

    #[test]
    fn demo_runs() {
        let out = run(&["demo"]).unwrap();
        assert!(out.contains("fd1: satisfied"));
        assert!(out.contains("fd5 vs U (with schema): INDEPENDENT"));
        assert!(out.contains("fd3 vs U (with schema): unknown"));
    }

    #[test]
    fn validate_command() {
        let schema = tmp("root: r\nr: x*\nx: EMPTY\n", "rts");
        let good = tmp("<r><x/></r>", "xml");
        let bad = tmp("<r><y/></r>", "xml");
        let out = run(&[
            "validate",
            "--schema",
            schema.0.to_str().unwrap(),
            good.0.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("valid"));
        let err = run(&[
            "validate",
            "--schema",
            schema.0.to_str().unwrap(),
            bad.0.to_str().unwrap(),
        ]);
        assert!(matches!(err, Err(CliError::Violation(_))));
    }

    #[test]
    fn fd_check_command() {
        let good = tmp(
            "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>1</v></i></s>",
            "xml",
        );
        let bad = tmp(
            "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>2</v></i></s>",
            "xml",
        );
        let fd = "/s : i/k -> i/v";
        let ok = run(&["fd-check", "--fd", fd, good.0.to_str().unwrap()]).unwrap();
        assert!(ok.contains("satisfies"));
        let err = run(&["fd-check", "--fd", fd, bad.0.to_str().unwrap()]);
        assert!(matches!(err, Err(CliError::Violation(_))));
    }

    #[test]
    fn fd_check_accepts_the_textual_pattern_language() {
        // Counting predicate: only items with >= 2 witnesses are in scope.
        let fd = "/s : i[count(w) >= 2]/k -> i[count(w) >= 2]/v";
        let good = tmp(
            "<s><i><w/><w/><k>a</k><v>1</v></i><i><w/><k>a</k><v>2</v></i></s>",
            "xml",
        );
        let ok = run(&["fd-check", "--fd", fd, good.0.to_str().unwrap()]).unwrap();
        assert!(ok.contains("satisfies"), "{ok}");
        let bad = tmp(
            "<s><i><w/><w/><k>a</k><v>1</v></i><i><w/><w/><k>a</k><v>2</v></i></s>",
            "xml",
        );
        let err = run(&["fd-check", "--fd", fd, bad.0.to_str().unwrap()]);
        assert!(matches!(err, Err(CliError::Violation(_))));

        // The same textual grammar works in --fds list files ('=' inside
        // '>=' is past the first '=' the list format splits at).
        let fds = tmp(&format!("counted = {fd}\nplain = /s : i/k -> i/v\n"), "lst");
        let err = run(&[
            "fd-check",
            "--fds",
            fds.0.to_str().unwrap(),
            bad.0.to_str().unwrap(),
        ]);
        let Err(CliError::Violation(out)) = err else {
            panic!("expected violation");
        };
        assert!(out.contains("[counted]: VIOLATED"), "{out}");
        assert!(out.contains("[plain]: VIOLATED"), "{out}");

        // Parse errors surface the byte offset.
        let err = run(&["fd-check", "--fd", "/s : i/k -> ", good.0.to_str().unwrap()]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error");
        };
        assert!(msg.contains("byte 12"), "{msg}");
    }

    #[test]
    fn pattern_parse_command() {
        // Sugar normalizes to the canonical form.
        let out = run(&["pattern", "parse", "/s//c[at-least 2 child::e]/l"]).unwrap();
        assert_eq!(out, "/s//c[count(e) >= 2]/l\n");

        // --explain adds the compiled template.
        let out = run(&["pattern", "parse", "--explain", "/s/c[@a = \"x\"]"]).unwrap();
        assert!(out.contains("canonical: /s/c[@a = \"x\"]"), "{out}");
        assert!(out.contains("template:"), "{out}");
        assert!(out.contains("--[s/c]--> n1"), "{out}");
        assert!(out.contains("value test: n2 = \"x\""), "{out}");

        // --format json emits the shared api shape.
        let out = run(&["pattern", "parse", "--format", "json", "/s/c"]).unwrap();
        let v = regtree_core::api::Json::parse(&out).unwrap();
        assert_eq!(v.get("canonical").and_then(Json::as_str), Some("/s/c"));
        assert_eq!(v.get("template_nodes").and_then(Json::as_u64), Some(2));

        // Errors point at the offending byte with a caret.
        let err = run(&["pattern", "parse", "/s/[x]"]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error");
        };
        assert!(msg.contains("byte 3"), "{msg}");
        assert!(
            msg.lines().last().unwrap().trim_end().ends_with('^'),
            "{msg}"
        );
    }

    /// Hostile nesting is a runtime error (exit 2) naming the limit, not a
    /// stack overflow: 20,000 nested predicates, 50,000 nested parentheses.
    #[test]
    fn deeply_nested_pattern_and_schema_exit_2() {
        let pattern = format!("/a{}{}", "[b".repeat(20_000), "]".repeat(20_000));
        let err = run(&["pattern", "parse", &pattern]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error, got {err:?}");
        };
        assert!(msg.contains("nesting deeper than 256"), "{msg}");

        let schema = tmp(
            &format!("root: {}x{}\n", "(".repeat(50_000), ")".repeat(50_000)),
            "rts",
        );
        let doc = tmp("<x/>", "xml");
        let err = run(&[
            "validate",
            "--schema",
            schema.0.to_str().unwrap(),
            doc.0.to_str().unwrap(),
        ]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error, got {err:?}");
        };
        assert!(msg.contains("nesting deeper than 256"), "{msg}");
    }

    #[test]
    fn fd_check_updates_command() {
        let doc = tmp(
            "<s><i><k>a</k><v>1</v><note>n</note></i><i><k>a</k><v>1</v><note>n</note></i></s>",
            "xml",
        );
        let fd = "/s : i/k -> i/v";
        // Note edits never touch the FD; the v rewrite breaks it.
        let stream = tmp(
            "# benign edit, then a violating one\n\
             {\"select\": \"/s/i/note\", \"op\": \"set_text\", \"value\": \"m\"}\n\
             {\"select\": \"/s/i/v\", \"op\": \"set_text\", \"value\": \"9\", \"first_only\": true}\n",
            "jsonl",
        );
        let err = run(&[
            "fd-check",
            "--fd",
            fd,
            "--updates",
            stream.0.to_str().unwrap(),
            doc.0.to_str().unwrap(),
        ]);
        let Err(CliError::Violation(out)) = err else {
            panic!("expected violation, got {err:?}");
        };
        assert!(out.contains("scopes=[unaffected] satisfied"), "{out}");
        assert!(out.contains("scopes=[localized] fd: VIOLATED"), "{out}");
        assert!(out.contains("final state has violations"), "{out}");

        // A selection that runs out of budget stops the stream (exit 3)
        // at its line, before any edit; JSON mode still prints JSON.
        for format in ["text", "json"] {
            let err = run(&[
                "fd-check",
                "--fd",
                fd,
                "--updates",
                stream.0.to_str().unwrap(),
                "--max-memo",
                "0",
                "--format",
                format,
                doc.0.to_str().unwrap(),
            ]);
            let Err(CliError::Exhausted(out)) = err else {
                panic!("expected exhaustion, got {err:?}");
            };
            let msg = match format {
                "json" => Json::parse(&out)
                    .unwrap_or_else(|e| panic!("not JSON: {e}\n{out}"))
                    .get("error")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .unwrap_or_default(),
                _ => out.clone(),
            };
            assert!(
                msg.starts_with("updates line 2: update selection ran out of budget (memo)"),
                "{out}"
            );
        }

        // A benign-only stream exits cleanly, and the JSON shape carries
        // the per-update scopes.
        let benign = tmp(
            "{\"select\": \"/s/i/note\", \"op\": \"set_text\", \"value\": \"m\"}\n",
            "jsonl",
        );
        let ok = run(&[
            "fd-check",
            "--fd",
            fd,
            "--updates",
            benign.0.to_str().unwrap(),
            "--format",
            "json",
            doc.0.to_str().unwrap(),
        ])
        .unwrap();
        let v = regtree_core::api::Json::parse(&ok).unwrap();
        assert_eq!(v.get("all_satisfied").and_then(Json::as_bool), Some(true));
        let updates = v.get("updates").unwrap().as_array().unwrap();
        assert_eq!(updates.len(), 1);
        let first = &updates[0];
        assert_eq!(first.get("touched").and_then(Json::as_u64), Some(2));
        let checks = first.get("checks").unwrap().as_array().unwrap();
        assert_eq!(
            checks[0].get("scope").and_then(Json::as_str),
            Some("unaffected")
        );
    }

    #[test]
    fn fd_check_batch_command() {
        let fds = tmp("keyval = /s : i/k -> i/v\nkeyw = /s : i/k -> i/w\n", "lst");
        let good = tmp(
            "<s><i><k>a</k><v>1</v><w>x</w></i><i><k>a</k><v>1</v><w>x</w></i></s>",
            "xml",
        );
        let bad = tmp(
            "<s><i><k>a</k><v>1</v><w>x</w></i><i><k>a</k><v>1</v><w>y</w></i></s>",
            "xml",
        );
        let ok = run(&[
            "fd-check",
            "--fds",
            fds.0.to_str().unwrap(),
            good.0.to_str().unwrap(),
        ])
        .unwrap();
        assert!(ok.contains("[keyval]: satisfies"), "{ok}");
        assert!(ok.contains("[keyw]: satisfies"), "{ok}");
        let err = run(&[
            "fd-check",
            "--fds",
            fds.0.to_str().unwrap(),
            bad.0.to_str().unwrap(),
        ]);
        match err {
            Err(CliError::Violation(out)) => {
                assert!(out.contains("[keyval]: satisfies"), "{out}");
                assert!(out.contains("[keyw]: VIOLATED"), "{out}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn fd_check_budget_exhaustion() {
        let good = tmp(
            "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>1</v></i></s>",
            "xml",
        );
        // A zero memo budget trips on the first memoized candidate list:
        // the outcome must be UNKNOWN (exit 3), never a wrong verdict.
        let err = run(&[
            "fd-check",
            "--fd",
            "/s : i/k -> i/v",
            "--max-memo",
            "0",
            "--stats",
            good.0.to_str().unwrap(),
        ]);
        match err {
            Err(CliError::Exhausted(out)) => {
                assert!(out.contains("UNKNOWN"), "{out}");
                assert!(out.contains("stats:"), "{out}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn eval_command() {
        let doc = tmp("<s><c/><c/></s>", "xml");
        let out = run(&["eval", "--xpath", "/s/c", doc.0.to_str().unwrap()]).unwrap();
        assert!(out.contains("2 match(es)"), "{out}");

        // The full pattern language: counting predicates and value tests.
        let doc = tmp(r#"<s><c k="x"><v/><v/></c><c k="y"><v/></c></s>"#, "xml");
        let path = doc.0.to_str().unwrap();
        let out = run(&["eval", "--xpath", "/s/c[count(v) >= 2]", path]).unwrap();
        assert!(out.contains("1 match(es)"), "{out}");
        let out = run(&["eval", "--xpath", r#"/s/c[@k = "y"]"#, path]).unwrap();
        assert!(out.contains("1 match(es)"), "{out}");
        let Err(CliError::Runtime(msg)) = run(&["eval", "--xpath", "/s/[c]", path]) else {
            panic!("expected a parse error");
        };
        assert!(msg.lines().last().unwrap().ends_with('^'), "{msg}");
    }

    #[test]
    fn update_class_errors_point_at_the_byte() {
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/s/i[",
        ]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error, got {err:?}");
        };
        assert!(msg.contains("byte 5"), "{msg}");
        assert!(msg.lines().last().unwrap().ends_with('^'), "{msg}");

        // A predicate on the final step makes the updated node an inner
        // template node.
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/s/i[v]",
        ]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error, got {err:?}");
        };
        assert!(msg.contains("predicate-free"), "{msg}");

        let fds = tmp("price = /catalog : item/sku -> item/price\n", "lst");
        let ups = tmp(
            "restock = /catalog/item/stock\nbad = /catalog//[x]\n",
            "lst",
        );
        let err = run(&[
            "matrix",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
        ]);
        let Err(CliError::Runtime(msg)) = err else {
            panic!("expected runtime error, got {err:?}");
        };
        assert!(
            msg.starts_with("update 'bad': pattern parse error at byte 10"),
            "{msg}"
        );
        assert!(msg.lines().last().unwrap().ends_with('^'), "{msg}");
    }

    #[test]
    fn independence_command_json() {
        let out = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--json",
        ])
        .unwrap();
        assert!(out.contains("\"independent\": true"), "{out}");
        assert!(out.contains("\"exhausted\": null"), "{out}");
        // A dependent pair is a reportable failure: exit 1, output intact.
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/s/i/v",
        ]);
        match err {
            Err(CliError::Violation(out2)) => {
                assert!(out2.contains("UNKNOWN"), "{out2}");
                assert!(out2.contains("witness"), "{out2}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn independence_stats_flag() {
        let out = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--stats",
        ])
        .unwrap();
        assert!(out.contains("INDEPENDENT"), "{out}");
        assert!(out.contains("stats: states_interned="), "{out}");
    }

    #[test]
    fn independence_budget_exhaustion() {
        // One interned state cannot decide this dependent pair: the run
        // must stop gracefully with an EXHAUSTED report, not a wrong answer.
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/s/i/v",
            "--max-states",
            "1",
        ]);
        match err {
            Err(CliError::Exhausted(out)) => {
                assert!(out.contains("EXHAUSTED"), "{out}");
                assert!(out.contains("interned-state budget"), "{out}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // Same run in JSON with stats: machine-readable resource + counters.
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/s/i/v",
            "--max-states",
            "1",
            "--format",
            "json",
            "--stats",
        ]);
        match err {
            Err(CliError::Exhausted(out)) => {
                assert!(out.contains("\"exhausted\": \"states\""), "{out}");
                assert!(out.contains("\"states_interned\""), "{out}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn matrix_command() {
        let fds = tmp("price = /catalog : item/sku -> item/price\n", "lst");
        let ups = tmp(
            "restock = /catalog/item/stock\nreprice = /catalog/item/price\n",
            "lst",
        );
        let out = run(&[
            "matrix",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("1 of 2 pairs provably independent"), "{out}");
        assert!(out.contains("1 of 2 pairs must be rechecked"), "{out}");
        assert!(out.contains("RECHECK"), "{out}");
    }

    #[test]
    fn matrix_prune_drops_implied_rows() {
        // `weak` is `price` with an extra condition: implied, dropped.
        let fds = tmp(
            "price = /catalog : item/sku -> item/price\n\
             weak = /catalog : item/sku, item/name -> item/price\n",
            "lst",
        );
        let ups = tmp(
            "restock = /catalog/item/stock\nreprice = /catalog/item/price\n",
            "lst",
        );
        let out = run(&[
            "matrix",
            "--prune",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("implied"), "{out}");
        assert!(
            out.contains("2 cells computed, 0 reused (*), 1 rows dropped as implied"),
            "{out}"
        );
        // Only the kept implier is ever listed for recheck.
        assert!(out.contains("1 of 4 pairs must be rechecked"), "{out}");

        // JSON mode: provenance is machine-readable and stdout parses.
        let json = run(&[
            "matrix",
            "--prune",
            "--format",
            "json",
            "--stats",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
        ])
        .unwrap();
        Json::parse(&json).expect("pruned matrix JSON parses");
        assert!(json.contains("\"provenance\": \"implied\""), "{json}");
        assert!(json.contains("\"implied_by\": [\"price\"]"), "{json}");
        assert!(json.contains("\"implied_rows\": 1"), "{json}");
        assert!(json.contains("\"computed_cells\": 2"), "{json}");
        assert!(json.contains("\"verdicts_reused\""), "{json}");
    }

    #[test]
    fn matrix_prune_computes_every_kept_row() {
        // `wide` marks the whole subtree at item; `narrow` a sub-region.
        // Neither implies the other, so both rows are kept, and each runs
        // the engine: pruning shares verdicts only between identical pairs.
        let fds = tmp(
            "wide = /catalog : item/sku -> item[N]\n\
             narrow = /catalog : item/sku -> item/price\n",
            "lst",
        );
        let ups = tmp("other = /inventory/pallet\n", "lst");
        let out = run(&[
            "matrix",
            "--prune",
            "--format",
            "json",
            "--stats",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
        ])
        .unwrap();
        let v = Json::parse(&out).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n{out}"));
        let cells = v.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), 2, "{out}");
        for cell in cells {
            assert_eq!(
                cell.get("provenance").and_then(Json::as_str),
                Some("computed"),
                "{out}"
            );
        }
        assert_eq!(v.get("reused_cells").and_then(Json::as_u64), Some(0));
        assert_eq!(
            v.get("metrics")
                .and_then(|m| m.get("verdicts_reused"))
                .and_then(Json::as_u64),
            Some(0),
            "{out}"
        );
    }

    #[test]
    fn fds_minimize_command() {
        let fds = tmp(
            "base = /s : c/e/d, c/e/m -> c/e/r\n\
             weaker = /s : c/e/d, c/e/m, c/x -> c/e/r\n\
             other = /s : c/n -> c/z\n",
            "lst",
        );
        let out = run(&["fds", "minimize", "--fds", fds.0.to_str().unwrap()]).unwrap();
        assert!(
            out.contains("2 of 3 FDs form the irredundant core"),
            "{out}"
        );
        assert!(out.contains("keep  base"), "{out}");
        assert!(out.contains("keep  other"), "{out}");
        assert!(out.contains("drop  weaker (implied by base)"), "{out}");

        let json = run(&[
            "fds",
            "minimize",
            "--format",
            "json",
            "--fds",
            fds.0.to_str().unwrap(),
        ])
        .unwrap();
        Json::parse(&json).expect("minimize JSON parses");
        assert!(json.contains("\"kept\": [\"base\", \"other\"]"), "{json}");
        assert!(json.contains("\"implied_by\": [\"base\"]"), "{json}");
        assert!(json.contains("\"complete\": true"), "{json}");

        // A zero deadline exhausts the closure: exit 3 with a sound
        // partial result (nothing dropped).
        let err = run(&[
            "fds",
            "minimize",
            "--deadline-ms",
            "0",
            "--fds",
            fds.0.to_str().unwrap(),
        ]);
        match err {
            Err(CliError::Exhausted(out)) => {
                assert!(out.contains("PARTIAL"), "{out}");
                assert!(
                    out.contains("3 of 3 FDs form the irredundant core"),
                    "{out}"
                );
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }

        // Usage errors keep exit 2.
        assert!(matches!(run(&["fds", "minimize"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["fds"]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["fds", "maximize"]), Err(CliError::Usage(_))));
    }

    #[test]
    fn matrix_budget_exhaustion_counts_as_recheck() {
        let fds = tmp("price = /catalog : item/sku -> item/price\n", "lst");
        let ups = tmp("restock = /catalog/item/stock\n", "lst");
        let err = run(&[
            "matrix",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
            "--max-states",
            "1",
        ]);
        match err {
            Err(CliError::Exhausted(out)) => {
                // The pair is provably independent with a real budget, but a
                // 1-state cap leaves it undecided — and undecided means it
                // must be counted as a recheck, never as independent.
                assert!(out.contains("0 of 1 pairs provably independent"), "{out}");
                assert!(out.contains("1 of 1 pairs must be rechecked"), "{out}");
                assert!(out.contains("RECHECK?"), "{out}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn independence_matrix_command_with_schema() {
        let fds = tmp("price = /catalog : item/sku -> item/price\n", "lst");
        let ups = tmp("restock = /catalog/item/stock\n", "lst");
        let schema = tmp(
            "root: catalog\ncatalog: item*\nitem: sku price stock\nsku: #text\nprice: #text\nstock: #text\n",
            "rts",
        );
        let out = run(&[
            "independence-matrix",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
            "--schema",
            schema.0.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("1 of 1 pairs provably independent"), "{out}");
        assert!(out.contains("product states explored"), "{out}");
    }

    #[test]
    fn usage_errors() {
        assert!(matches!(run(&[]), Err(CliError::Usage(_))));
        assert!(matches!(run(&["bogus"]), Err(CliError::Usage(_))));
        assert!(matches!(
            run(&["validate", "--schema"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&["fd-check", "--fd", "/s : a -> b"]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "independence",
                "--fd",
                "/s : a -> b",
                "--update",
                "/s/a",
                "--max-states",
                "lots"
            ]),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            run(&[
                "independence",
                "--fd",
                "/s : a -> b",
                "--update",
                "/s/a",
                "--format",
                "xml"
            ]),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&["--help"]).unwrap();
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn fd_check_json_stdout_is_pure_json() {
        let good = tmp(
            "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>1</v></i></s>",
            "xml",
        );
        let bad = tmp(
            "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>2</v></i></s>",
            "xml",
        );
        let out = run(&[
            "fd-check",
            "--fd",
            "/s : i/k -> i/v",
            "--format",
            "json",
            "--stats",
            good.0.to_str().unwrap(),
        ])
        .unwrap();
        Json::parse(&out).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n{out}"));
        assert!(out.contains("\"outcome\": \"satisfied\""), "{out}");
        assert!(out.contains("\"all_satisfied\": true"), "{out}");
        assert!(out.contains("\"memo_hits\""), "{out}");
        // A violation still yields exactly one JSON document on stdout.
        let err = run(&[
            "fd-check",
            "--fd",
            "/s : i/k -> i/v",
            "--format",
            "json",
            bad.0.to_str().unwrap(),
        ]);
        match err {
            Err(CliError::Violation(out)) => {
                Json::parse(&out).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n{out}"));
                assert!(out.contains("\"outcome\": \"violated\""), "{out}");
                assert!(out.contains("\"violation\": \""), "{out}");
            }
            other => panic!("expected violation, got {other:?}"),
        }
    }

    #[test]
    fn fd_check_json_exhaustion_is_pure_json() {
        let good = tmp(
            "<s><i><k>a</k><v>1</v></i><i><k>a</k><v>1</v></i></s>",
            "xml",
        );
        let err = run(&[
            "fd-check",
            "--fd",
            "/s : i/k -> i/v",
            "--max-memo",
            "0",
            "--format",
            "json",
            good.0.to_str().unwrap(),
        ]);
        match err {
            Err(CliError::Exhausted(out)) => {
                Json::parse(&out).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n{out}"));
                assert!(out.contains("\"outcome\": \"unknown\""), "{out}");
                assert!(out.contains("\"exhausted\": true"), "{out}");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn matrix_json_stdout_is_pure_json() {
        let fds = tmp("price = /catalog : item/sku -> item/price\n", "lst");
        let ups = tmp(
            "restock = /catalog/item/stock\nreprice = /catalog/item/price\n",
            "lst",
        );
        let out = run(&[
            "matrix",
            "--fds",
            fds.0.to_str().unwrap(),
            "--updates",
            ups.0.to_str().unwrap(),
            "--format",
            "json",
            "--stats",
        ])
        .unwrap();
        Json::parse(&out).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n{out}"));
        assert!(out.contains("\"verdict\": \"independent\""), "{out}");
        assert!(out.contains("\"verdict\": \"recheck\""), "{out}");
        assert!(out.contains("\"independent_pairs\": 1"), "{out}");
        assert!(out.contains("\"recheck_pairs\": 1"), "{out}");
    }

    #[test]
    fn independence_trace_writes_loadable_chrome_json() {
        let trace = tmp("", "json");
        let out = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--trace",
            trace.0.to_str().unwrap(),
        ])
        .unwrap();
        assert!(out.contains("INDEPENDENT"), "{out}");
        let written = std::fs::read_to_string(&trace.0).expect("trace file written");
        Json::parse(&written).unwrap_or_else(|e| panic!("trace is not valid JSON: {e}\n{written}"));
        assert!(written.contains("\"traceEvents\""), "{written}");
        assert!(written.contains("\"ph\":\"B\""), "{written}");
        assert!(written.contains("\"ph\":\"E\""), "{written}");
        assert!(written.contains("ic_search"), "{written}");
    }

    #[test]
    fn independence_trace_written_even_when_exhausted() {
        let trace = tmp("", "json");
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/s/i/v",
            "--max-states",
            "1",
            "--trace",
            trace.0.to_str().unwrap(),
            "--trace-format",
            "jsonl",
        ]);
        assert!(matches!(err, Err(CliError::Exhausted(_))), "{err:?}");
        let written = std::fs::read_to_string(&trace.0).expect("trace file written");
        // The exhausted search still closes its span: one B and one E.
        let ic_search = |ph: &str| {
            written
                .lines()
                .filter(|l| l.contains("\"name\":\"ic_search") && l.contains(ph))
                .count()
        };
        assert_eq!(ic_search("\"ph\":\"B\""), 1, "{written}");
        assert_eq!(ic_search("\"ph\":\"E\""), 1, "{written}");
    }

    #[test]
    fn stats_verbose_prints_phase_table() {
        let out = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--stats-verbose",
        ])
        .unwrap();
        assert!(out.contains("phase"), "{out}");
        assert!(out.contains("ic_search"), "{out}");
        assert!(out.contains("stats: states_interned="), "{out}");
    }

    #[test]
    fn stats_verbose_json_embeds_phases() {
        let out = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--format",
            "json",
            "--stats-verbose",
        ])
        .unwrap();
        let doc = Json::parse(&out).unwrap_or_else(|e| panic!("stdout is not JSON: {e}\n{out}"));
        assert!(doc.get("metrics").is_some(), "{out}");
        let phases = doc.get("phases").expect("phases member");
        assert!(phases
            .get("spans")
            .and_then(|s| s.get("ic_search"))
            .is_some());
        assert!(phases.get("events").is_none(), "{out}");
    }

    #[test]
    fn trace_format_without_trace_is_usage_error() {
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--trace-format",
            "jsonl",
        ]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
        let err = run(&[
            "independence",
            "--fd",
            "/s : i/k -> i/v",
            "--update",
            "/archive/entry",
            "--trace",
            "/tmp/t.json",
            "--trace-format",
            "perfetto",
        ]);
        assert!(matches!(err, Err(CliError::Usage(_))), "{err:?}");
    }
}
