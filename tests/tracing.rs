//! Integration tests for the structured tracing layer.
//!
//! Traces carry time and [`RunMetrics`] carries counts. Four properties
//! hold the subsystem together:
//!
//! 1. a [`ChromeTraceSink`] capture of a real analysis is valid JSON made
//!    only of span begin/end records, properly nested per thread (a trace
//!    with dangling `B` records renders as garbage in `chrome://tracing`);
//! 2. a capture holds one `B`/`E` pair per phase, so its size does not
//!    grow with the number of states a search interns;
//! 3. a [`SummarySink`] counts exactly the phases the run went through:
//!    one `ic_search` per engine run, one `matrix_cell` per computed cell,
//!    one `fd_check` per full FD check;
//! 4. tracing is observation only: the traced run's verdict and counters
//!    match an untraced run (the per-case proptest lives in
//!    `ic_lazy_parity.rs`; here the paper's running example is checked
//!    end to end, matrix and FD batch included).

use std::sync::Arc;

use regtree_core::api::Json;
use regtree_core::{
    update_class_from_edges, Analyzer, ChromeTraceSink, RunMetrics, SpanKind, SummarySink,
    TraceHandle, Update, UpdateOp,
};
use regtree_xml::VersionedDocument;

/// Per-tid stack simulation over the JSONL rendering: every record is a
/// `B` or an `E`, every `E` must close the innermost open `B` on its
/// thread, and nothing may stay open.
fn assert_balanced(jsonl: &str) {
    use std::collections::HashMap;
    let mut stacks: HashMap<u64, u64> = HashMap::new();
    for line in jsonl.lines() {
        let tid = field_u64(line, "\"tid\":");
        if line.contains("\"ph\":\"B\"") {
            *stacks.entry(tid).or_insert(0) += 1;
        } else if line.contains("\"ph\":\"E\"") {
            let depth = stacks
                .get_mut(&tid)
                .unwrap_or_else(|| panic!("E with no open span on tid {tid}: {line}"));
            assert!(*depth > 0, "E with no open span on tid {tid}: {line}");
            *depth -= 1;
        } else {
            panic!("not a span record: {line}");
        }
    }
    for (tid, depth) in stacks {
        assert_eq!(depth, 0, "tid {tid} ended with {depth} spans still open");
    }
}

fn field_u64(line: &str, key: &str) -> u64 {
    let rest = &line[line.find(key).expect("key present") + key.len()..];
    rest.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("numeric field")
}

/// What [`drive_example`] ran, read off its results.
struct Ran {
    /// fd5 vs U under the schema: the paper's yes-case.
    independent: bool,
    /// Merged counters of every run.
    totals: RunMetrics,
    /// Engine runs: the single check plus every computed matrix cell.
    ic_searches: u64,
    /// Matrix cells that ran the engine.
    matrix_cells: u64,
    /// Full FD checks: the batch, the checker's seed and its global
    /// rechecks.
    fd_checks: u64,
}

/// Runs the paper's running example (FD1/FD3/FD5 of the exam document
/// against update class U, schema included) through an analyzer wired to
/// `tracer`, exercising the batch analysis entry points plus the
/// incremental pipeline (ingest, one delta recheck).
fn drive_example(analyzer: &Analyzer) -> Ran {
    let alphabet = regtree_gen::exam_alphabet();
    let doc = regtree_gen::figure1_document(&alphabet);
    let fd1 = regtree_gen::fd1(&alphabet);
    let fd3 = regtree_gen::fd3(&alphabet);
    let fd5 = regtree_gen::fd5(&alphabet);
    let class = regtree_gen::update_class_u(&alphabet);

    let mut totals = RunMetrics::default();
    let analysis = analyzer.independence(&fd5, &class);
    let independent = analysis.verdict.is_independent();
    totals.merge(&analysis.metrics);

    let matrix = analyzer.matrix(&[("fd3", &fd3), ("fd5", &fd5)], &[("U", &class)]);
    for cell in &matrix.cells {
        totals.merge(&cell.metrics);
    }
    let matrix_cells = matrix.computed_count() as u64;

    let batch = analyzer.check_fds(std::slice::from_ref(&fd1), &doc);
    totals.merge(&batch.metrics);

    // Incremental pipeline: ingest, then one level edit rechecked through
    // the retained checker (fires delta_apply/scope_classify).
    let parsed = regtree_xml::parse_document(&alphabet, &regtree_xml::to_xml(&doc))
        .expect("figure 1 round-trips");
    let mut vdoc = VersionedDocument::new(parsed);
    let mut checker = analyzer.incremental_checker(vec![fd1], &vdoc);
    totals.merge(checker.initial_metrics());
    let level =
        update_class_from_edges(&alphabet, &["session/candidate/level"]).expect("level edit class");
    let report = checker
        .apply_and_recheck(
            &mut vdoc,
            &Update::new(level, UpdateOp::SetText("C".into())),
        )
        .expect("level edit applies");
    totals.merge(&report.metrics);

    Ran {
        independent,
        totals,
        ic_searches: 1 + matrix_cells,
        matrix_cells,
        fd_checks: batch.outcomes.len() as u64 + 1 + report.metrics.rechecks_full,
    }
}

fn traced_analyzer(tracer: Arc<dyn regtree_core::Tracer>) -> Analyzer {
    let alphabet = regtree_gen::exam_alphabet();
    Analyzer::builder()
        .schema(regtree_gen::exam_schema(&alphabet))
        .tracer(tracer)
        .build()
}

fn plain_analyzer() -> Analyzer {
    let alphabet = regtree_gen::exam_alphabet();
    Analyzer::builder()
        .schema(regtree_gen::exam_schema(&alphabet))
        .build()
}

#[test]
fn chrome_trace_is_valid_json_with_balanced_spans() {
    let sink = Arc::new(ChromeTraceSink::new());
    let analyzer = traced_analyzer(sink.clone());
    assert!(
        drive_example(&analyzer).independent,
        "fd5 vs U under the schema is the paper's yes-case"
    );

    let chrome = sink.to_chrome_json();
    Json::parse(&chrome).unwrap_or_else(|e| panic!("chrome trace is not JSON: {e}"));
    assert!(chrome.contains("\"traceEvents\""));
    assert!(chrome.contains("\"displayTimeUnit\":\"ms\""));

    // Same capture, line-oriented: simulate the per-thread span stacks.
    let jsonl = sink.to_jsonl();
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        Json::parse(line).unwrap_or_else(|e| panic!("JSONL line is not JSON: {e}\n{line}"));
    }
    assert_balanced(&jsonl);

    // All seven span kinds fire across independence + matrix + fd batch
    // + the incremental pipeline.
    for kind in SpanKind::ALL {
        assert!(
            jsonl.contains(kind.name()),
            "no {} span in the capture",
            kind.name()
        );
    }
}

#[test]
fn chrome_sink_escapes_labels() {
    let label = "a\"b\\c\nd\t\u{1}é";
    let sink = Arc::new(ChromeTraceSink::new());
    drop(TraceHandle::new(sink.clone()).span(SpanKind::MatrixCell, label));
    let chrome = Json::parse(&sink.to_chrome_json())
        .unwrap_or_else(|e| panic!("chrome trace is not JSON: {e}"));
    let begin = &chrome
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")[0];
    // The label survives the hand-rendered escaping byte for byte.
    assert_eq!(
        begin.get("name").and_then(Json::as_str),
        Some(format!("{}: {label}", SpanKind::MatrixCell.name()).as_str())
    );
}

#[test]
fn trace_size_does_not_grow_with_the_search() {
    let alphabet = regtree_gen::exam_alphabet();
    let class = regtree_gen::update_class_u(&alphabet);
    let mut states = Vec::new();
    let mut captures = Vec::new();
    for fd in [
        regtree_gen::fd1(&alphabet),
        regtree_gen::fd3(&alphabet),
        regtree_gen::fd5(&alphabet),
    ] {
        let sink = Arc::new(ChromeTraceSink::new());
        let analysis = traced_analyzer(sink.clone()).independence(&fd, &class);
        states.push(analysis.metrics.states_interned);
        captures.push(sink);
    }
    assert!(
        states[0] != states[1] && states[1] != states[2] && states[0] != states[2],
        "the three searches should differ in size: {states:?}"
    );
    let records: Vec<usize> = captures.iter().map(|sink| sink.len()).collect();
    assert!(
        records.iter().all(|&n| n == records[0]),
        "records per capture {records:?} for states {states:?}"
    );
    for sink in &captures {
        assert_balanced(&sink.to_jsonl());
    }
}

#[test]
fn summary_sink_totals_match_run_metrics() {
    let sink = Arc::new(SummarySink::new());
    let analyzer = traced_analyzer(sink.clone());
    let ran = drive_example(&analyzer);
    let summary = sink.summary();

    // The sink counts phases, one per unit of work the results report.
    assert_eq!(summary.span(SpanKind::IcSearch).count, ran.ic_searches);
    assert_eq!(summary.span(SpanKind::MatrixCell).count, ran.matrix_cells);
    assert_eq!(summary.span(SpanKind::FdCheck).count, ran.fd_checks);
    assert_eq!(
        summary.span(SpanKind::DeltaApply).count,
        ran.totals.deltas_applied
    );
    // The sink counts a span when it ends: every kind that ran closed.
    for kind in [SpanKind::Compile, SpanKind::IcSearch, SpanKind::MatrixCell] {
        assert!(summary.span(kind).count > 0, "{} never ran", kind.name());
    }
}

#[test]
fn tracing_is_observation_only() {
    let sink = Arc::new(ChromeTraceSink::new());
    let traced = drive_example(&traced_analyzer(sink));
    let plain = drive_example(&plain_analyzer());
    assert_eq!(traced.independent, plain.independent);
    let (traced_totals, plain_totals) = (traced.totals, plain.totals);
    assert_eq!(traced_totals.states_interned, plain_totals.states_interned);
    assert_eq!(traced_totals.frontier_pushes, plain_totals.frontier_pushes);
    assert_eq!(traced_totals.memo_entries, plain_totals.memo_entries);
    assert_eq!(traced_totals.memo_hits, plain_totals.memo_hits);
    assert_eq!(
        traced_totals.guard_intersections,
        plain_totals.guard_intersections
    );
}
