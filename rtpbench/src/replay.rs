//! The traced run: the workload's seeded ops replayed in-process against a
//! `Service`, one span per layer boundary, followed on the same inputs by
//! the library calls the handler makes.
//!
//! Each request goes `read_frame` → `Json::parse` → `parse_envelope` →
//! `admit` → `dispatch` → `to_compact` → `write_frame`, the path a frame
//! takes through `rtpserved` minus the socket and the worker thread; what
//! the socket and the thread cost is the wire time, the untraced wire
//! latency minus the traced in-process op. Only public functions the
//! roadmap keeps are called: update classes are built from label paths,
//! never through the CoreXPath front end, so the daemon's update-class
//! parsing stays inside `serve.service.other_us`.

use std::sync::Arc;

use regtree_alphabet::Alphabet;
use regtree_core::api::{
    parse_update_json, scope_name, DocumentChecks, FdCheckOutcome, FdCheckResponse,
    IndependenceResponse, Json, MatrixResponse, UpdateCheckEntry, UpdateResponse,
};
use regtree_core::{
    parse_fd, Analyzer, CancelToken, CellProvenance, Fd, FdOutcome, FdSet, IncrementalChecker,
    RunLimits, RunOverrides, UpdateClass, Verdict,
};
use regtree_hedge::Schema;
use regtree_serve::rpc::{parse_envelope, read_frame, response_err, response_ok, write_frame};
use regtree_serve::{ServerConfig, Service};
use regtree_xml::{parse_document, to_xml_with, Document, SerializeOptions, VersionedDocument};

use crate::gen::{E12_UPDATES, EXAM_RTS};
use crate::metrics::PER_LAYER;
use crate::stats::median;
use crate::trace::{OpTotals, Tracer};
use crate::wire::{run_op, Expect, Session, Transport};
use crate::workload::{
    class_of, parse_fds, update_json, update_name, Input, Kind, Plan, COLD_FDS, UPDATE_FDS,
    WARM_FDS, WARM_UPDATES, WARM_VERDICTS,
};

/// A `Service` reached through the same calls the connection loop makes.
pub struct InProcess {
    service: Arc<Service>,
    tr: Tracer,
}

impl InProcess {
    /// A fresh default-configured service, traced or not.
    pub fn new(traced: bool) -> InProcess {
        InProcess {
            service: Arc::new(Service::new(ServerConfig::default())),
            tr: Tracer::new(traced),
        }
    }
}

impl Transport for InProcess {
    fn exchange(&mut self, frame: &[u8]) -> Result<Vec<u8>, String> {
        self.tr.begin("serve.request");
        self.tr.count("serve.rpc.request_bytes", frame.len() as f64);
        let out = pipeline(&self.service, &mut self.tr, frame);
        self.tr.end();
        out
    }

    fn op_boundary(&mut self, start: bool) {
        if start {
            self.tr.begin("bench.op");
        } else {
            self.tr.end();
        }
    }
}

fn pipeline(service: &Arc<Service>, tr: &mut Tracer, frame: &[u8]) -> Result<Vec<u8>, String> {
    let max = service.config().max_payload;
    let body = tr
        .span("serve.rpc.read_frame", || read_frame(&mut &frame[..], max))
        .map_err(|e| e.to_string())?;
    let value = tr.span("core.api.json_parse", || {
        std::str::from_utf8(&body)
            .map_err(|e| e.to_string())
            .and_then(Json::parse)
    })?;
    let inc = tr
        .span("serve.rpc.parse_envelope", || parse_envelope(value))
        .map_err(|(_, e)| e.message)?;
    let id = inc.id.ok_or("the replay sends no notifications")?;
    let guard = tr
        .span("serve.service.admit", || service.admit())
        .ok_or("in-flight cap reached")?;
    let cancel = CancelToken::new();
    let result = tr.span("serve.service.dispatch", || {
        service.dispatch(&inc.method, &inc.params, &cancel)
    });
    tr.span("serve.service.admit", || drop(guard));
    let text = tr.span("core.api.json_encode", || {
        match result {
            Ok(r) => response_ok(&id, r),
            Err(e) => response_err(&id, &e),
        }
        .to_compact()
    });
    let mut out = Vec::new();
    tr.span("serve.rpc.write_frame", || {
        write_frame(&mut out, text.as_bytes())
    })
    .map_err(|e| e.to_string())?;
    tr.count("serve.rpc.response_bytes", out.len() as f64);
    Ok(text.into_bytes())
}

/// Library calls the handlers make, timed one by one on each op's inputs.
struct Model {
    a: Alphabet,
    analyzer: Analyzer,
    classes: Vec<UpdateClass>,
    /// `update-stream`: per client, a shadow document and its checker.
    shadows: Vec<Option<(VersionedDocument, IncrementalChecker)>>,
    /// `update-stream`: per client, `(op, outcomes)` of the shadow.
    outcomes: Vec<Vec<(usize, Vec<bool>)>>,
}

fn outcome_checks(names: &[&str], outcomes: &[FdOutcome], doc: &Document) -> Vec<FdCheckOutcome> {
    names
        .iter()
        .zip(outcomes)
        .map(|(name, o)| {
            let violation = match o {
                FdOutcome::Violated(v) => Some(v.describe(doc)),
                _ => None,
            };
            FdCheckOutcome::from_outcome(name, o, violation)
        })
        .collect()
}

impl Model {
    fn new(plan: &Plan) -> Model {
        let a = Alphabet::new();
        let mut builder = Analyzer::builder();
        if matches!(plan.kind, Kind::WarmCheck | Kind::ColdValidate) {
            builder = builder.schema(Schema::parse(&a, EXAM_RTS).expect("exam schema parses"));
        }
        let classes = match plan.kind {
            Kind::WarmCheck => WARM_UPDATES.iter().map(|p| class_of(&a, p)).collect(),
            Kind::FdMatrix => E12_UPDATES.iter().map(|p| class_of(&a, p)).collect(),
            _ => Vec::new(),
        };
        Model {
            analyzer: builder.build(),
            classes,
            shadows: plan.clients.iter().map(|_| None).collect(),
            outcomes: plan.clients.iter().map(|_| Vec::new()).collect(),
            a,
        }
    }

    fn parse_fd(&self, tr: &mut Tracer, src: &str) -> Result<Fd, String> {
        tr.span("core.textfd.parse_fd", || parse_fd(&self.a, src))
            .map_err(|e| e.to_string())
    }

    /// `update-stream`'s document load: parse, then seed the checker.
    fn load(&mut self, tr: &mut Tracer, plan: &Plan, client: usize) -> Result<(), String> {
        if plan.kind != Kind::UpdateStream {
            return Ok(());
        }
        tr.begin("bench.model");
        let doc = tr.span("xml.parse.parse_document", || {
            parse_document(&self.a, &plan.docs[client])
        });
        let out = doc.map_err(|e| e.to_string()).map(|doc| {
            tr.count("xml.parse.nodes", doc.len() as f64);
            let vdoc = VersionedDocument::new(doc);
            let fds = parse_fds(&self.a, &UPDATE_FDS);
            let checker = tr.span("core.incremental.seed", || {
                IncrementalChecker::new(fds, &vdoc)
            });
            self.shadows[client] = Some((vdoc, checker));
        });
        tr.end();
        out
    }

    fn op(&mut self, tr: &mut Tracer, plan: &Plan, client: usize, k: usize) -> Result<(), String> {
        tr.begin("bench.model");
        let out = match &plan.op(client, k).input {
            Input::Pair { fd, update } => self.pair(tr, *fd, *update),
            Input::Edit { path, value } => self.edit(tr, client, k, path, value),
            Input::Cold { doc } => self.cold(tr, &plan.docs[*doc]),
            Input::Matrix => self.matrix(tr, plan),
        };
        tr.end();
        out
    }

    fn pair(&mut self, tr: &mut Tracer, fd: usize, update: usize) -> Result<(), String> {
        let parsed = self.parse_fd(tr, WARM_FDS[fd].1)?;
        let before = self.analyzer.cached_patterns();
        let class = &self.classes[update];
        let analysis = tr.span("core.analyzer.independence", || {
            self.analyzer
                .independence_with(&parsed, class, &RunOverrides::new())
        });
        let misses = self.analyzer.cached_patterns() - before;
        tr.count("core.analyzer.pattern_cache_misses", misses as f64);
        let m = &analysis.metrics;
        tr.count("core.lazy_ic.states_interned", m.states_interned as f64);
        tr.count(
            "core.lazy_ic.guard_intersections",
            m.guard_intersections as f64,
        );
        tr.count("core.lazy_ic.frontier_pushes", m.frontier_pushes as f64);
        tr.span("core.api.response_build", || {
            let witness = match &analysis.verdict {
                Verdict::Unknown {
                    witness: Some(doc), ..
                } => Some(to_xml_with(doc, SerializeOptions { indent: true })),
                _ => None,
            };
            let mut resp = IndependenceResponse::from_analysis(&analysis, witness);
            resp.metrics = Some(analysis.metrics);
            resp.to_json()
        });
        if analysis.verdict.is_independent() != WARM_VERDICTS[fd][update] {
            return Err(format!(
                "{} vs {}: {:?}",
                WARM_FDS[fd].0, WARM_UPDATES[update], analysis.verdict
            ));
        }
        Ok(())
    }

    fn edit(
        &mut self,
        tr: &mut Tracer,
        client: usize,
        k: usize,
        path: &str,
        value: &str,
    ) -> Result<(), String> {
        for (_, src) in UPDATE_FDS {
            self.parse_fd(tr, src)?;
        }
        let json = Json::parse(&update_json(path, value))?;
        let update = tr.span("core.api.parse_update_json", || {
            parse_update_json(&self.a, &json)
        })?;
        let (vdoc, checker) = self.shadows[client]
            .as_mut()
            .ok_or("edit before the document load")?;
        let report = tr
            .span("core.incremental.apply_and_recheck", || {
                checker.apply_and_recheck(vdoc, &update)
            })
            .map_err(|e| e.to_string())?;
        let m = &report.metrics;
        tr.count(
            "core.incremental.rechecks_localized",
            m.rechecks_localized as f64,
        );
        tr.count("core.incremental.rechecks_full", m.rechecks_full as f64);
        tr.count("core.incremental.verdicts_reused", m.verdicts_reused as f64);
        tr.span("core.api.response_build", || {
            let names = UPDATE_FDS.map(|(n, _)| n);
            let checks = outcome_checks(&names, &report.outcomes, vdoc.doc());
            UpdateResponse {
                path: "session".into(),
                version: vdoc.version(),
                touched: report.touched.len(),
                checks: checks
                    .into_iter()
                    .zip(&report.scopes)
                    .map(|(check, scope)| UpdateCheckEntry {
                        fd: check.fd.clone(),
                        scope: scope_name(*scope).to_string(),
                        check,
                    })
                    .collect(),
                all_satisfied: report.all_satisfied(),
                metrics: Some(report.metrics),
                phases: None,
            }
            .to_json()
        });
        let outcomes = report
            .outcomes
            .iter()
            .map(FdOutcome::is_satisfied)
            .collect();
        self.outcomes[client].push((k, outcomes));
        Ok(())
    }

    fn cold(&mut self, tr: &mut Tracer, xml: &str) -> Result<(), String> {
        tr.span("hedge.schema.parse", || Schema::parse(&self.a, EXAM_RTS))
            .map_err(|e| e.to_string())?;
        let doc = tr
            .span("xml.parse.parse_document", || parse_document(&self.a, xml))
            .map_err(|e| e.to_string())?;
        tr.count("xml.parse.nodes", doc.len() as f64);
        tr.span("core.analyzer.validate", || self.analyzer.validate(&doc))
            .map_err(|e| e.to_string())?;
        let fds = COLD_FDS
            .iter()
            .map(|(_, src)| self.parse_fd(tr, src))
            .collect::<Result<Vec<_>, _>>()?;
        let report = tr.span("core.analyzer.check_fds", || {
            self.analyzer
                .check_fds_with(&fds, &doc, &RunOverrides::new())
        });
        tr.span("core.api.response_build", || {
            let names = COLD_FDS.map(|(n, _)| n);
            let checks = outcome_checks(&names, &report.outcomes, &doc);
            FdCheckResponse::from_documents(vec![DocumentChecks {
                path: "exam".into(),
                checks,
            }])
            .to_json()
        });
        if !report.all_satisfied() {
            return Err("a cold-validate document violates an FD in-process".into());
        }
        Ok(())
    }

    fn matrix(&mut self, tr: &mut Tracer, plan: &Plan) -> Result<(), String> {
        let fds = plan
            .fds
            .iter()
            .map(|(_, src)| self.parse_fd(tr, src))
            .collect::<Result<Vec<_>, _>>()?;
        let names: Vec<String> = E12_UPDATES.iter().map(|p| update_name(p)).collect();
        let fd_refs: Vec<(&str, &Fd)> =
            plan.fds.iter().map(|(n, _)| n.as_str()).zip(&fds).collect();
        let class_refs: Vec<(&str, &UpdateClass)> = names
            .iter()
            .map(String::as_str)
            .zip(&self.classes)
            .collect();
        let mut set = FdSet::new();
        for (name, fd) in &fd_refs {
            set.push(*name, (*fd).clone());
        }
        tr.span("core.fdset.minimize", || {
            set.minimize(&RunLimits::UNLIMITED)
        });
        let before = self.analyzer.cached_patterns();
        let run = RunOverrides::new();
        let pruned = tr.span("core.matrix.pruned", || {
            self.analyzer
                .matrix_pruned_with(&fd_refs, &class_refs, &run)
        });
        tr.count("core.matrix.cells_computed", pruned.computed_count() as f64);
        tr.count(
            "core.matrix.rows_implied",
            pruned.implied_row_count() as f64,
        );
        tr.count("core.matrix.verdicts_reused", pruned.reused_count() as f64);
        tr.span("core.api.response_build", || {
            MatrixResponse::from_matrix(&pruned).to_json()
        });
        let unpruned = tr.span("core.matrix.unpruned", || {
            self.analyzer.matrix_with(&fd_refs, &class_refs, &run)
        });
        let misses = self.analyzer.cached_patterns() - before;
        tr.count("core.analyzer.pattern_cache_misses", misses as f64);
        let disagree = pruned.cells.iter().zip(&unpruned.cells).any(|(p, u)| {
            !matches!(p.provenance, CellProvenance::ImpliedRow { .. })
                && p.verdict.is_independent() != u.verdict.is_independent()
        });
        if disagree || pruned.exhausted_count() > 0 {
            return Err("pruned and unpruned matrices disagree in-process".into());
        }
        Ok(())
    }
}

/// What the traced run reports.
pub struct Replay {
    /// Every per-layer metric, in table order.
    pub metrics: Vec<f64>,
    /// Ops replayed in each pass.
    pub ops: usize,
    pub errors: Vec<String>,
    /// The spans and counts, as JSON lines.
    pub trace: String,
}

/// Replays `plan`'s set-up and warm-up, then its first ops twice: traced,
/// with the library calls after each, and untraced. `wire` holds the wire
/// clients' records, which the in-process answers must match.
pub fn replay(plan: &Plan, latency_p50_ms: f64, wire: &[Session]) -> Replay {
    let (clients, n) = plan.kind.replay();
    let mut t = InProcess::new(true);
    let mut model = Model::new(plan);
    let mut sessions: Vec<Session> = (0..clients).map(|_| Session::default()).collect();
    let mut errors = Vec::new();
    let mut note = |r: Result<(), String>| {
        if let Err(e) = r {
            errors.push(e);
        }
    };

    for (c, st) in sessions.iter_mut().enumerate() {
        for req in &plan.clients[c].setup {
            let is_load = matches!(req.expect, Expect::Loaded { .. });
            t.tr.next_op(if is_load { "load" } else { "setup" });
            note(
                run_op(&mut t, st, std::slice::from_ref(req))
                    .map(drop)
                    .map_err(|e| e.to_string()),
            );
            if is_load {
                note(model.load(&mut t.tr, plan, c));
            }
        }
    }
    let warmup = |c: usize| plan.clients[c].warmup;
    for (label, ops) in [("warmup", None), ("op", Some(n))] {
        for (c, st) in sessions.iter_mut().enumerate() {
            let range = match ops {
                None => 0..warmup(c),
                Some(n) => warmup(c)..warmup(c) + n,
            };
            for k in range {
                t.tr.next_op(label);
                st.op = k;
                note(
                    run_op(&mut t, st, &plan.op(c, k).requests)
                        .map(drop)
                        .map_err(|e| e.to_string()),
                );
                note(model.op(&mut t.tr, plan, c, k));
            }
        }
    }

    // The in-process answers and the library calls agree with the wire.
    for (c, st) in sessions.iter().enumerate() {
        let w = &wire[c];
        for (k, got) in st.outcomes.iter().chain(&model.outcomes[c]) {
            if let Some((_, want)) = w.outcomes.iter().find(|(j, _)| j == k) {
                if got != want {
                    errors.push(format!(
                        "client {c} op {k}: in-process {got:?}, wire {want:?}"
                    ));
                }
            }
        }
        if st.first_matrix.is_some()
            && w.first_matrix.is_some()
            && st.first_matrix != w.first_matrix
        {
            errors.push("in-process matrix differs from the wire's".into());
        }
    }

    // The same ops again without spans, for the tracing overhead. The
    // documents of `update-stream` have moved on; the ops cost the same.
    t.tr.set_enabled(false);
    let mut untraced = Vec::new();
    for (c, st) in sessions.iter_mut().enumerate() {
        for k in warmup(c)..warmup(c) + n {
            st.op = k;
            match run_op(&mut t, st, &plan.op(c, k).requests) {
                Ok(d) => untraced.push(d.as_nanos() as f64),
                Err(e) => errors.push(e.to_string()),
            }
        }
    }
    t.tr.set_enabled(true);

    Replay {
        metrics: layer_metrics(plan.kind, &t.tr, latency_p50_ms, &untraced),
        ops: n * clients,
        errors,
        trace: t.tr.to_jsonl(),
    }
}

/// Ingest metrics of `update-stream` describe its set-up (the two loads).
fn phase(kind: Kind, metric: &str) -> &'static str {
    let ingest = [
        "core.api.json_parse_us",
        "xml.parse.parse_document_us",
        "xml.parse.nodes",
        "core.incremental.seed_ms",
    ];
    if kind == Kind::UpdateStream && ingest.contains(&metric) {
        "load"
    } else {
        "op"
    }
}

fn med_of(ops: &[OpTotals], f: impl Fn(&OpTotals) -> f64) -> f64 {
    median(&ops.iter().map(f).collect::<Vec<_>>())
}

fn get(map: &std::collections::BTreeMap<&'static str, f64>, key: &str) -> f64 {
    map.get(key).copied().unwrap_or(0.0)
}

fn layer_metrics(kind: Kind, tr: &Tracer, latency_p50_ms: f64, untraced_ns: &[f64]) -> Vec<f64> {
    let ops = tr.per_op("op");
    let loads = tr.per_op("load");
    let op_ns = med_of(&ops, |t| get(&t.total_ns, "bench.op"));
    PER_LAYER
        .iter()
        .map(|m| {
            let ops = if phase(kind, m.name) == "load" {
                &loads
            } else {
                &ops
            };
            match m.name {
                "serve.server.wire_ms" => latency_p50_ms - op_ns / 1e6,
                "bench.trace_overhead_pct" => (op_ns / median(untraced_ns) - 1.0) * 100.0,
                "serve.service.other_us" => {
                    med_of(ops, |t| {
                        let modelled: f64 = t
                            .total_ns
                            .iter()
                            .filter(|(name, _)| is_modelled(name))
                            .map(|(_, ns)| ns)
                            .sum();
                        get(&t.self_ns, "serve.service.dispatch") - modelled
                    }) / 1e3
                }
                name => match (name.strip_suffix("_us"), name.strip_suffix("_ms")) {
                    (Some(span), _) => med_of(ops, |t| get(&t.self_ns, span)) / 1e3,
                    (_, Some(span)) => med_of(ops, |t| get(&t.self_ns, span)) / 1e6,
                    _ => med_of(ops, |t| get(&t.counts, name)),
                },
            }
        })
        .collect()
}

/// Library calls of the model that stand for work inside `dispatch`. Not
/// the unpruned matrix, a reference off the request path, nor minimize,
/// which runs again inside the pruned matrix.
fn is_modelled(span: &str) -> bool {
    [
        "core.textfd.parse_fd",
        "core.api.parse_update_json",
        "core.analyzer.independence",
        "core.matrix.pruned",
        "core.api.response_build",
        "core.incremental.apply_and_recheck",
        "xml.parse.parse_document",
        "hedge.schema.parse",
        "core.analyzer.validate",
        "core.analyzer.check_fds",
    ]
    .contains(&span)
}
