//! The transport-agnostic method dispatcher and its session store.
//!
//! A [`Service`] is shared by every connection of a server. Each open
//! session pins an [`Analyzer`] — with its parsed schema and
//! pattern-automaton cache — plus the documents loaded into it, so a warm
//! session answers repeat analysis requests without recompiling anything.
//! Per-request [`regtree_core::RunOverrides`] carry the merged budget and
//! the connection's [`CancelToken`] into the engine while those caches stay
//! shared.
//!
//! ## Admission control
//!
//! Three layers, all of which fail *typed* — an admitted run can come back
//! `UNKNOWN`, never wrong:
//!
//! 1. a global in-flight cap ([`ServerConfig::max_inflight`]) answered with
//!    [`rpc::OVERLOADED`] before any work starts;
//! 2. per-session default [`RunLimits`] fixed at `session/open`;
//! 3. per-request limit overrides, merged field-wise over the session
//!    defaults and clamped by the server-wide ceiling
//!    ([`ServerConfig::ceiling`]).
//!
//! Budget exhaustion maps to [`rpc::BUDGET_EXHAUSTED`] and cancellation to
//! [`rpc::CANCELLED`]; both carry the sound partial response in
//! `error.data`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use regtree_alphabet::Alphabet;
use regtree_core::api::{
    parse_update_json, protocol_compatible, scope_name, DocumentChecks, FdCheckOutcome,
    FdCheckResponse, IndependenceResponse, Json, MatrixResponse, MinimizeResponse,
    PatternParseResponse, UpdateCheckEntry, UpdateResponse, PROTOCOL_VERSION,
};
use regtree_core::{
    parse_fd, parse_update_class, Analyzer, ApplyError, Budget, CancelToken, Error as CoreError,
    Fd, FdOutcome, FdSet, IncrementalChecker, Resource, RunLimits, RunOverrides, TraceHandle,
    UpdateClass, Verdict,
};
use regtree_hedge::Schema;
use regtree_pattern::CompiledPattern;
use regtree_xml::{parse_document, to_xml_with, SerializeOptions, VersionedDocument};

use crate::rpc::{self, RpcError};

/// Server-wide tuning knobs shared by every transport.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Largest accepted frame body in bytes (larger frames are drained and
    /// answered with [`rpc::PAYLOAD_TOO_LARGE`]).
    pub max_payload: usize,
    /// Global cap on concurrently executing requests across all
    /// connections; at the cap new requests get [`rpc::OVERLOADED`].
    pub max_inflight: usize,
    /// Server-wide budget ceiling: every effective per-request limit is
    /// clamped to this, whatever the session or request asked for.
    pub ceiling: RunLimits,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_payload: 16 * 1024 * 1024,
            max_inflight: 64,
            ceiling: RunLimits::UNLIMITED,
        }
    }
}

/// One loaded document: the versioned form every method reads through,
/// plus the incremental checker `document/update` keeps warm between
/// requests.
struct DocEntry {
    vdoc: VersionedDocument,
    /// `(fds-json cache key, checker)` — the checker retains per-FD
    /// verdicts and bucket state across updates, so a warm entry rechecks
    /// only what a delta can have invalidated. A request naming a
    /// different FD set (compared on the compact `fds` JSON) rebuilds it
    /// from the current document; `document/load` on the same name drops
    /// it entirely.
    checker: Option<(String, IncrementalChecker)>,
}

/// One client analysis context: an [`Analyzer`] with its caches, the
/// documents loaded so far, and the session's default budget.
pub(crate) struct Session {
    /// Session id (unique per server lifetime).
    pub id: u64,
    alphabet: Alphabet,
    analyzer: Analyzer,
    has_schema: bool,
    limits: RunLimits,
    documents: Mutex<HashMap<String, Arc<Mutex<DocEntry>>>>,
    requests: AtomicU64,
}

/// The shared dispatcher: session store, counters, and config.
pub struct Service {
    config: ServerConfig,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    inflight: AtomicUsize,
    total_requests: AtomicU64,
}

/// RAII in-flight slot; dropping releases it. Owns an `Arc` so the guard
/// can ride into a worker thread.
pub struct InflightGuard {
    service: Arc<Service>,
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        self.service.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn invalid_params(msg: impl Into<String>) -> RpcError {
    RpcError::new(rpc::INVALID_PARAMS, msg)
}

/// An optional boolean flag of `params`: absent is `false`, and any value
/// but a JSON boolean is an error.
fn flag(params: &Json, key: &str) -> Result<bool, RpcError> {
    params.get(key).map_or(Ok(false), |v| {
        v.as_bool()
            .ok_or_else(|| invalid_params(format!("'{key}' must be a boolean")))
    })
}

/// `{deadlineMs?, maxStates?, maxMemo?, maxFrontier?}` → [`RunLimits`].
fn parse_limits(value: &Json) -> Result<RunLimits, RpcError> {
    if value.is_null() {
        return Ok(RunLimits::UNLIMITED);
    }
    if value.as_object().is_none() {
        return Err(invalid_params("'limits' must be an object"));
    }
    let field = |key: &str| -> Result<Option<u64>, RpcError> {
        match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| invalid_params(format!("limits.{key} must be an unsigned integer"))),
        }
    };
    Ok(RunLimits {
        deadline: field("deadlineMs")?.map(Duration::from_millis),
        max_states: field("maxStates")?,
        max_memo: field("maxMemo")?,
        max_frontier: field("maxFrontier")?,
    })
}

fn min_opt<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (x, None) | (None, x) => x,
    }
}

/// Request limits override the session defaults field-wise; the ceiling
/// then clamps every field (a tighter of the two wins).
fn merge_limits(session: &RunLimits, request: &RunLimits, ceiling: &RunLimits) -> RunLimits {
    let pick = |r: Option<u64>, s: Option<u64>, c: Option<u64>| min_opt(r.or(s), c);
    RunLimits {
        deadline: min_opt(request.deadline.or(session.deadline), ceiling.deadline),
        max_states: pick(request.max_states, session.max_states, ceiling.max_states),
        max_memo: pick(request.max_memo, session.max_memo, ceiling.max_memo),
        max_frontier: pick(
            request.max_frontier,
            session.max_frontier,
            ceiling.max_frontier,
        ),
    }
}

/// `params[key]` as `[[name, expr], ...]` → named items, each expression
/// parsed in the session's alphabet by `parse` (`parse_fd` for `fds`,
/// `parse_update_class` for `updates`); `item` names one entry in errors.
fn parse_named<T>(
    alphabet: &Alphabet,
    params: &Json,
    key: &str,
    item: &str,
    parse: fn(&Alphabet, &str) -> Result<T, CoreError>,
) -> Result<Vec<(String, T)>, RpcError> {
    let items = params
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| invalid_params(format!("'{key}' must be an array of [name, expr] pairs")))?;
    if items.is_empty() {
        return Err(invalid_params(format!("'{key}' must not be empty")));
    }
    items
        .iter()
        .map(|entry| {
            let pair = match entry.as_array() {
                Some([name, expr]) => name.as_str().zip(expr.as_str()),
                _ => None,
            };
            let (name, expr) = pair.ok_or_else(|| {
                invalid_params(format!(
                    "each {item} must be a [name, expr] pair of strings"
                ))
            })?;
            let parsed = parse(alphabet, expr)
                .map_err(|e| invalid_params(format!("{item} '{name}': {e}")))?;
            Ok((name.to_string(), parsed))
        })
        .collect()
}

/// An exhausted run's typed error: cancellation beats budget attribution,
/// and the sound partial response rides in `data`.
fn exhausted_error(resource: Resource, partial: Json) -> RpcError {
    if matches!(resource, Resource::Cancelled) {
        RpcError::with_data(rpc::CANCELLED, "request cancelled", partial)
    } else {
        RpcError::with_data(
            rpc::BUDGET_EXHAUSTED,
            format!("budget exhausted: {}", resource.name()),
            partial,
        )
    }
}

impl Service {
    /// A fresh service with no sessions.
    pub fn new(config: ServerConfig) -> Service {
        Service {
            config,
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            inflight: AtomicUsize::new(0),
            total_requests: AtomicU64::new(0),
        }
    }

    /// The server configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Tries to claim an in-flight slot; `None` means the server is at its
    /// cap and the request must be answered with [`rpc::OVERLOADED`].
    pub fn admit(self: &Arc<Self>) -> Option<InflightGuard> {
        let mut cur = self.inflight.load(Ordering::SeqCst);
        loop {
            if cur >= self.config.max_inflight {
                return None;
            }
            match self
                .inflight
                .compare_exchange(cur, cur + 1, Ordering::SeqCst, Ordering::SeqCst)
            {
                Ok(_) => {
                    return Some(InflightGuard {
                        service: Arc::clone(self),
                    })
                }
                Err(now) => cur = now,
            }
        }
    }

    fn session(&self, params: &Json) -> Result<Arc<Session>, RpcError> {
        let id = params
            .get("sessionId")
            .and_then(Json::as_u64)
            .ok_or_else(|| invalid_params("missing 'sessionId'"))?;
        self.sessions
            .lock()
            .get(&id)
            .cloned()
            .ok_or_else(|| RpcError::new(rpc::SESSION_NOT_FOUND, format!("no session {id}")))
    }

    /// Dispatches one request. `cancel` is this request's token; the
    /// connection cancels it on `$/cancelRequest`.
    pub fn dispatch(
        &self,
        method: &str,
        params: &Json,
        cancel: &CancelToken,
    ) -> Result<Json, RpcError> {
        self.total_requests.fetch_add(1, Ordering::Relaxed);
        match method {
            "initialize" => self.initialize(params),
            "session/open" => self.session_open(params),
            "session/close" => self.session_close(params),
            "session/stats" => self.session_stats(params),
            "server/stats" => Ok(self.server_stats()),
            "document/load" => self.document_load(params),
            "document/validate" => self.document_validate(params),
            "document/update" => self.document_update(params, cancel),
            "independence/check" => self.independence_check(params, cancel),
            "independence/matrix" => self.independence_matrix(params, cancel),
            "fd/check" => self.fd_check(params, cancel),
            "fd/minimize" => self.fd_minimize(params, cancel),
            "pattern/parse" => self.pattern_parse(params),
            other => Err(RpcError::new(
                rpc::METHOD_NOT_FOUND,
                format!("unknown method '{other}'"),
            )),
        }
    }

    fn initialize(&self, params: &Json) -> Result<Json, RpcError> {
        let client = params
            .get("protocolVersion")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'protocolVersion'"))?;
        if !protocol_compatible(client, PROTOCOL_VERSION) {
            return Err(RpcError::with_data(
                rpc::PROTOCOL_MISMATCH,
                format!("client protocol {client} is incompatible with server {PROTOCOL_VERSION}"),
                Json::Obj(vec![(
                    "serverProtocolVersion".to_string(),
                    Json::str(PROTOCOL_VERSION),
                )]),
            ));
        }
        Ok(Json::Obj(vec![
            ("protocolVersion".to_string(), Json::str(PROTOCOL_VERSION)),
            ("serverName".to_string(), Json::str("rtpserved")),
            (
                "serverVersion".to_string(),
                Json::str(env!("CARGO_PKG_VERSION")),
            ),
            (
                "capabilities".to_string(),
                Json::Obj(vec![(
                    "methods".to_string(),
                    Json::Arr(
                        [
                            "initialize",
                            "session/open",
                            "session/close",
                            "session/stats",
                            "server/stats",
                            "document/load",
                            "document/validate",
                            "document/update",
                            "independence/check",
                            "independence/matrix",
                            "fd/check",
                            "fd/minimize",
                            "pattern/parse",
                            "shutdown",
                        ]
                        .iter()
                        .map(|m| Json::str(*m))
                        .collect(),
                    ),
                )]),
            ),
        ]))
    }

    fn session_open(&self, params: &Json) -> Result<Json, RpcError> {
        let alphabet = Alphabet::new();
        let limits = merge_limits(
            &parse_limits(params.get("limits").unwrap_or(&Json::Null))?,
            &RunLimits::UNLIMITED,
            &self.config.ceiling,
        );
        let mut builder = Analyzer::builder().limits(limits);
        let mut has_schema = false;
        if let Some(text) = params.get("schema") {
            let text = text
                .as_str()
                .ok_or_else(|| invalid_params("'schema' must be the schema source text"))?;
            let schema = Schema::parse(&alphabet, text)
                .map_err(|e| invalid_params(format!("schema: {e}")))?;
            builder = builder.schema(schema);
            has_schema = true;
        }
        let id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session {
            id,
            alphabet,
            analyzer: builder.build(),
            has_schema,
            limits,
            documents: Mutex::new(HashMap::new()),
            requests: AtomicU64::new(0),
        });
        self.sessions.lock().insert(id, session);
        Ok(Json::Obj(vec![
            ("sessionId".to_string(), Json::u64(id)),
            ("hasSchema".to_string(), Json::Bool(has_schema)),
        ]))
    }

    fn session_close(&self, params: &Json) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        self.sessions.lock().remove(&session.id);
        Ok(Json::Obj(vec![("closed".to_string(), Json::Bool(true))]))
    }

    fn session_stats(&self, params: &Json) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        let limits = &session.limits;
        let documents = session.documents.lock().len();
        let limit_field = |v: Option<u64>| match v {
            Some(n) => Json::u64(n),
            None => Json::Null,
        };
        Ok(Json::Obj(vec![
            ("sessionId".to_string(), Json::u64(session.id)),
            ("hasSchema".to_string(), Json::Bool(session.has_schema)),
            ("documents".to_string(), Json::usize(documents)),
            (
                "requests".to_string(),
                Json::u64(session.requests.load(Ordering::Relaxed)),
            ),
            (
                "limits".to_string(),
                Json::Obj(vec![
                    (
                        "deadlineMs".to_string(),
                        limit_field(limits.deadline.map(|d| d.as_millis() as u64)),
                    ),
                    ("maxStates".to_string(), limit_field(limits.max_states)),
                    ("maxMemo".to_string(), limit_field(limits.max_memo)),
                    ("maxFrontier".to_string(), limit_field(limits.max_frontier)),
                ]),
            ),
        ]))
    }

    fn server_stats(&self) -> Json {
        let sessions = self.sessions.lock().len();
        Json::Obj(vec![
            ("sessions".to_string(), Json::usize(sessions)),
            (
                "inflight".to_string(),
                Json::usize(self.inflight.load(Ordering::SeqCst)),
            ),
            (
                "totalRequests".to_string(),
                Json::u64(self.total_requests.load(Ordering::Relaxed)),
            ),
            (
                "maxInflight".to_string(),
                Json::usize(self.config.max_inflight),
            ),
            (
                "maxPayload".to_string(),
                Json::usize(self.config.max_payload),
            ),
        ])
    }

    fn document_load(&self, params: &Json) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let name = params
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'name'"))?;
        let xml = params
            .get("xml")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'xml'"))?;
        let validate = flag(params, "validate")?;
        let doc = parse_document(&session.alphabet, xml)
            .map_err(|e| invalid_params(format!("document '{name}': {e}")))?;
        let mut valid = Json::Null;
        if validate {
            valid = match session.analyzer.validate(&doc) {
                Ok(()) => Json::Bool(true),
                Err(regtree_core::Error::NoSchema) => {
                    return Err(RpcError::new(
                        rpc::NO_SCHEMA,
                        "session was opened without a schema",
                    ));
                }
                Err(_) => Json::Bool(false),
            };
        }
        let nodes = doc.len();
        session.documents.lock().insert(
            name.to_string(),
            Arc::new(Mutex::new(DocEntry {
                vdoc: VersionedDocument::new(doc),
                checker: None,
            })),
        );
        Ok(Json::Obj(vec![
            ("name".to_string(), Json::str(name)),
            ("nodes".to_string(), Json::usize(nodes)),
            ("valid".to_string(), valid),
        ]))
    }

    fn document_validate(&self, params: &Json) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let name = params
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'name'"))?;
        let entry = session.document(name)?;
        let entry = entry.lock();
        match session.analyzer.validate(entry.vdoc.doc()) {
            Ok(()) => Ok(Json::Obj(vec![
                ("name".to_string(), Json::str(name)),
                ("valid".to_string(), Json::Bool(true)),
                ("reason".to_string(), Json::Null),
            ])),
            Err(regtree_core::Error::NoSchema) => Err(RpcError::new(
                rpc::NO_SCHEMA,
                "session was opened without a schema",
            )),
            Err(e) => Ok(Json::Obj(vec![
                ("name".to_string(), Json::str(name)),
                ("valid".to_string(), Json::Bool(false)),
                ("reason".to_string(), Json::str(e.to_string())),
            ])),
        }
    }

    /// Applies one update to a loaded document and rechecks the named FDs
    /// at the smallest sound scope. The first call on a document (or a
    /// call naming a different FD set) pays a full check to seed the
    /// incremental state; subsequent calls with the same `fds` reuse it
    /// and typically touch only the contexts the delta reached. Each
    /// request's effective merged limits and its cancel token are
    /// (re)applied to the checker before the recheck, so a warm checker
    /// honors per-request governance and `$/cancelRequest` aborts a slow
    /// selection or recheck mid-flight. A selection that runs out edits
    /// nothing: the error's `data` names the document and its unchanged
    /// version.
    fn document_update(&self, params: &Json, cancel: &CancelToken) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let name = params
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'name'"))?;
        let named = parse_named(&session.alphabet, params, "fds", "fd", parse_fd)?;
        let update_json = params
            .get("update")
            .ok_or_else(|| invalid_params("missing 'update'"))?;
        let update = parse_update_json(&session.alphabet, update_json)
            .map_err(|e| invalid_params(format!("update: {e}")))?;
        let request = parse_limits(params.get("limits").unwrap_or(&Json::Null))?;
        let merged = merge_limits(&session.limits, &request, &self.config.ceiling);
        let entry = session.document(name)?;
        let mut entry = entry.lock();
        let key = params.get("fds").unwrap_or(&Json::Null).to_compact();
        if !matches!(&entry.checker, Some((k, _)) if *k == key) {
            let fds: Vec<Fd> = named.iter().map(|(_, f)| f.clone()).collect();
            let checker = IncrementalChecker::with_governance(
                fds,
                &entry.vdoc,
                merged,
                TraceHandle::default(),
                Some(cancel.clone()),
            );
            entry.checker = Some((key, checker));
        }
        let DocEntry { vdoc, checker } = &mut *entry;
        let (_, checker) = checker.as_mut().expect("checker was built above");
        // A warm checker was governed by the request that seeded it; this
        // request's merged limits and cancel token replace that for the
        // round about to run.
        checker.set_limits(merged);
        checker.set_cancel(Some(cancel.clone()));
        let report = match checker.apply_and_recheck(vdoc, &update) {
            Ok(report) => report,
            Err(ApplyError::Exhausted(resource)) => {
                let untouched = Json::Obj(vec![
                    ("name".into(), Json::str(name)),
                    ("version".into(), Json::u64(vdoc.version())),
                ]);
                return Err(exhausted_error(resource, untouched));
            }
            Err(e) => return Err(invalid_params(format!("update: {e}"))),
        };
        let mut worst: Option<Resource> = None;
        let checks = named
            .iter()
            .zip(report.scopes.iter().zip(&report.outcomes))
            .map(|((fd_name, _), (scope, outcome))| {
                if let FdOutcome::Unknown { exhausted, .. } = outcome {
                    worst = Some(*exhausted);
                }
                let violation = match outcome {
                    FdOutcome::Violated(v) => Some(v.describe(vdoc.doc())),
                    _ => None,
                };
                UpdateCheckEntry {
                    fd: fd_name.clone(),
                    scope: scope_name(*scope).to_string(),
                    check: FdCheckOutcome::from_outcome(fd_name, outcome, violation),
                }
            })
            .collect();
        let resp = UpdateResponse {
            path: name.to_string(),
            version: vdoc.version(),
            touched: report.touched.len(),
            checks,
            all_satisfied: report.all_satisfied(),
            metrics: Some(report.metrics),
            phases: None,
        }
        .to_json();
        if cancel.is_cancelled() {
            return Err(exhausted_error(Resource::Cancelled, resp));
        }
        match worst {
            Some(resource) => Err(exhausted_error(resource, resp)),
            None => Ok(resp),
        }
    }

    fn overrides(
        &self,
        session: &Session,
        params: &Json,
        cancel: &CancelToken,
    ) -> Result<RunOverrides, RpcError> {
        let request = parse_limits(params.get("limits").unwrap_or(&Json::Null))?;
        let merged = merge_limits(&session.limits, &request, &self.config.ceiling);
        Ok(RunOverrides::new()
            .limits(merged)
            .cancel_token(cancel.clone()))
    }

    fn independence_check(&self, params: &Json, cancel: &CancelToken) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let fd_expr = params
            .get("fd")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'fd'"))?;
        let update_expr = params
            .get("update")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'update'"))?;
        let fd =
            parse_fd(&session.alphabet, fd_expr).map_err(|e| invalid_params(format!("fd: {e}")))?;
        let class = parse_update_class(&session.alphabet, update_expr)
            .map_err(|e| invalid_params(format!("update: {e}")))?;
        let run = self.overrides(&session, params, cancel)?;
        let analysis = session.analyzer.independence_with(&fd, &class, &run);
        let witness_xml = match &analysis.verdict {
            Verdict::Unknown {
                witness: Some(doc), ..
            } => Some(to_xml_with(doc, SerializeOptions { indent: true })),
            _ => None,
        };
        let mut resp = IndependenceResponse::from_analysis(&analysis, witness_xml);
        resp.metrics = Some(analysis.metrics);
        match analysis.verdict.exhausted() {
            Some(resource) => Err(exhausted_error(resource, resp.to_json())),
            None => Ok(resp.to_json()),
        }
    }

    fn independence_matrix(&self, params: &Json, cancel: &CancelToken) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let fds = parse_named(&session.alphabet, params, "fds", "fd", parse_fd)?;
        let classes = parse_named(
            &session.alphabet,
            params,
            "updates",
            "update",
            parse_update_class,
        )?;
        let prune = flag(params, "prune")?;
        let run = self.overrides(&session, params, cancel)?;
        let fd_refs: Vec<(&str, &Fd)> = fds.iter().map(|(n, f)| (n.as_str(), f)).collect();
        let class_refs: Vec<(&str, &UpdateClass)> =
            classes.iter().map(|(n, c)| (n.as_str(), c)).collect();
        let matrix = if prune {
            session
                .analyzer
                .matrix_pruned_with(&fd_refs, &class_refs, &run)
        } else {
            session.analyzer.matrix_with(&fd_refs, &class_refs, &run)
        };
        let resp = MatrixResponse::from_matrix(&matrix).to_json();
        if cancel.is_cancelled() {
            return Err(exhausted_error(Resource::Cancelled, resp));
        }
        if matrix.exhausted_count() > 0 {
            // Any exhausted cell is UNKNOWN, recorded per-cell; the matrix
            // as a whole is sound but partial.
            return Err(RpcError::with_data(
                rpc::BUDGET_EXHAUSTED,
                format!(
                    "{} cell(s) exhausted their budget",
                    matrix.exhausted_count()
                ),
                resp,
            ));
        }
        Ok(resp)
    }

    fn fd_check(&self, params: &Json, cancel: &CancelToken) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let named = parse_named(&session.alphabet, params, "fds", "fd", parse_fd)?;
        let names: Vec<&str> = named.iter().map(|(n, _)| n.as_str()).collect();
        let fds: Vec<Fd> = named.iter().map(|(_, f)| f.clone()).collect();
        // Explicit doc list, or every loaded document in name order.
        let doc_names: Vec<String> = match params.get("docs") {
            Some(v) => v
                .as_array()
                .ok_or_else(|| invalid_params("'docs' must be an array of names"))?
                .iter()
                .map(|d| {
                    d.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| invalid_params("'docs' entries must be strings"))
                })
                .collect::<Result<_, _>>()?,
            None => {
                let mut all: Vec<String> = session.documents.lock().keys().cloned().collect();
                all.sort();
                all
            }
        };
        if doc_names.is_empty() {
            return Err(invalid_params("no documents loaded or named"));
        }
        let run = self.overrides(&session, params, cancel)?;
        let mut documents = Vec::with_capacity(doc_names.len());
        let mut worst: Option<Resource> = None;
        for name in &doc_names {
            let entry = session.document(name)?;
            let entry = entry.lock();
            let doc = entry.vdoc.doc();
            let report = session.analyzer.check_fds_with(&fds, doc, &run);
            let checks = names
                .iter()
                .zip(&report.outcomes)
                .map(|(fd_name, outcome)| {
                    if let FdOutcome::Unknown { exhausted, .. } = outcome {
                        worst = Some(*exhausted);
                    }
                    let violation = match outcome {
                        FdOutcome::Violated(v) => Some(v.describe(doc)),
                        _ => None,
                    };
                    FdCheckOutcome::from_outcome(fd_name, outcome, violation)
                })
                .collect();
            documents.push(DocumentChecks {
                path: name.clone(),
                checks,
            });
        }
        let resp = FdCheckResponse::from_documents(documents).to_json();
        match worst {
            Some(resource) => Err(exhausted_error(resource, resp)),
            None => Ok(resp),
        }
    }

    fn fd_minimize(&self, params: &Json, cancel: &CancelToken) -> Result<Json, RpcError> {
        let session = self.session(params)?;
        session.requests.fetch_add(1, Ordering::Relaxed);
        let named = parse_named(&session.alphabet, params, "fds", "fd", parse_fd)?;
        let mut set = FdSet::new();
        for (name, fd) in named {
            set.push(name, fd);
        }
        let request = parse_limits(params.get("limits").unwrap_or(&Json::Null))?;
        let merged = merge_limits(&session.limits, &request, &self.config.ceiling);
        // The closure polls the request's token, so `$/cancelRequest` stops
        // it mid-way with a sound partial result.
        let min = set.minimize_governed(Budget::new(&merged).with_cancel(cancel.clone()));
        let resp = MinimizeResponse::from_minimization(&min, &set).to_json();
        match min.exhausted {
            Some(resource) => Err(exhausted_error(resource, resp)),
            None => Ok(resp),
        }
    }

    /// `pattern/parse`: parse a textual pattern, return its canonical form
    /// and compiled template ([`PatternParseResponse`] shape). Stateless —
    /// `sessionId` is optional; when given, the pattern's labels intern
    /// into that session's alphabet.
    fn pattern_parse(&self, params: &Json) -> Result<Json, RpcError> {
        let src = params
            .get("pattern")
            .and_then(Json::as_str)
            .ok_or_else(|| invalid_params("missing 'pattern'"))?;
        let alphabet = match params.get("sessionId") {
            Some(_) => {
                let session = self.session(params)?;
                session.requests.fetch_add(1, Ordering::Relaxed);
                session.alphabet.clone()
            }
            None => Alphabet::new(),
        };
        let compiled = CompiledPattern::from_text(&alphabet, src).map_err(|e| {
            // Typed diagnostics: the byte offset and expected set ride in
            // `data` so editor clients can point at the error position.
            RpcError::with_data(
                rpc::INVALID_PARAMS,
                format!("pattern: {e}"),
                Json::Obj(vec![
                    ("offset".to_string(), Json::usize(e.offset)),
                    ("found".to_string(), Json::str(&e.found)),
                    (
                        "expected".to_string(),
                        Json::Arr(e.expected.iter().map(|x| Json::str(*x)).collect()),
                    ),
                    ("note".to_string(), Json::opt_str(e.note.clone())),
                ]),
            )
        })?;
        Ok(PatternParseResponse::from_compiled(src, &compiled).to_json())
    }
}

impl Session {
    fn document(&self, name: &str) -> Result<Arc<Mutex<DocEntry>>, RpcError> {
        self.documents
            .lock()
            .get(name)
            .cloned()
            .ok_or_else(|| RpcError::new(rpc::DOC_NOT_FOUND, format!("no document named '{name}'")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn limits_merge_field_wise_and_clamp() {
        let session = RunLimits::UNLIMITED
            .with_max_states(1000)
            .with_deadline_ms(500);
        let request = RunLimits::UNLIMITED.with_max_states(50);
        let ceiling = RunLimits::UNLIMITED.with_max_states(200).with_max_memo(10);
        let m = merge_limits(&session, &request, &ceiling);
        assert_eq!(m.max_states, Some(50)); // request overrides session
        assert_eq!(m.deadline, Some(Duration::from_millis(500))); // session default kept
        assert_eq!(m.max_memo, Some(10)); // ceiling applies even when unset below
        let m = merge_limits(&session, &RunLimits::UNLIMITED, &ceiling);
        assert_eq!(m.max_states, Some(200)); // ceiling clamps the session value
    }

    #[test]
    fn admission_cap_is_enforced() {
        let service = Arc::new(Service::new(ServerConfig {
            max_inflight: 2,
            ..ServerConfig::default()
        }));
        let a = service.admit().expect("slot 1");
        let b = service.admit().expect("slot 2");
        assert!(service.admit().is_none(), "cap of 2");
        drop(a);
        let c = service.admit().expect("slot free again");
        drop(b);
        drop(c);
        assert_eq!(service.inflight.load(Ordering::SeqCst), 0);
    }

    fn obj(members: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn document_update_rechecks_incrementally() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &cancel)
            .expect("session opens");
        let sid = open.get("sessionId").and_then(Json::as_u64).expect("id");
        let xml = "<session>\
             <candidate><exam><discipline>math</discipline><rank>1</rank></exam>\
             <level>B</level></candidate>\
             <candidate><exam><discipline>cs</discipline><rank>2</rank></exam>\
             <level>B</level></candidate></session>";
        service
            .dispatch(
                "document/load",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("xml", Json::str(xml)),
                ]),
                &cancel,
            )
            .expect("document loads");
        let fds = Json::Arr(vec![Json::Arr(vec![
            Json::str("disc-rank"),
            Json::str("/session : candidate/exam/discipline -> candidate/exam/rank"),
        ])]);
        let update_params = |update: Json| {
            obj(vec![
                ("sessionId", Json::u64(sid)),
                ("name", Json::str("exams")),
                ("fds", fds.clone()),
                ("update", update),
            ])
        };

        // A level edit cannot reach the FD: carried verdict, no recheck.
        let resp = service
            .dispatch(
                "document/update",
                &update_params(obj(vec![
                    ("select", Json::str("/session/candidate/level")),
                    ("op", Json::str("set_text")),
                    ("value", Json::str("C")),
                ])),
                &cancel,
            )
            .expect("benign update succeeds");
        assert_eq!(resp.get("version").and_then(Json::as_u64), Some(2));
        assert_eq!(resp.get("touched").and_then(Json::as_u64), Some(2));
        assert_eq!(
            resp.get("all_satisfied").and_then(Json::as_bool),
            Some(true)
        );
        let checks = resp.get("checks").and_then(Json::as_array).expect("checks");
        assert_eq!(checks.len(), 1);
        assert_eq!(
            checks[0].get("scope").and_then(Json::as_str),
            Some("unaffected")
        );

        // Same FD set: the warm checker absorbs a violating rank edit.
        let resp = service
            .dispatch(
                "document/update",
                &update_params(obj(vec![
                    ("select", Json::str("/session/candidate/exam/discipline")),
                    ("op", Json::str("set_text")),
                    ("value", Json::str("math")),
                ])),
                &cancel,
            )
            .expect("violating update still answers");
        assert_eq!(resp.get("version").and_then(Json::as_u64), Some(4));
        assert_eq!(
            resp.get("all_satisfied").and_then(Json::as_bool),
            Some(false)
        );
        let checks = resp.get("checks").and_then(Json::as_array).expect("checks");
        assert_eq!(
            checks[0].get("scope").and_then(Json::as_str),
            Some("localized")
        );
        let check = checks[0].get("check").expect("check object");
        assert_eq!(
            check.get("outcome").and_then(Json::as_str),
            Some("violated")
        );

        // fd/check reads the mutated document.
        let resp = service
            .dispatch(
                "fd/check",
                &obj(vec![("sessionId", Json::u64(sid)), ("fds", fds.clone())]),
                &cancel,
            )
            .expect("fd/check over the updated document");
        let docs = resp
            .get("documents")
            .and_then(Json::as_array)
            .expect("documents");
        let checks = docs[0].get("checks").and_then(Json::as_array).expect("c");
        assert_eq!(
            checks[0].get("outcome").and_then(Json::as_str),
            Some("violated"),
            "full check agrees with the incremental verdict"
        );
    }

    #[test]
    fn document_validate_answers_validity_and_errors() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = |params: Json| {
            let resp = service
                .dispatch("session/open", &params, &cancel)
                .expect("session opens");
            resp.get("sessionId").and_then(Json::as_u64).expect("id")
        };
        let load = |sid: u64, name: &str, xml: &str| {
            service
                .dispatch(
                    "document/load",
                    &obj(vec![
                        ("sessionId", Json::u64(sid)),
                        ("name", Json::str(name)),
                        ("xml", Json::str(xml)),
                    ]),
                    &cancel,
                )
                .expect("document loads");
        };
        let validate = |sid: u64, name: &str| {
            service.dispatch(
                "document/validate",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str(name)),
                ]),
                &cancel,
            )
        };

        let sid = open(obj(vec![(
            "schema",
            Json::str("root: a\na: b*\nb: EMPTY\n"),
        )]));
        load(sid, "good", "<a><b/></a>");
        load(sid, "bad", "<a><c/></a>");
        let good = validate(sid, "good").expect("a valid document answers");
        assert_eq!(good.get("valid").and_then(Json::as_bool), Some(true));
        assert_eq!(good.get("reason"), Some(&Json::Null));
        let bad = validate(sid, "bad").expect("an invalid document answers");
        assert_eq!(bad.get("valid").and_then(Json::as_bool), Some(false));
        let reason = bad.get("reason").and_then(Json::as_str).expect("reason");
        assert!(!reason.is_empty());
        let unknown = validate(sid, "ghost").expect_err("no such document");
        assert_eq!(unknown.code, -32005);

        let bare = open(Json::Obj(vec![]));
        load(bare, "good", "<a><b/></a>");
        let no_schema = validate(bare, "good").expect_err("no schema to validate against");
        assert_eq!(no_schema.code, -32003);
    }

    #[test]
    fn document_update_honors_per_request_governance() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &cancel)
            .expect("session opens");
        let sid = open.get("sessionId").and_then(Json::as_u64).expect("id");
        // Violated document: rechecks of the FD go global, which polls the
        // budget before any work — deterministic exhaustion/cancellation.
        let xml = "<session>\
             <candidate><exam><discipline>math</discipline><rank>1</rank></exam></candidate>\
             <candidate><exam><discipline>math</discipline><rank>2</rank></exam></candidate>\
             </session>";
        service
            .dispatch(
                "document/load",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("xml", Json::str(xml)),
                ]),
                &cancel,
            )
            .expect("document loads");
        let fds = Json::Arr(vec![Json::Arr(vec![
            Json::str("disc-rank"),
            Json::str("/session : candidate/exam/discipline -> candidate/exam/rank"),
        ])]);
        let rank_edit = || {
            obj(vec![
                ("select", Json::str("/session/candidate/exam/rank")),
                ("op", Json::str("set_text")),
                ("value", Json::str("3")),
            ])
        };
        // Seed the checker warm under unlimited governance.
        let resp = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("fds", fds.clone()),
                    ("update", rank_edit()),
                ]),
                &cancel,
            )
            .expect("first update seeds and answers");
        assert_eq!(
            resp.get("all_satisfied").and_then(Json::as_bool),
            Some(true)
        );
        // Break the FD again so the next recheck cannot stay Unaffected
        // (violations are reported in-band; the request still answers).
        let resp = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("fds", fds.clone()),
                    (
                        "update",
                        obj(vec![
                            ("select", Json::str("/session/candidate/exam/rank")),
                            ("op", Json::str("set_text")),
                            ("value", Json::str("5")),
                            ("first_only", Json::Bool(true)),
                        ]),
                    ),
                ]),
                &cancel,
            )
            .expect("violating update answers");
        assert_eq!(
            resp.get("all_satisfied").and_then(Json::as_bool),
            Some(false)
        );
        // The warm checker must honor this request's limits, not the ones
        // it was seeded with: a zero deadline exhausts the recheck.
        let err = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("fds", fds.clone()),
                    ("update", rank_edit()),
                    ("limits", obj(vec![("deadlineMs", Json::u64(0))])),
                ]),
                &cancel,
            )
            .unwrap_err();
        assert_eq!(err.code, rpc::BUDGET_EXHAUSTED, "{}", err.message);
        // And the request's cancel token reaches the recheck budgets.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("fds", fds),
                    ("update", rank_edit()),
                ]),
                &cancelled,
            )
            .unwrap_err();
        assert_eq!(err.code, rpc::CANCELLED, "{}", err.message);
    }

    #[test]
    fn document_update_selection_honors_cancellation() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &cancel)
            .expect("session opens");
        let sid = open.get("sessionId").and_then(Json::as_u64).expect("id");
        // Selecting over 1,000 candidates takes well over the 256 budget
        // ticks between polls, so the selection sees a cancelled token.
        let candidates = "<candidate><exam><discipline>math</discipline><rank>1</rank></exam>\
             <level>B</level></candidate>"
            .repeat(1_000);
        service
            .dispatch(
                "document/load",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("xml", Json::str(format!("<session>{candidates}</session>"))),
                ]),
                &cancel,
            )
            .expect("document loads");
        let update = |token: &CancelToken| {
            let fds = Json::Arr(vec![Json::Arr(vec![
                Json::str("disc-rank"),
                Json::str("/session : candidate/exam/discipline -> candidate/exam/rank"),
            ])]);
            let edit = obj(vec![
                ("select", Json::str("/session/candidate/level")),
                ("op", Json::str("set_text")),
                ("value", Json::str("C")),
                ("first_only", Json::Bool(true)),
            ]);
            service.dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("exams")),
                    ("fds", fds),
                    ("update", edit),
                ]),
                token,
            )
        };
        let version = |json: &Json| json.get("version").and_then(Json::as_u64);
        // Seed the warm checker with one edit.
        let seeded = update(&cancel).expect("seeding update answers");
        assert_eq!(version(&seeded), Some(1));
        // A token cancelled beforehand stops the selection before any edit.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let err = update(&cancelled).unwrap_err();
        assert_eq!(err.code, rpc::CANCELLED, "{}", err.message);
        let data = err.data.expect("the untouched document rides in data");
        assert_eq!(version(&data), Some(1));
        assert_eq!(data.get("name").and_then(Json::as_str), Some("exams"));
        // The next update edits the document the cancelled one left alone.
        let next = update(&cancel).expect("next update answers");
        assert_eq!(version(&next), Some(2));
    }

    #[test]
    fn document_update_rejects_malformed_requests() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &cancel)
            .expect("session opens");
        let sid = open.get("sessionId").and_then(Json::as_u64).expect("id");
        let fds = Json::Arr(vec![Json::Arr(vec![
            Json::str("fd"),
            Json::str("/a : b/c -> b/d"),
        ])]);
        let update = obj(vec![
            ("select", Json::str("/a/b")),
            ("op", Json::str("delete")),
        ]);
        // Unknown document.
        let err = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("nope")),
                    ("fds", fds.clone()),
                    ("update", update.clone()),
                ]),
                &cancel,
            )
            .unwrap_err();
        assert_eq!(err.code, rpc::DOC_NOT_FOUND);
        // Missing update object.
        service
            .dispatch(
                "document/load",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("d")),
                    ("xml", Json::str("<a><b><c>1</c><d>2</d></b></a>")),
                ]),
                &cancel,
            )
            .expect("document loads");
        let err = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("d")),
                    ("fds", fds.clone()),
                ]),
                &cancel,
            )
            .unwrap_err();
        assert_eq!(err.code, rpc::INVALID_PARAMS);
        assert!(err.message.contains("update"), "{}", err.message);
        // Bad op inside the update object.
        let err = service
            .dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("d")),
                    ("fds", fds),
                    (
                        "update",
                        obj(vec![
                            ("select", Json::str("/a/b")),
                            ("op", Json::str("zap")),
                        ]),
                    ),
                ]),
                &cancel,
            )
            .unwrap_err();
        assert_eq!(err.code, rpc::INVALID_PARAMS);
        assert!(err.message.contains("unknown op"), "{}", err.message);
    }

    #[test]
    fn document_update_under_a_leaf_is_invalid_params() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &cancel)
            .expect("session opens");
        let sid = open.get("sessionId").and_then(Json::as_u64).expect("id");
        service
            .dispatch(
                "document/load",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("d")),
                    (
                        "xml",
                        Json::str(r#"<s><i k="1" v="1"/><i k="1" v="1"/></s>"#),
                    ),
                ]),
                &cancel,
            )
            .expect("document loads");
        let update = |update: Json| {
            service.dispatch(
                "document/update",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("d")),
                    (
                        "fds",
                        Json::Arr(vec![Json::Arr(vec![
                            Json::str("kv"),
                            Json::str("/s : i/@k -> i/@v"),
                        ])]),
                    ),
                    ("update", update),
                ]),
                &cancel,
            )
        };
        // An attribute takes no children: nothing is edited.
        let err = update(obj(vec![
            ("select", Json::str("/s/i/@k")),
            ("op", Json::str("append_child")),
            ("xml", Json::str("<x/>")),
        ]))
        .unwrap_err();
        assert_eq!(err.code, rpc::INVALID_PARAMS);
        assert!(err.message.contains("element"), "{}", err.message);
        // The next edit is the document's first.
        let resp = update(obj(vec![
            ("select", Json::str("/s/i/@v")),
            ("op", Json::str("set_text")),
            ("value", Json::str("2")),
            ("first_only", Json::Bool(true)),
        ]))
        .expect("a leaf edit applies");
        assert_eq!(resp.get("version").and_then(Json::as_u64), Some(1));
        assert_eq!(resp.get("touched").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn boolean_flags_must_be_booleans() {
        let service = Service::new(ServerConfig::default());
        let cancel = CancelToken::new();
        let open = service
            .dispatch(
                "session/open",
                &obj(vec![("schema", Json::str("root: a\na: EMPTY\n"))]),
                &cancel,
            )
            .expect("session opens");
        let sid = open.get("sessionId").and_then(Json::as_u64).expect("id");
        let load = |validate: Json| {
            service.dispatch(
                "document/load",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    ("name", Json::str("d")),
                    ("xml", Json::str("<a/>")),
                    ("validate", validate),
                ]),
                &cancel,
            )
        };
        let matrix = |prune: Json| {
            service.dispatch(
                "independence/matrix",
                &obj(vec![
                    ("sessionId", Json::u64(sid)),
                    (
                        "fds",
                        Json::Arr(vec![Json::Arr(vec![
                            Json::str("f"),
                            Json::str("/a : b/c -> b/d"),
                        ])]),
                    ),
                    (
                        "updates",
                        Json::Arr(vec![Json::Arr(vec![Json::str("u"), Json::str("/a/b/d")])]),
                    ),
                    ("prune", prune),
                ]),
                &cancel,
            )
        };
        for bad in [Json::str("yes"), Json::u64(1), Json::Null] {
            let err = load(bad.clone()).unwrap_err();
            assert_eq!(err.code, rpc::INVALID_PARAMS);
            assert!(err.message.contains("'validate'"), "{}", err.message);
            let err = matrix(bad).unwrap_err();
            assert_eq!(err.code, rpc::INVALID_PARAMS);
            assert!(err.message.contains("'prune'"), "{}", err.message);
        }
        let valid = load(Json::Bool(true)).expect("a boolean validates");
        assert_eq!(valid.get("valid").and_then(Json::as_bool), Some(true));
        let skipped = load(Json::Bool(false)).expect("false skips validation");
        assert!(skipped.get("valid").is_some_and(Json::is_null));
        let pruned = matrix(Json::Bool(true)).expect("a boolean prunes");
        assert_eq!(pruned.get("pairs").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn pattern_parse_is_stateless_and_typed() {
        let service = Service::new(ServerConfig::default());
        let params = Json::Obj(vec![(
            "pattern".to_string(),
            Json::str("/s//c[at-least 2 child::e]/l"),
        )]);
        let resp = service
            .dispatch("pattern/parse", &params, &CancelToken::new())
            .unwrap();
        assert_eq!(
            resp.get("canonical").and_then(Json::as_str),
            Some("/s//c[count(e) >= 2]/l")
        );
        assert!(resp.get("template_nodes").and_then(Json::as_u64).unwrap() >= 4);

        // Malformed input: the byte offset and expected set ride in data.
        let params = Json::Obj(vec![("pattern".to_string(), Json::str("/s/[x]"))]);
        let err = service
            .dispatch("pattern/parse", &params, &CancelToken::new())
            .unwrap_err();
        assert_eq!(err.code, rpc::INVALID_PARAMS);
        let data = err.data.expect("typed data");
        assert_eq!(data.get("offset").and_then(Json::as_u64), Some(3));
        assert!(!data.get("expected").unwrap().as_array().unwrap().is_empty());
    }

    #[test]
    fn fd_methods_accept_the_textual_pattern_language() {
        let service = Service::new(ServerConfig::default());
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &CancelToken::new())
            .unwrap();
        let sid = open.get("sessionId").and_then(Json::as_u64).unwrap();
        let params = Json::Obj(vec![
            ("sessionId".to_string(), Json::u64(sid)),
            ("name".to_string(), Json::str("d")),
            (
                "xml".to_string(),
                Json::str("<s><i><w/><w/><k>a</k><v>1</v></i><i><w/><w/><k>a</k><v>2</v></i></s>"),
            ),
        ]);
        service
            .dispatch("document/load", &params, &CancelToken::new())
            .unwrap();
        let params = Json::Obj(vec![
            ("sessionId".to_string(), Json::u64(sid)),
            ("docs".to_string(), Json::Arr(vec![Json::str("d")])),
            (
                "fds".to_string(),
                Json::Arr(vec![Json::Arr(vec![
                    Json::str("counted"),
                    Json::str("/s : i[count(w) >= 2]/k -> i[count(w) >= 2]/v"),
                ])]),
            ),
        ]);
        let resp = service
            .dispatch("fd/check", &params, &CancelToken::new())
            .unwrap();
        let docs = resp.get("documents").unwrap().as_array().unwrap();
        let checks = docs[0].get("checks").unwrap().as_array().unwrap();
        assert_eq!(
            checks[0].get("outcome").and_then(Json::as_str),
            Some("violated")
        );
    }

    #[test]
    fn fd_minimize_stops_on_a_cancelled_token() {
        let service = Service::new(ServerConfig::default());
        let open = service
            .dispatch("session/open", &Json::Obj(vec![]), &CancelToken::new())
            .unwrap();
        let sid = open.get("sessionId").and_then(Json::as_u64).unwrap();
        let fd = |name: &str, src: &str| Json::Arr(vec![Json::str(name), Json::str(src)]);
        let params = Json::Obj(vec![
            ("sessionId".to_string(), Json::u64(sid)),
            (
                "fds".to_string(),
                Json::Arr(vec![
                    fd("base", "/s : c/d -> c/r"),
                    fd("weaker", "/s : c/d, c/x -> c/r"),
                ]),
            ),
        ]);
        let token = CancelToken::new();
        token.cancel();
        let err = service
            .dispatch("fd/minimize", &params, &token)
            .unwrap_err();
        assert_eq!(err.code, rpc::CANCELLED);
        // The partial result drops nothing: no implication was proven.
        let data = err.data.expect("partial result");
        assert_eq!(data.get("complete").and_then(Json::as_bool), Some(false));
        assert_eq!(
            data.get("exhausted").and_then(Json::as_str),
            Some("cancelled")
        );
        assert_eq!(
            data.get("kept").and_then(Json::as_array).map(<[_]>::len),
            Some(2)
        );
    }

    #[test]
    fn unknown_method_and_missing_session_are_typed() {
        let service = Service::new(ServerConfig::default());
        let err = service
            .dispatch("no/such", &Json::Null, &CancelToken::new())
            .unwrap_err();
        assert_eq!(err.code, rpc::METHOD_NOT_FOUND);
        let params = Json::Obj(vec![("sessionId".to_string(), Json::u64(99))]);
        let err = service
            .dispatch("session/stats", &params, &CancelToken::new())
            .unwrap_err();
        assert_eq!(err.code, rpc::SESSION_NOT_FOUND);
    }
}
