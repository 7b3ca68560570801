//! `regtree-serve` — **rtpserved**, a long-lived JSON-RPC 2.0 analysis
//! service over the request/response types of [`regtree_core::api`].
//!
//! The CLI (`rtpcheck`) pays schema + pattern compilation on every
//! invocation. The daemon amortizes it: a *session* pins an
//! [`regtree_core::Analyzer`] — parsed schema with its content-model NFAs,
//! pattern-automaton cache — and the parsed documents, so the thousandth independence check
//! over the same schema answers from warm caches. The protocol is
//! LSP-style framing (`Content-Length: N\r\n\r\n<json>`) over stdio or
//! TCP; the payloads are exactly the versioned
//! [`regtree_core::api::PROTOCOL_VERSION`] shapes that `rtpcheck
//! --format json` prints, so a client can switch between one-shot and
//! daemon mode without re-parsing anything.
//!
//! # Methods
//!
//! | method | params | result |
//! |---|---|---|
//! | `initialize` | `{protocolVersion}` | server info + capabilities |
//! | `session/open` | `{schema?, limits?}` | `{sessionId, hasSchema}` |
//! | `session/close` | `{sessionId}` | `{closed}` |
//! | `session/stats` | `{sessionId}` | documents/requests/limits |
//! | `server/stats` | — | sessions/inflight/totals |
//! | `document/load` | `{sessionId, name, xml, validate?}` | `{name, nodes, valid}` |
//! | `document/validate` | `{sessionId, name}` | `{name, valid, reason}` |
//! | `document/update` | `{sessionId, name, fds, update, limits?}` | [`regtree_core::api::UpdateResponse`] |
//! | `independence/check` | `{sessionId, fd, update, limits?}` | [`regtree_core::api::IndependenceResponse`] |
//! | `independence/matrix` | `{sessionId, fds, updates, prune?, limits?}` | [`regtree_core::api::MatrixResponse`] |
//! | `fd/check` | `{sessionId, fds, docs?, limits?}` | [`regtree_core::api::FdCheckResponse`] |
//! | `fd/minimize` | `{sessionId, fds, limits?}` | [`regtree_core::api::MinimizeResponse`] |
//! | `pattern/parse` | `{pattern, sessionId?}` | [`regtree_core::api::PatternParseResponse`] |
//! | `shutdown` | — | `null` (server stops) |
//!
//! `$/cancelRequest {id}` and `exit` are notifications. FD expressions use
//! the textual pattern language of [`regtree_core::parse_fd`] (descendant
//! axes, wildcards, counting predicates — see `docs/PATTERN_LANGUAGE.md`),
//! update classes the same language through
//! [`regtree_core::parse_update_class`], schemas the rule format of
//! [`regtree_hedge::Schema::parse`] — the same surface syntax as the CLI.
//! `pattern/parse` is stateless (no session required); parse failures
//! return `invalid params` with `{offset, found, expected, note}` in
//! `error.data` so editor clients can point at the byte.
//! `document/update` takes the executable-update shape of
//! [`regtree_core::api::parse_update_json`] (the same objects `rtpcheck
//! fd-check --updates` reads line-wise), mutates the loaded document in
//! place, and rechecks the named FDs through a per-document
//! [`regtree_core::IncrementalChecker`] that stays warm between requests.
//!
//! # Governance
//!
//! Admission control is layered ([`service`] module docs): a global
//! in-flight cap, per-session default [`regtree_core::RunLimits`], and
//! per-request overrides clamped by a server-wide ceiling. An admitted run
//! that exhausts its budget answers with the typed error
//! [`rpc::BUDGET_EXHAUSTED`] (cancellation: [`rpc::CANCELLED`]) whose
//! `data` member carries the sound partial response — the service never
//! returns a wrong verdict, only a smaller one.

#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod rpc;
pub mod server;
pub mod service;

pub use server::{serve_connection, serve_stdio, TcpServer};
pub use service::{ServerConfig, Service};
