//! The serializable analysis API: one request/response surface shared by
//! the `rtpcheck` CLI (`--format json`), the `rtpserved` JSON-RPC daemon,
//! and library callers that need wire-stable shapes.
//!
//! Before this module existed the workspace had three divergent notions of
//! "the result of an analysis": the `Analyzer` return types
//! ([`crate::IndependenceAnalysis`], [`crate::IndependenceMatrix`], …), the
//! hand-rolled JSON the CLI printed, and whatever an embedding service
//! would have invented. The types here collapse them into one layer:
//!
//! * [`Json`] — a small self-contained JSON document model (this build is
//!   offline and vendors no serde); parses, renders compactly for wire
//!   framing, and pretty-prints for CLI output;
//! * [`IndependenceResponse`], [`MatrixResponse`], [`FdCheckResponse`],
//!   [`MinimizeResponse`] — the four analysis result shapes, each built
//!   *from* the corresponding engine result and rendered *to* [`Json`], so
//!   CLI JSON and wire protocol cannot drift apart;
//! * [`PROTOCOL_VERSION`] — the version string of this surface, exchanged
//!   in the `rtpserved` `initialize` handshake ([`protocol_compatible`]).
//!
//! Field names are part of the contract for what the JSON-RPC methods
//! return (and `--format json` prints the same shapes): they only change
//! with a [`PROTOCOL_VERSION`] bump. The `phases` member is not part of
//! it: only `rtpcheck --stats-verbose` fills it, as CLI diagnostics, and
//! the daemon never emits it.
//!
//! ```
//! use regtree_core::api::Json;
//!
//! let v = Json::parse(r#"{"pairs": 4, "fds": ["a", "b"]}"#).unwrap();
//! assert_eq!(v.get("pairs").and_then(Json::as_u64), Some(4));
//! assert_eq!(v.get("fds").unwrap().as_array().unwrap().len(), 2);
//! assert_eq!(v.to_compact(), r#"{"pairs":4,"fds":["a","b"]}"#);
//! ```

use std::fmt::Write as _;

use regtree_alphabet::Alphabet;
use regtree_runtime::{RunMetrics, SpanKind, TraceSummary};
use regtree_xml::{parse_document, TreeSpec};

use crate::fdset::{FdSet, Minimization};
use crate::independence::IndependenceAnalysis;
use crate::matrix::{CellProvenance, IndependenceMatrix};
use crate::satisfy::FdOutcome;
use crate::textfd::parse_update_class;
use crate::update::{Update, UpdateOp};

/// Version of the serializable request/response surface. Exchanged in the
/// `rtpserved` `initialize` handshake; a client built against an
/// incompatible major version is rejected with a typed error instead of
/// silently mis-parsing shapes.
pub const PROTOCOL_VERSION: &str = "1.0";

/// Are two protocol versions wire-compatible? (Same major component;
/// minor additions are backward compatible by construction — new optional
/// fields only.)
pub fn protocol_compatible(client: &str, server: &str) -> bool {
    let major = |v: &str| v.split('.').next().map(str::to_owned);
    major(client).is_some() && major(client) == major(server)
}

/// A JSON document: the minimal self-contained value model the API layer
/// serializes through. Numbers keep their source lexeme (`Json::Num`) so
/// `u64` counters round-trip exactly without a float detour.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, stored as its canonical textual lexeme.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: insertion-ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number from any unsigned counter.
    pub fn u64(n: u64) -> Json {
        Json::Num(n.to_string())
    }

    /// A number from a `usize` count.
    pub fn usize(n: usize) -> Json {
        Json::Num(n.to_string())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// `Str` for `Some`, `Null` for `None`.
    pub fn opt_str(s: Option<impl Into<String>>) -> Json {
        match s {
            Some(s) => Json::Str(s.into()),
            None => Json::Null,
        }
    }

    /// Member lookup on an object (first match; `None` on non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean payload, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The number parsed as `u64`, if this is an integral `Num`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The number parsed as `f64`, if this is a `Num`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an `Arr`.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The member list, if this is an `Obj`.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Is this `Null`?
    pub fn is_null(&self) -> bool {
        matches!(self, Json::Null)
    }

    /// Renders without any whitespace — the wire form the JSON-RPC framing
    /// sends (`Content-Length` counts these bytes).
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(n),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Pretty-prints with two-space indentation (the `--format json` form).
    /// Arrays whose elements are all scalars render inline (`["a", "b"]`);
    /// everything composite gets one line per entry.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                if items.iter().all(Json::is_scalar) {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        v.write_compact(out);
                    }
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, v) in items.iter().enumerate() {
                        out.push_str(if i > 0 { ",\n" } else { "\n" });
                        indent(out, depth + 1);
                        v.write_pretty(out, depth + 1);
                    }
                    out.push('\n');
                    indent(out, depth);
                    out.push(']');
                }
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    out.push_str(if i > 0 { ",\n" } else { "\n" });
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            other => other.write_compact(out),
        }
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Parses one JSON document (trailing content is an error). Arrays and
    /// objects may nest at most 512 deep.
    ///
    /// ```
    /// use regtree_core::api::Json;
    /// assert!(Json::parse("{\"a\": [1, 2.5e3, null, \"x\\n\"]}").is_ok());
    /// assert!(Json::parse("{\"a\": }").is_err());
    /// assert!(Json::parse("[1] trailing").is_err());
    /// assert!(Json::parse(&"[".repeat(100_000)).is_err());
    /// ```
    pub fn parse(input: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing content at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// How deep [`Json::parse`] lets arrays and objects nest. The parser
/// recurses once per level, so the bound keeps a hostile frame from
/// overflowing the stack; requests nest a handful of levels.
const MAX_JSON_DEPTH: usize = 512;

/// Recursive-descent JSON parser over raw bytes. Strings must be valid
/// UTF-8 after unescaping (the input already is, being `&str`).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", char::from(b), self.pos))
        }
    }

    /// One value; `depth` arrays and objects are open around it.
    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth == MAX_JSON_DEPTH && matches!(self.bytes.get(self.pos), Some(b'{' | b'[')) {
            return Err(format!(
                "nesting deeper than {MAX_JSON_DEPTH} at byte {}",
                self.pos
            ));
        }
        match self.bytes.get(self.pos) {
            None => Err("unexpected end of input".into()),
            Some(b'{') => {
                self.pos += 1;
                self.skip_ws();
                let mut members = Vec::new();
                if self.bytes.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    self.skip_ws();
                    let v = self.value(depth + 1)?;
                    members.push((key, v));
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(members));
                        }
                        _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.pos += 1;
                self.skip_ws();
                let mut items = Vec::new();
                if self.bytes.get(self.pos) == Some(&b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    self.skip_ws();
                    items.push(self.value(depth + 1)?);
                    self.skip_ws();
                    match self.bytes.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        let digits = |p: &mut Parser| {
            let s = p.pos;
            while matches!(p.bytes.get(p.pos), Some(b'0'..=b'9')) {
                p.pos += 1;
            }
            p.pos > s
        };
        let int_start = self.pos;
        if !digits(self) {
            return Err(format!("invalid number at byte {start}"));
        }
        // JSON forbids leading zeros: "0" is fine, "01" is not.
        if self.bytes[int_start] == b'0' && self.pos - int_start > 1 {
            return Err(format!("leading zero in number at byte {start}"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        if matches!(self.bytes.get(self.pos), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(format!("invalid number at byte {start}"));
            }
        }
        let lexeme = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number lexeme is ASCII")
            .to_string();
        Ok(Json::Num(lexeme))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                            // Surrogate pairs: decode the low half if present.
                            let c = if (0xD800..0xDC00).contains(&code) {
                                if self.bytes.get(self.pos + 5..self.pos + 7) == Some(b"\\u") {
                                    let lo_hex = self
                                        .bytes
                                        .get(self.pos + 7..self.pos + 11)
                                        .ok_or("truncated surrogate pair")?;
                                    let lo = u32::from_str_radix(
                                        std::str::from_utf8(lo_hex).map_err(|_| "bad surrogate")?,
                                        16,
                                    )
                                    .map_err(|e| format!("bad surrogate: {e}"))?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err("invalid surrogate pair".into());
                                    }
                                    self.pos += 6;
                                    char::from_u32(
                                        0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00),
                                    )
                                    .ok_or("invalid surrogate pair")?
                                } else {
                                    return Err("unpaired surrogate".into());
                                }
                            } else {
                                char::from_u32(code).ok_or("invalid \\u escape")?
                            };
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(&b) if b < 0x20 => {
                    return Err(format!("raw control byte in string at {}", self.pos))
                }
                Some(_) => {
                    // Copy the whole run up to the next quote, backslash or
                    // control byte. Those stop bytes are ASCII, so the run
                    // ends on a char boundary of the (UTF-8) input, and
                    // validating only the run keeps parsing linear.
                    let start = self.pos;
                    while let Some(&b) = self.bytes.get(self.pos) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }
}

/// [`RunMetrics`] as the stable `metrics` object every response embeds
/// under `--stats` / on the wire, keyed by [`RunMetrics::fields`].
pub fn metrics_to_json(m: &RunMetrics) -> Json {
    Json::Obj(
        m.fields()
            .into_iter()
            .map(|(name, value)| (name.to_string(), Json::u64(value)))
            .collect(),
    )
}

/// [`TraceSummary`] as the `phases` object (`--stats-verbose`). Every span
/// kind is present — zero counts included — so the shape is stable for
/// downstream parsers.
pub fn phases_to_json(s: &TraceSummary) -> Json {
    let spans = SpanKind::ALL
        .into_iter()
        .map(|kind| {
            let stats = s.span(kind);
            (
                kind.name().to_string(),
                Json::Obj(vec![
                    ("count".into(), Json::u64(stats.count)),
                    ("total_nanos".into(), Json::u64(stats.total_nanos)),
                ]),
            )
        })
        .collect();
    Json::Obj(vec![("spans".into(), Json::Obj(spans))])
}

/// Appends the optional `metrics`/`phases` members shared by all analysis
/// responses.
fn push_extras(
    members: &mut Vec<(String, Json)>,
    metrics: &Option<RunMetrics>,
    phases: &Option<TraceSummary>,
) {
    if let Some(m) = metrics {
        members.push(("metrics".into(), metrics_to_json(m)));
    }
    if let Some(s) = phases {
        members.push(("phases".into(), phases_to_json(s)));
    }
}

/// Result of one `pattern/parse` (and of `rtpcheck pattern parse
/// --format json`): the canonical form plus the compiled template, so
/// clients can explain what a textual pattern means without re-implementing
/// the grammar.
#[derive(Clone, Debug)]
pub struct PatternParseResponse {
    /// The input as given.
    pub source: String,
    /// The canonical printed form (`parse ∘ print = id`).
    pub canonical: String,
    /// Number of nodes of the compiled template.
    pub template_nodes: usize,
    /// Indices of the selected tuple within the template.
    pub selected: Vec<usize>,
    /// Human-readable template structure (indented edge list).
    pub sketch: String,
    /// Value tests the template cannot express; evaluation applies them as
    /// a mapping filter. Pairs of (template node index, required string
    /// value).
    pub value_tests: Vec<(usize, String)>,
}

impl PatternParseResponse {
    /// Builds the response from a parsed-and-compiled pattern.
    pub fn from_compiled(source: &str, compiled: &regtree_pattern::CompiledPattern) -> Self {
        let canonical = compiled.ast().to_text();
        let template = compiled.pattern().template();
        PatternParseResponse {
            source: source.to_string(),
            canonical,
            template_nodes: template.len(),
            selected: compiled
                .pattern()
                .selected()
                .iter()
                .map(|n| n.index())
                .collect(),
            sketch: template.sketch(),
            value_tests: compiled
                .value_tests()
                .iter()
                .map(|(n, v)| (n.index(), v.clone()))
                .collect(),
        }
    }

    /// The stable JSON shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("source".into(), Json::str(&self.source)),
            ("canonical".into(), Json::str(&self.canonical)),
            ("template_nodes".into(), Json::usize(self.template_nodes)),
            (
                "selected".into(),
                Json::Arr(self.selected.iter().map(|&i| Json::usize(i)).collect()),
            ),
            ("sketch".into(), Json::str(&self.sketch)),
            (
                "value_tests".into(),
                Json::Arr(
                    self.value_tests
                        .iter()
                        .map(|(n, v)| {
                            Json::Obj(vec![
                                ("node".into(), Json::usize(*n)),
                                ("value".into(), Json::str(v)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Result of one `independence/check` (and of `rtpcheck independence
/// --format json`).
#[derive(Clone, Debug)]
pub struct IndependenceResponse {
    /// Did the criterion prove independence?
    pub independent: bool,
    /// Machine name of the exhausted resource, when the run was cut short.
    pub exhausted: Option<String>,
    /// States of the combined (pre-schema) IC automaton.
    pub ic_states: usize,
    /// Size of the full product automaton.
    pub automaton_size: usize,
    /// Product states actually explored by the emptiness engine.
    pub explored_states: usize,
    /// Serialized witness document, when `L` was proven nonempty.
    pub witness_xml: Option<String>,
    /// Work counters, when requested.
    pub metrics: Option<RunMetrics>,
    /// Per-phase wall-time breakdown, when requested.
    pub phases: Option<TraceSummary>,
}

impl IndependenceResponse {
    /// Builds the response from an engine result. The witness document (if
    /// any) must be serialized by the caller, which owns the serialization
    /// options; `metrics`/`phases` start empty — callers opt in.
    pub fn from_analysis(a: &IndependenceAnalysis, witness_xml: Option<String>) -> Self {
        IndependenceResponse {
            independent: a.verdict.is_independent(),
            exhausted: a.verdict.exhausted().map(|r| r.name().to_string()),
            ic_states: a.ic_states,
            automaton_size: a.total_states,
            explored_states: a.explored_states,
            witness_xml,
            metrics: None,
            phases: None,
        }
    }

    /// The stable JSON shape.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("independent".into(), Json::Bool(self.independent)),
            ("exhausted".into(), Json::opt_str(self.exhausted.clone())),
            ("ic_states".into(), Json::usize(self.ic_states)),
            ("automaton_size".into(), Json::usize(self.automaton_size)),
            ("explored_states".into(), Json::usize(self.explored_states)),
            (
                "witness_xml".into(),
                Json::opt_str(self.witness_xml.clone()),
            ),
        ];
        push_extras(&mut members, &self.metrics, &self.phases);
        Json::Obj(members)
    }
}

/// One cell of a [`MatrixResponse`].
#[derive(Clone, Debug)]
pub struct MatrixCellResponse {
    /// Row (FD) name.
    pub fd: String,
    /// Column (update-class) name.
    pub update: String,
    /// `"independent"`, `"recheck"`, `"unknown"`, or `"implied"`.
    pub verdict: String,
    /// Machine name of the exhausted resource, when the cell was cut short.
    pub exhausted: Option<String>,
    /// `"computed"`, `"implied"`, or `"reused"`.
    pub provenance: String,
    /// Kept FD names implying this row (when `provenance == "implied"`).
    pub implied_by: Option<Vec<String>>,
    /// FD name the verdict was reused from (when `provenance == "reused"`).
    pub reused_from: Option<String>,
    /// Product states the engine explored for this cell.
    pub explored_states: usize,
    /// Full product size of this cell.
    pub automaton_size: usize,
}

impl MatrixCellResponse {
    fn to_json(&self) -> Json {
        let mut members = vec![
            ("fd".into(), Json::str(&self.fd)),
            ("update".into(), Json::str(&self.update)),
            ("verdict".into(), Json::str(&self.verdict)),
            ("exhausted".into(), Json::opt_str(self.exhausted.clone())),
            ("provenance".into(), Json::str(&self.provenance)),
        ];
        if let Some(by) = &self.implied_by {
            members.push((
                "implied_by".into(),
                Json::Arr(by.iter().map(Json::str).collect()),
            ));
        }
        if let Some(from) = &self.reused_from {
            members.push(("reused_from".into(), Json::str(from)));
        }
        members.push(("explored_states".into(), Json::usize(self.explored_states)));
        members.push(("automaton_size".into(), Json::usize(self.automaton_size)));
        Json::Obj(members)
    }
}

/// Result of one `independence/matrix` (and of `rtpcheck
/// independence-matrix --format json`).
#[derive(Clone, Debug)]
pub struct MatrixResponse {
    /// Row (FD) names.
    pub fds: Vec<String>,
    /// Column (update-class) names.
    pub updates: Vec<String>,
    /// All cells, row-major.
    pub cells: Vec<MatrixCellResponse>,
    /// Total `(fd, update)` pairs.
    pub pairs: usize,
    /// Provably independent pairs.
    pub independent_pairs: usize,
    /// Pairs that must be rechecked after their update class runs.
    pub recheck_pairs: usize,
    /// Pairs whose run was cut short by a budget.
    pub exhausted_pairs: usize,
    /// Cells the emptiness engine actually ran for.
    pub computed_cells: usize,
    /// Cells whose verdict was shared with an identical `(fd, update)`
    /// pair of another row or column.
    pub reused_cells: usize,
    /// Rows dropped as implied by the rest of the FD set.
    pub implied_rows: usize,
    /// Merged work counters, when requested.
    pub metrics: Option<RunMetrics>,
    /// Per-phase wall-time breakdown, when requested.
    pub phases: Option<TraceSummary>,
}

impl MatrixResponse {
    /// Builds the response from an engine matrix.
    pub fn from_matrix(m: &IndependenceMatrix) -> Self {
        let cells = m
            .cells
            .iter()
            .map(|cell| {
                let verdict = match &cell.provenance {
                    // Implied rows carry no criterion verdict.
                    CellProvenance::ImpliedRow { .. } => "implied",
                    _ if cell.verdict.is_independent() => "independent",
                    _ if cell.verdict.exhausted().is_some() => "unknown",
                    _ => "recheck",
                };
                let (provenance, implied_by, reused_from) = match &cell.provenance {
                    CellProvenance::Computed => ("computed", None, None),
                    CellProvenance::ImpliedRow { by } => (
                        "implied",
                        Some(by.iter().map(|&j| m.fd_names[j].clone()).collect()),
                        None,
                    ),
                    CellProvenance::ReusedFrom { fd } => {
                        ("reused", None, Some(m.fd_names[*fd].clone()))
                    }
                };
                MatrixCellResponse {
                    fd: m.fd_names[cell.fd].clone(),
                    update: m.class_names[cell.class].clone(),
                    verdict: verdict.to_string(),
                    exhausted: cell.verdict.exhausted().map(|r| r.name().to_string()),
                    provenance: provenance.to_string(),
                    implied_by,
                    reused_from,
                    explored_states: cell.explored_states,
                    automaton_size: cell.automaton_size,
                }
            })
            .collect();
        MatrixResponse {
            fds: m.fd_names.clone(),
            updates: m.class_names.clone(),
            cells,
            pairs: m.fd_names.len() * m.class_names.len(),
            independent_pairs: m.independent_count(),
            recheck_pairs: m.recheck_count(),
            exhausted_pairs: m.exhausted_count(),
            computed_cells: m.computed_count(),
            reused_cells: m.reused_count(),
            implied_rows: m.implied_row_count(),
            metrics: None,
            phases: None,
        }
    }

    /// The stable JSON shape.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "fds".into(),
                Json::Arr(self.fds.iter().map(Json::str).collect()),
            ),
            (
                "updates".into(),
                Json::Arr(self.updates.iter().map(Json::str).collect()),
            ),
            (
                "cells".into(),
                Json::Arr(self.cells.iter().map(MatrixCellResponse::to_json).collect()),
            ),
            ("pairs".into(), Json::usize(self.pairs)),
            (
                "independent_pairs".into(),
                Json::usize(self.independent_pairs),
            ),
            ("recheck_pairs".into(), Json::usize(self.recheck_pairs)),
            ("exhausted_pairs".into(), Json::usize(self.exhausted_pairs)),
            ("computed_cells".into(), Json::usize(self.computed_cells)),
            ("reused_cells".into(), Json::usize(self.reused_cells)),
            ("implied_rows".into(), Json::usize(self.implied_rows)),
        ];
        push_extras(&mut members, &self.metrics, &self.phases);
        Json::Obj(members)
    }
}

/// One FD's outcome within a [`FdCheckResponse`] document entry.
#[derive(Clone, Debug)]
pub struct FdCheckOutcome {
    /// FD name.
    pub fd: String,
    /// `"satisfied"`, `"violated"`, or `"unknown"`.
    pub outcome: String,
    /// Machine name of the exhausted resource, for `"unknown"` outcomes.
    pub exhausted: Option<String>,
    /// Human-readable violation description, for `"violated"` outcomes.
    pub violation: Option<String>,
}

impl FdCheckOutcome {
    /// Builds the outcome entry from an engine outcome. `violation` is the
    /// caller-rendered witness description (it needs the document).
    pub fn from_outcome(name: &str, outcome: &FdOutcome, violation: Option<String>) -> Self {
        let (kind, exhausted) = match outcome {
            FdOutcome::Satisfied => ("satisfied", None),
            FdOutcome::Violated(_) => ("violated", None),
            FdOutcome::Unknown { exhausted, .. } => ("unknown", Some(exhausted.name().to_string())),
        };
        FdCheckOutcome {
            fd: name.to_string(),
            outcome: kind.to_string(),
            exhausted,
            violation,
        }
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fd".into(), Json::str(&self.fd)),
            ("outcome".into(), Json::str(&self.outcome)),
            ("exhausted".into(), Json::opt_str(self.exhausted.clone())),
            ("violation".into(), Json::opt_str(self.violation.clone())),
        ])
    }
}

/// Per-document check list within a [`FdCheckResponse`].
#[derive(Clone, Debug)]
pub struct DocumentChecks {
    /// Document path (CLI) or session document name (daemon).
    pub path: String,
    /// One outcome per FD, in input order.
    pub checks: Vec<FdCheckOutcome>,
}

impl DocumentChecks {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("path".into(), Json::str(&self.path)),
            (
                "checks".into(),
                Json::Arr(self.checks.iter().map(FdCheckOutcome::to_json).collect()),
            ),
        ])
    }
}

/// Result of one `fd/check` (and of `rtpcheck fd-check --format json`).
#[derive(Clone, Debug)]
pub struct FdCheckResponse {
    /// One entry per checked document.
    pub documents: Vec<DocumentChecks>,
    /// Did every FD hold on every document (no violations, no unknowns)?
    pub all_satisfied: bool,
    /// Was any outcome cut short by a budget?
    pub exhausted: bool,
    /// Merged work counters, when requested.
    pub metrics: Option<RunMetrics>,
    /// Per-phase wall-time breakdown, when requested.
    pub phases: Option<TraceSummary>,
}

impl FdCheckResponse {
    /// Derives the aggregate flags from the per-document outcomes.
    pub fn from_documents(documents: Vec<DocumentChecks>) -> Self {
        let mut all_satisfied = true;
        let mut exhausted = false;
        for doc in &documents {
            for check in &doc.checks {
                if check.outcome != "satisfied" {
                    all_satisfied = false;
                }
                if check.outcome == "unknown" {
                    exhausted = true;
                }
            }
        }
        FdCheckResponse {
            documents,
            all_satisfied,
            exhausted,
            metrics: None,
            phases: None,
        }
    }

    /// The stable JSON shape.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            (
                "documents".into(),
                Json::Arr(self.documents.iter().map(DocumentChecks::to_json).collect()),
            ),
            ("all_satisfied".into(), Json::Bool(self.all_satisfied)),
            ("exhausted".into(), Json::Bool(self.exhausted)),
        ];
        push_extras(&mut members, &self.metrics, &self.phases);
        Json::Obj(members)
    }
}

/// Parses one update request object into an executable [`Update`] — the
/// wire shape consumed by `rtpcheck fd-check --updates` (one object per
/// JSONL line) and the `document/update` RPC:
///
/// ```json
/// {"select": "/session/candidate/exam/rank", "op": "set_text",
///  "value": "9", "first_only": true}
/// ```
///
/// * `select` — the update class: an absolute pattern-language path
///   ([`parse_update_class`]) whose final step selects the updated nodes;
/// * `op` — `replace` | `append_child` | `prepend_child` | `delete` |
///   `set_text`;
/// * `xml` — the replacement/child subtree, for the first three ops;
/// * `value` — the new string value, for `set_text`;
/// * `first_only` — apply to the first selected node only (optional,
///   default `false`; any value but a JSON boolean is an error).
pub fn parse_update_json(alphabet: &Alphabet, json: &Json) -> Result<Update, String> {
    let select = json
        .get("select")
        .and_then(Json::as_str)
        .ok_or("update needs a 'select' path string")?;
    let class = parse_update_class(alphabet, select).map_err(|e| format!("bad 'select': {e}"))?;

    let spec = |key: &str| -> Result<TreeSpec, String> {
        let xml = json
            .get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("op needs an '{key}' subtree string"))?;
        let doc = parse_document(alphabet, xml).map_err(|e| format!("bad '{key}': {e}"))?;
        let tops = doc.children(doc.root());
        match tops {
            [single] => Ok(TreeSpec::from_document(&doc, *single)),
            _ => Err(format!(
                "'{key}' must contain exactly one top-level element"
            )),
        }
    };

    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or("update needs an 'op' string")?;
    let op = match op {
        "replace" => UpdateOp::Replace(spec("xml")?),
        "append_child" => UpdateOp::AppendChild(spec("xml")?),
        "prepend_child" => UpdateOp::PrependChild(spec("xml")?),
        "delete" => UpdateOp::Delete,
        "set_text" => {
            let value = json
                .get("value")
                .and_then(Json::as_str)
                .ok_or("set_text needs a 'value' string")?;
            UpdateOp::SetText(value.to_string())
        }
        other => {
            return Err(format!(
                "unknown op '{other}' (expected replace | append_child | prepend_child | \
                 delete | set_text)"
            ))
        }
    };
    let op = match json.get("first_only").map(Json::as_bool) {
        None | Some(Some(false)) => op,
        Some(Some(true)) => UpdateOp::FirstOnly(Box::new(op)),
        Some(None) => return Err("'first_only' must be a boolean".into()),
    };
    Ok(Update::new(class, op))
}

/// One FD's scope + outcome within an [`UpdateResponse`].
#[derive(Clone, Debug)]
pub struct UpdateCheckEntry {
    /// FD name.
    pub fd: String,
    /// `"unaffected"` | `"localized"` | `"global"` — how far the recheck
    /// reached.
    pub scope: String,
    /// The verdict after the update (same vocabulary as
    /// [`FdCheckOutcome`]).
    pub check: FdCheckOutcome,
}

impl UpdateCheckEntry {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fd".into(), Json::str(&self.fd)),
            ("scope".into(), Json::str(&self.scope)),
            ("check".into(), self.check.to_json()),
        ])
    }
}

/// Result of one `document/update` (and of each JSONL line processed by
/// `rtpcheck fd-check --updates`).
#[derive(Clone, Debug)]
pub struct UpdateResponse {
    /// Document name/path the update was applied to.
    pub path: String,
    /// Version counter after this update.
    pub version: u64,
    /// Number of nodes the update selected and edited.
    pub touched: usize,
    /// Per FD (input order): recheck scope and verdict.
    pub checks: Vec<UpdateCheckEntry>,
    /// Did every FD hold after the update?
    pub all_satisfied: bool,
    /// Merged work counters, when requested.
    pub metrics: Option<RunMetrics>,
    /// Per-phase wall-time breakdown, when requested.
    pub phases: Option<TraceSummary>,
}

impl UpdateResponse {
    /// The stable JSON shape.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("path".into(), Json::str(&self.path)),
            ("version".into(), Json::u64(self.version)),
            ("touched".into(), Json::usize(self.touched)),
            (
                "checks".into(),
                Json::Arr(self.checks.iter().map(UpdateCheckEntry::to_json).collect()),
            ),
            ("all_satisfied".into(), Json::Bool(self.all_satisfied)),
        ];
        push_extras(&mut members, &self.metrics, &self.phases);
        Json::Obj(members)
    }
}

/// The wire name of a recheck scope.
pub fn scope_name(scope: crate::incremental::RecheckScope) -> &'static str {
    match scope {
        crate::incremental::RecheckScope::Unaffected => "unaffected",
        crate::incremental::RecheckScope::Localized => "localized",
        crate::incremental::RecheckScope::Global => "global",
    }
}

/// One dropped FD within a [`MinimizeResponse`].
#[derive(Clone, Debug)]
pub struct DroppedFdResponse {
    /// Name of the dropped FD.
    pub fd: String,
    /// Names of the kept FDs implying it (empty for trivial FDs).
    pub implied_by: Vec<String>,
}

impl DroppedFdResponse {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("fd".into(), Json::str(&self.fd)),
            (
                "implied_by".into(),
                Json::Arr(self.implied_by.iter().map(Json::str).collect()),
            ),
        ])
    }
}

/// Result of one `fd/minimize` (and of `rtpcheck fds minimize --format
/// json`).
#[derive(Clone, Debug)]
pub struct MinimizeResponse {
    /// Names of the FDs forming the irredundant core.
    pub kept: Vec<String>,
    /// Dropped FDs with provenance.
    pub dropped: Vec<DroppedFdResponse>,
    /// Total FDs in the input set.
    pub total: usize,
    /// Did the implication closure run to completion? A `false` here means
    /// the recorded drops are proven but further drops may exist.
    pub complete: bool,
    /// Machine name of the exhausted resource, when incomplete.
    pub exhausted: Option<String>,
}

impl MinimizeResponse {
    /// Builds the response from a minimization over `set`.
    pub fn from_minimization(min: &Minimization, set: &FdSet) -> Self {
        MinimizeResponse {
            kept: min.kept.iter().map(|&k| set.name(k).to_string()).collect(),
            dropped: min
                .dropped
                .iter()
                .map(|d| DroppedFdResponse {
                    fd: set.name(d.index).to_string(),
                    implied_by: d.by.iter().map(|&j| set.name(j).to_string()).collect(),
                })
                .collect(),
            total: set.len(),
            complete: min.is_complete(),
            exhausted: min.exhausted.map(|r| r.name().to_string()),
        }
    }

    /// The stable JSON shape.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "kept".into(),
                Json::Arr(self.kept.iter().map(Json::str).collect()),
            ),
            (
                "dropped".into(),
                Json::Arr(
                    self.dropped
                        .iter()
                        .map(DroppedFdResponse::to_json)
                        .collect(),
                ),
            ),
            ("total".into(), Json::usize(self.total)),
            ("complete".into(), Json::Bool(self.complete)),
            ("exhausted".into(), Json::opt_str(self.exhausted.clone())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_compact() {
        let src = r#"{"a":[1,2.5e3,null,"x\n"],"b":{"c":true},"d":-7}"#;
        let v = Json::parse(src).unwrap();
        assert_eq!(v.to_compact(), src);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("{\"a\": }").is_err());
        assert!(Json::parse("[1] trailing").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("nul").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("01").is_err()); // JSON forbids leading zeros
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}0{}", "[{\"k\":".repeat(n / 2), "}]".repeat(n / 2));
        assert!(Json::parse(&nested(MAX_JSON_DEPTH)).is_ok());
        let e = Json::parse(&nested(MAX_JSON_DEPTH + 2)).unwrap_err();
        assert!(e.contains("nesting deeper than 512"), "{e}");
    }

    #[test]
    fn escapes_and_unicode_round_trip() {
        let v = Json::parse(r#""tab\t nl\n quote\" ué pair😀""#).unwrap();
        assert_eq!(v.as_str().unwrap(), "tab\t nl\n quote\" ué pair😀");
        let rendered = Json::str("tab\t nl\n \"q\"").to_compact();
        assert_eq!(
            Json::parse(&rendered).unwrap().as_str().unwrap(),
            "tab\t nl\n \"q\""
        );
    }

    #[test]
    fn pretty_inlines_scalar_arrays() {
        let v = Json::Obj(vec![
            (
                "kept".into(),
                Json::Arr(vec![Json::str("base"), Json::str("other")]),
            ),
            ("n".into(), Json::u64(2)),
            ("empty".into(), Json::Arr(vec![])),
        ]);
        let pretty = v.to_pretty();
        assert!(
            pretty.contains("\"kept\": [\"base\", \"other\"]"),
            "{pretty}"
        );
        assert!(pretty.contains("\"empty\": []"), "{pretty}");
        assert!(Json::parse(&pretty).is_ok());
    }

    #[test]
    fn broken_surrogate_escapes_are_rejected() {
        // A high surrogate must be followed by a \u-escaped low surrogate;
        // anything else is invalid JSON and must Err without panicking.
        let esc = |hex: &str| format!("{}u{}", '\x5c', hex);
        for second in ["0041", "E000", "D800"] {
            let src = format!("\"{}{}\"", esc("D800"), esc(second));
            let r = Json::parse(&src);
            assert!(r.is_err(), "src={src} got: {r:?}");
        }
    }

    #[test]
    fn protocol_versions() {
        assert!(protocol_compatible(PROTOCOL_VERSION, PROTOCOL_VERSION));
        assert!(protocol_compatible("1.3", "1.0"));
        assert!(!protocol_compatible("2.0", "1.0"));
    }

    #[test]
    fn update_json_round_trips_through_apply() {
        use regtree_alphabet::Alphabet;

        let a = Alphabet::new();
        let doc = parse_document(
            &a,
            "<session><candidate><exam><rank>1</rank></exam></candidate>\
             <candidate><exam><rank>1</rank></exam></candidate></session>",
        )
        .unwrap();

        let line = r#"{"select": "/session/candidate/exam/rank",
                       "op": "set_text", "value": "9", "first_only": true}"#;
        let up = parse_update_json(&a, &Json::parse(line).unwrap()).unwrap();
        let after = up.apply_cloned(&doc).unwrap();
        let xml = regtree_xml::to_xml(&after);
        assert!(
            xml.contains("<rank>9</rank>") && xml.contains("<rank>1</rank>"),
            "{xml}"
        );

        let line = r#"{"select": "/session/candidate/exam",
                       "op": "append_child", "xml": "<note>ok</note>"}"#;
        let up = parse_update_json(&a, &Json::parse(line).unwrap()).unwrap();
        assert_eq!(up.apply_cloned(&doc).unwrap().len(), doc.len() + 4);

        let line = r#"{"select": "/session/candidate", "op": "delete", "first_only": true}"#;
        let up = parse_update_json(&a, &Json::parse(line).unwrap()).unwrap();
        let after = up.apply_cloned(&doc).unwrap();
        assert!(after.len() < doc.len());
    }

    #[test]
    fn update_json_rejects_malformed_requests() {
        use regtree_alphabet::Alphabet;

        let a = Alphabet::new();
        for (line, needle) in [
            (r#"{"op": "delete"}"#, "'select'"),
            (r#"{"select": "/a"}"#, "'op'"),
            (r#"{"select": "/a", "op": "explode"}"#, "unknown op"),
            (r#"{"select": "/a", "op": "set_text"}"#, "'value'"),
            (r#"{"select": "/a", "op": "replace"}"#, "'xml'"),
            (
                r#"{"select": "/a", "op": "replace", "xml": "<b/><c/>"}"#,
                "one top-level",
            ),
            (r#"{"select": "a", "op": "delete"}"#, "select"),
            (
                r#"{"select": "/a", "op": "delete", "first_only": "true"}"#,
                "'first_only' must be a boolean",
            ),
            (
                r#"{"select": "/a", "op": "delete", "first_only": 1}"#,
                "'first_only' must be a boolean",
            ),
        ] {
            let err = parse_update_json(&a, &Json::parse(line).unwrap()).unwrap_err();
            assert!(err.contains(needle), "line={line} err={err}");
        }
    }

    #[test]
    fn metrics_shape_is_stable() {
        let m = RunMetrics {
            states_interned: 3,
            ..RunMetrics::default()
        };
        let json = metrics_to_json(&m);
        assert_eq!(json.get("states_interned").and_then(Json::as_u64), Some(3));
        let keys: Vec<&str> = json
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "states_interned",
                "transitions_fired",
                "guard_intersections",
                "dfa_steps",
                "frontier_pushes",
                "memo_entries",
                "memo_hits",
                "verdicts_reused",
                "deltas_applied",
                "rechecks_localized",
                "rechecks_full",
                "compile_nanos",
                "search_nanos",
            ]
        );
    }
}
