//! The four workloads: their seeded inputs, the requests of every op
//! rendered ahead of the window, and the deep checks run after it.

use regtree_alphabet::Alphabet;
use regtree_core::api::Json;
use regtree_core::{
    check_fd, parse_fd, update_class_from_edges, Analyzer, Fd, Update, UpdateClass, UpdateOp,
};
use regtree_hedge::Schema;
use regtree_xml::parse_document;

use crate::gen::{self, Rng, E12_UPDATES, EXAM_RTS, FIGURE1_XML};
use crate::wire::{escape, Expect, Params, Request, Session};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    WarmCheck,
    UpdateStream,
    ColdValidate,
    FdMatrix,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::WarmCheck,
        Kind::UpdateStream,
        Kind::ColdValidate,
        Kind::FdMatrix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::WarmCheck => "warm-check",
            Kind::UpdateStream => "update-stream",
            Kind::ColdValidate => "cold-validate",
            Kind::FdMatrix => "fd-matrix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// How many clients the traced replay replays, and how many ops each.
    pub fn replay(self) -> (usize, usize) {
        match self {
            Kind::WarmCheck => (1, 300),
            Kind::UpdateStream => (2, 200),
            Kind::ColdValidate => (1, 30),
            Kind::FdMatrix => (1, 30),
        }
    }
}

/// Closed-loop clients, one connection each: one per core of the two-core
/// host the bounds in `BENCHMARK.json` were measured on.
pub const CLIENTS: usize = 2;

/// `fd1`, `fd2` of Figure 4 and a per-candidate FD, as text.
pub const WARM_FDS: [(&str, &str); 3] = [
    (
        "fd1",
        "/session : candidate/exam/discipline, candidate/exam/mark -> candidate/exam/rank",
    ),
    (
        "fd2",
        "/session/candidate : exam/@date, exam/discipline -> exam[N]",
    ),
    ("fd3", "/session/candidate : level -> firstJob-Year"),
];

/// The update classes crossed with [`WARM_FDS`].
pub const WARM_UPDATES: [&str; 5] = [
    "/session/candidate/level",
    "/session/candidate/exam/rank",
    "/session/candidate/exam/mark",
    "/session/candidate/firstJob-Year",
    "/session/candidate/toBePassed/discipline",
];

/// Definition 6 verdicts under the exam schema (`true` = independent),
/// row-major over [`WARM_FDS`] × [`WARM_UPDATES`]: 9 independent, 6 not.
pub const WARM_VERDICTS: [[bool; 5]; 3] = [
    [true, false, false, true, true],
    [true, false, false, true, true],
    [false, true, true, false, true],
];

/// The FDs `update-stream` maintains.
pub const UPDATE_FDS: [(&str, &str); 2] = [
    (
        "disc-rank",
        "/session/candidate : exam/discipline -> exam/rank",
    ),
    ("level-fjy", "/session/candidate : level -> firstJob-Year"),
];

/// The FDs `cold-validate` checks: `fd1` and `fd2`.
pub const COLD_FDS: [(&str, &str); 2] = [WARM_FDS[0], WARM_FDS[1]];

/// `update-stream` edits cycle over these leaves; each edit is a
/// first-only `set_text`, so it always lands on the same node.
const EDIT_PATHS: [&str; 4] = [
    "/session/candidate/exam/rank",
    "/session/candidate/level",
    "/session/candidate/firstJob-Year",
    "/session/candidate/exam/discipline",
];

/// Distinct edits per `update-stream` client before the stream repeats.
const EDIT_PERIOD: usize = 400;

/// Candidates of the `update-stream` (≈318 KB) and `cold-validate` (≈40 KB)
/// documents; three exams each. At 200 candidates (≈78 KB) the CPU share
/// of a `cold-validate` op made its run-to-run spread ≈10 % on a shared
/// two-core host.
const UPDATE_CANDIDATES: usize = 800;
const COLD_CANDIDATES: usize = 100;
/// Distinct `cold-validate` documents per client.
const COLD_POOL: usize = 8;

/// The FD-set size of `fd-matrix`: eight whole E12 groups. At 200 FDs the
/// op is almost all CPU, and on a shared two-core host its run-to-run
/// spread (≈24 %) was wider than any usable bound; at 48 the response
/// (≈31 KB) also stays within one loopback segment.
const MATRIX_FDS: usize = 48;

/// What one op is about, for the replay's library calls and the checks.
pub enum Input {
    Pair { fd: usize, update: usize },
    Edit { path: &'static str, value: String },
    Cold { doc: usize },
    Matrix,
}

pub struct Op {
    pub input: Input,
    pub requests: Vec<Request>,
}

pub struct ClientPlan {
    /// `initialize`, and the session a client opens for the whole run.
    pub setup: Vec<Request>,
    /// The client's ops; op `k` is `ops[k % ops.len()]`.
    pub ops: Vec<Op>,
    /// Ops run during set-up, before the window.
    pub warmup: usize,
}

/// Everything one run sends, rendered from the seed.
pub struct Plan {
    pub kind: Kind,
    pub clients: Vec<ClientPlan>,
    /// Documents: one per client on `update-stream`, the shared pool on
    /// `cold-validate`, Figure 1 on `warm-check`.
    pub docs: Vec<String>,
    /// The named FD corpus of `fd-matrix`.
    pub fds: Vec<(String, String)>,
}

fn named_json(pairs: &[(&str, &str)]) -> String {
    let items: Vec<String> = pairs
        .iter()
        .map(|(n, e)| format!("[{},{}]", escape(n), escape(e)))
        .collect();
    format!("[{}]", items.join(","))
}

fn initialize() -> Request {
    Request::new(
        "initialize",
        Params::new().str("protocolVersion", "1.0"),
        Expect::Any,
    )
}

fn open(schema: bool) -> Request {
    let params = if schema {
        Params::new().str("schema", EXAM_RTS)
    } else {
        Params::new()
    };
    Request::new("session/open", params, Expect::Opened)
}

fn load(name: &str, xml: &str, validate: bool) -> Request {
    let mut params = Params::new().session().str("name", name).str("xml", xml);
    if validate {
        params = params.raw("validate", "true");
    }
    let valid = validate.then_some(true);
    Request::new("document/load", params, Expect::Loaded { valid })
}

impl Plan {
    pub fn new(kind: Kind, seed: u64) -> Plan {
        match kind {
            Kind::WarmCheck => warm_check(seed),
            Kind::UpdateStream => update_stream(seed),
            Kind::ColdValidate => cold_validate(seed),
            Kind::FdMatrix => fd_matrix(seed),
        }
    }

    pub fn op(&self, client: usize, k: usize) -> &Op {
        let ops = &self.clients[client].ops;
        &ops[k % ops.len()]
    }
}

fn warm_check(seed: u64) -> Plan {
    let order = Rng::new(seed, 1).permutation(WARM_FDS.len() * WARM_UPDATES.len());
    let clients = (0..CLIENTS)
        .map(|c| ClientPlan {
            setup: vec![initialize(), open(true), load("figure1", FIGURE1_XML, true)],
            ops: (0..order.len())
                .map(|i| {
                    let pair = order[(i + 7 * c) % order.len()];
                    let (fd, update) = (pair / WARM_UPDATES.len(), pair % WARM_UPDATES.len());
                    let params = Params::new()
                        .session()
                        .str("fd", WARM_FDS[fd].1)
                        .str("update", WARM_UPDATES[update]);
                    let expect = Expect::Independent(WARM_VERDICTS[fd][update]);
                    Op {
                        input: Input::Pair { fd, update },
                        requests: vec![Request::new("independence/check", params, expect)],
                    }
                })
                .collect(),
            warmup: order.len(),
        })
        .collect();
    Plan {
        kind: Kind::WarmCheck,
        clients,
        docs: vec![FIGURE1_XML.to_string()],
        fds: Vec::new(),
    }
}

/// The `k`-th edit of an `update-stream` client: rank, level,
/// firstJob-Year and discipline in turn. Discipline alternates physics and
/// math on candidate 0, whose second exam is physics, so `disc-rank` flips
/// between violated and satisfied.
fn edit(k: usize, rng: &mut Rng) -> (&'static str, String) {
    let value = match k % 4 {
        0 => (1 + rng.below(50)).to_string(),
        1 => ["A", "B", "C", "D", "E"][rng.below(5) as usize].to_string(),
        2 => (2009 + rng.below(5)).to_string(),
        _ => ["physics", "math"][(k / 4) % 2].to_string(),
    };
    (EDIT_PATHS[k % 4], value)
}

/// The `update` object of a `document/update` request.
pub fn update_json(path: &str, value: &str) -> String {
    format!(
        r#"{{"select":{},"op":"set_text","value":{},"first_only":true}}"#,
        escape(path),
        escape(value)
    )
}

fn update_stream(seed: u64) -> Plan {
    let fds = named_json(&UPDATE_FDS);
    let mut docs = Vec::new();
    let clients = (0..CLIENTS)
        .map(|c| {
            let xml = gen::exam_session(UPDATE_CANDIDATES, 3, &mut Rng::new(seed, 10 + c as u64));
            let setup = vec![initialize(), open(false), load("session", &xml, false)];
            docs.push(xml);
            let mut rng = Rng::new(seed, 20 + c as u64);
            let ops = (0..EDIT_PERIOD)
                .map(|k| {
                    let (path, value) = edit(k, &mut rng);
                    let params = Params::new()
                        .session()
                        .str("name", "session")
                        .raw("fds", &fds)
                        .raw("update", &update_json(path, &value));
                    Op {
                        input: Input::Edit { path, value },
                        requests: vec![Request::new("document/update", params, Expect::Updated)],
                    }
                })
                .collect();
            ClientPlan {
                setup,
                ops,
                warmup: 4,
            }
        })
        .collect();
    Plan {
        kind: Kind::UpdateStream,
        clients,
        docs,
        fds: Vec::new(),
    }
}

fn cold_validate(seed: u64) -> Plan {
    let docs: Vec<String> = (0..CLIENTS * COLD_POOL)
        .map(|i| gen::exam_session(COLD_CANDIDATES, 3, &mut Rng::new(seed, 100 + i as u64)))
        .collect();
    let fds = named_json(&COLD_FDS);
    let clients = (0..CLIENTS)
        .map(|c| ClientPlan {
            setup: vec![initialize()],
            ops: (0..COLD_POOL)
                .map(|i| {
                    let doc = c * COLD_POOL + i;
                    let check = Params::new().session().raw("fds", &fds);
                    Op {
                        input: Input::Cold { doc },
                        requests: vec![
                            open(true),
                            load("exam", &docs[doc], true),
                            Request::new("fd/check", check, Expect::Satisfied(COLD_FDS.len())),
                            Request::new("session/close", Params::new().session(), Expect::Closed),
                        ],
                    }
                })
                .collect(),
            warmup: 1,
        })
        .collect();
    Plan {
        kind: Kind::ColdValidate,
        clients,
        docs,
        fds: Vec::new(),
    }
}

/// The name of an E12 update column, as the E12 harness names it.
pub fn update_name(path: &str) -> String {
    path[1..].replace('/', "-")
}

fn fd_matrix(seed: u64) -> Plan {
    let fds = gen::e12_fds(MATRIX_FDS, &mut Rng::new(seed, 30));
    let fd_refs: Vec<(&str, &str)> = fds.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
    let names: Vec<String> = E12_UPDATES.iter().map(|p| update_name(p)).collect();
    let updates: Vec<(&str, &str)> = names
        .iter()
        .zip(E12_UPDATES)
        .map(|(n, p)| (n.as_str(), p))
        .collect();
    let params = || {
        Params::new()
            .session()
            .raw("fds", &named_json(&fd_refs))
            .raw("updates", &named_json(&updates))
            .raw("prune", "true")
    };
    let clients = (0..CLIENTS)
        .map(|_| ClientPlan {
            setup: vec![initialize(), open(false)],
            ops: vec![Op {
                input: Input::Matrix,
                requests: vec![Request::new(
                    "independence/matrix",
                    params(),
                    Expect::SameMatrix,
                )],
            }],
            warmup: 2,
        })
        .collect();
    Plan {
        kind: Kind::FdMatrix,
        clients,
        docs: Vec::new(),
        fds,
    }
}

/// An update class from an absolute path of plain labels (without the
/// CoreXPath front end, which the replay must not depend on).
pub fn class_of(a: &Alphabet, path: &str) -> UpdateClass {
    update_class_from_edges(a, &[&path[1..]]).expect("workload paths are plain label paths")
}

pub fn parse_fds(a: &Alphabet, named: &[(&str, &str)]) -> Vec<Fd> {
    named
        .iter()
        .map(|(_, src)| parse_fd(a, src).expect("workload FDs parse"))
        .collect()
}

/// The `set_text` edit of an `update-stream` op as a library update.
pub fn edit_update(a: &Alphabet, path: &str, value: &str) -> Update {
    Update::new(
        class_of(a, path),
        UpdateOp::FirstOnly(Box::new(UpdateOp::SetText(value.to_string()))),
    )
}

/// Checks, after the window, what scanning bytes could not: each
/// client's records of ops `(k, record)` against an in-process oracle.
/// Returns one message per mismatch.
pub fn deep_check(plan: &Plan, sessions: &[Session]) -> Vec<String> {
    match plan.kind {
        Kind::WarmCheck => check_verdict_table(),
        Kind::UpdateStream => std::thread::scope(|s| {
            let handles: Vec<_> = sessions
                .iter()
                .enumerate()
                .map(|(c, st)| s.spawn(move || check_edits(plan, c, &st.outcomes)))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread panicked"))
                .collect()
        }),
        Kind::ColdValidate => check_cold(plan, sessions),
        Kind::FdMatrix => check_matrix(plan, sessions),
    }
}

/// The hard-coded verdicts agree with an in-process analyzer.
pub fn check_verdict_table() -> Vec<String> {
    let a = Alphabet::new();
    let schema = Schema::parse(&a, EXAM_RTS).expect("exam schema parses");
    let analyzer = Analyzer::builder().schema(schema).build();
    let fds = parse_fds(&a, &WARM_FDS);
    let mut errors = Vec::new();
    for (i, fd) in fds.iter().enumerate() {
        for (j, path) in WARM_UPDATES.iter().enumerate() {
            let got = analyzer.independence(fd, &class_of(&a, path)).verdict;
            if got.is_independent() != WARM_VERDICTS[i][j] || got.exhausted().is_some() {
                errors.push(format!(
                    "{} vs {path}: in-process verdict {got:?}",
                    WARM_FDS[i].0
                ));
            }
        }
    }
    errors
}

/// Replays client `c`'s edits on its document with `Update::apply` and
/// checks every FD from scratch. Each edit rewrites the text of a fixed
/// node, so from op 3 on (every kind applied once) the document after op
/// `k + EDIT_PERIOD` equals the one after op `k`: one period of the
/// oracle covers a window of any length.
fn check_edits(plan: &Plan, c: usize, records: &[(usize, Vec<bool>)]) -> Vec<String> {
    let period = plan.clients[c].ops.len();
    let Some(last) = records.iter().map(|(k, _)| *k).max() else {
        return Vec::new();
    };
    let a = Alphabet::new();
    let fds = parse_fds(&a, &UPDATE_FDS);
    let mut doc = parse_document(&a, &plan.docs[c]).expect("generated XML parses");
    let mut expected = Vec::new();
    for k in 0..=last.min(3 + period) {
        let Input::Edit { path, value } = &plan.op(c, k).input else {
            unreachable!("update-stream ops are edits")
        };
        edit_update(&a, path, value)
            .apply(&mut doc)
            .expect("edits apply");
        expected.push(
            fds.iter()
                .map(|fd| check_fd(fd, &doc).is_ok())
                .collect::<Vec<_>>(),
        );
    }
    let mut errors = Vec::new();
    for (k, got) in records {
        let j = if *k < expected.len() {
            *k
        } else {
            3 + (k - 3) % period
        };
        if *got != expected[j] {
            errors.push(format!(
                "client {c} op {k}: outcomes {got:?}, oracle {:?}",
                expected[j]
            ));
        }
    }
    errors
}

fn check_cold(plan: &Plan, sessions: &[Session]) -> Vec<String> {
    let a = Alphabet::new();
    let schema = Schema::parse(&a, EXAM_RTS).expect("exam schema parses");
    let fds = parse_fds(&a, &COLD_FDS);
    let nodes: Vec<u64> = plan
        .docs
        .iter()
        .enumerate()
        .map(|(i, xml)| {
            let doc = parse_document(&a, xml).expect("generated XML parses");
            assert!(
                schema.validate(&doc).is_ok(),
                "pool document {i} is invalid"
            );
            assert!(
                fds.iter().all(|fd| check_fd(fd, &doc).is_ok()),
                "pool document {i} violates an FD"
            );
            doc.len() as u64
        })
        .collect();
    let mut errors = Vec::new();
    for (c, st) in sessions.iter().enumerate() {
        for (k, n) in &st.nodes {
            let Input::Cold { doc } = plan.op(c, *k).input else {
                unreachable!("cold-validate ops load a pool document")
            };
            if *n != nodes[doc] {
                errors.push(format!(
                    "client {c} op {k}: {n} nodes loaded, {} parsed",
                    nodes[doc]
                ));
            }
        }
    }
    errors
}

/// Both clients saw the same matrix, and its first copy agrees cell by
/// cell with an unpruned in-process matrix (implied rows carry no verdict).
fn check_matrix(plan: &Plan, sessions: &[Session]) -> Vec<String> {
    let firsts: Vec<&Vec<u8>> = sessions
        .iter()
        .filter_map(|s| s.first_matrix.as_ref())
        .collect();
    let Some(first) = firsts.first() else {
        return vec!["no matrix response".into()];
    };
    if firsts.iter().any(|m| m != first) {
        return vec!["clients received different matrices".into()];
    }
    let text = std::str::from_utf8(first).expect("responses are UTF-8");
    let resp = match Json::parse(text) {
        Ok(v) => v,
        Err(e) => return vec![format!("matrix response is not JSON: {e}")],
    };
    let a = Alphabet::new();
    let fds: Vec<Fd> = plan
        .fds
        .iter()
        .map(|(_, s)| parse_fd(&a, s).expect("corpus FDs parse"))
        .collect();
    let classes: Vec<UpdateClass> = E12_UPDATES.iter().map(|p| class_of(&a, p)).collect();
    let names: Vec<String> = E12_UPDATES.iter().map(|p| update_name(p)).collect();
    let fd_refs: Vec<(&str, &Fd)> = plan.fds.iter().map(|(n, _)| n.as_str()).zip(&fds).collect();
    let class_refs: Vec<(&str, &UpdateClass)> =
        names.iter().map(String::as_str).zip(&classes).collect();
    let unpruned = Analyzer::builder().build().matrix(&fd_refs, &class_refs);
    let cells = resp.get("cells").and_then(Json::as_array).unwrap_or(&[]);
    if cells.len() != fds.len() * classes.len() {
        return vec![format!("matrix has {} cells", cells.len())];
    }
    let mut errors = Vec::new();
    for cell in cells {
        let field = |k: &str| cell.get(k).and_then(Json::as_str).unwrap_or("");
        if field("provenance") == "implied" {
            continue;
        }
        let i = plan.fds.iter().position(|(n, _)| n == field("fd"));
        let j = names.iter().position(|n| n == field("update"));
        let (Some(i), Some(j)) = (i, j) else {
            errors.push(format!("unknown cell {}", cell.to_compact()));
            continue;
        };
        let want = if unpruned.independent(i, j) {
            "independent"
        } else {
            "recheck"
        };
        if field("verdict") != want {
            errors.push(format!(
                "cell ({}, {}): {} over the wire, {want} in-process",
                field("fd"),
                field("update"),
                field("verdict")
            ));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::InProcess;
    use crate::wire::run_op;

    #[test]
    fn warm_check_verdict_table_holds_in_process() {
        assert_eq!(check_verdict_table(), Vec::<String>::new());
        let independent = WARM_VERDICTS.iter().flatten().filter(|v| **v).count();
        assert_eq!(independent, 9);
    }

    #[test]
    fn warm_check_verdicts_hold_through_the_service() {
        // The service parses update classes with its own front end; the
        // expected table must hold there too.
        let plan = Plan::new(Kind::WarmCheck, 0);
        let mut t = InProcess::new(false);
        let mut st = Session::default();
        for req in &plan.clients[0].setup {
            run_op(&mut t, &mut st, std::slice::from_ref(req)).unwrap();
        }
        for k in 0..plan.clients[0].ops.len() {
            run_op(&mut t, &mut st, &plan.op(0, k).requests).unwrap();
        }
    }

    #[test]
    fn update_stream_outcomes_match_the_oracle_past_one_period() {
        let plan = Plan::new(Kind::UpdateStream, 0);
        let mut t = InProcess::new(false);
        let mut st = Session::default();
        for req in &plan.clients[0].setup {
            run_op(&mut t, &mut st, std::slice::from_ref(req)).unwrap();
        }
        let mut flips = 0;
        for k in 0..EDIT_PERIOD + 20 {
            st.op = k;
            run_op(&mut t, &mut st, &plan.op(0, k).requests).unwrap();
            flips += usize::from(!st.outcomes.last().unwrap().1[0]);
        }
        assert!(flips > 0, "the discipline edits must violate disc-rank");
        assert_eq!(check_edits(&plan, 0, &st.outcomes), Vec::<String>::new());
        // A wrong record is caught, also past the first period.
        let mut bad = st.outcomes.clone();
        let last = bad.last_mut().unwrap();
        last.1[0] = !last.1[0];
        assert_eq!(check_edits(&plan, 0, &bad).len(), 1);
    }
}
