//! Frozen workload inputs, written straight from the seed.
//!
//! Nothing here calls the generators of the repository: a later change to
//! `regtree-gen`, `fixtures/` or the vendored `rand` must not move the
//! benchmark's inputs. The exam sessions mirror `regtree-gen`'s
//! construction (one ability mark per candidate, rank a hash of
//! discipline and mark, level a function of the mark), so they are
//! schema-valid and satisfy the paper's FDs by construction.

use std::fmt::Write as _;

/// The exam schema `Sc` of the paper's running example.
pub const EXAM_RTS: &str = include_str!("../data/exam.rts");

/// The Figure 1 exam-session document.
pub const FIGURE1_XML: &str = include_str!("../data/figure1.xml");

/// SplitMix64: a tiny PRNG whose stream is fixed forever by this file.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly shuffled copy of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i as u64 + 1) as usize);
        }
        p
    }
}

const DISCIPLINES: [&str; 8] = [
    "math",
    "physics",
    "biology",
    "history",
    "chemistry",
    "latin",
    "music",
    "geography",
];

/// Rank from `(discipline, mark)`: sessions satisfy `fd1` by construction.
fn rank_of(discipline: &str, mark: u32) -> u32 {
    let h = discipline
        .bytes()
        .fold(7u32, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u32));
    (h ^ mark).wrapping_mul(2_654_435_761) % 50 + 1
}

/// Level from the (single) ability mark.
fn level_of(mark: u32) -> &'static str {
    match mark {
        16..=20 => "A",
        13..=15 => "B",
        10..=12 => "C",
        7..=9 => "D",
        _ => "E",
    }
}

/// A schema-valid exam session of `candidates` candidates with `exams`
/// exams each (at most 8), as compact XML text. Each candidate has one
/// ability mark for all its exams; those below 10 are failed and listed
/// under `toBePassed`, otherwise the candidate has a `firstJob-Year`.
pub fn exam_session(candidates: usize, exams: usize, rng: &mut Rng) -> String {
    let exams = exams.clamp(1, DISCIPLINES.len());
    let mut xml = String::with_capacity(candidates * 420 + 32);
    xml.push_str("<session>");
    for i in 0..candidates {
        let mark = rng.below(21) as u32;
        let _ = write!(xml, "<candidate IDN=\"{}\">", 1000 + i);
        for (j, disc) in DISCIPLINES.iter().take(exams).enumerate() {
            let _ = write!(
                xml,
                "<exam date=\"2009-06-{:02}\"><discipline>{disc}</discipline>\
                 <mark>{mark}</mark><rank>{}</rank></exam>",
                j + 1,
                rank_of(disc, mark)
            );
        }
        let _ = write!(xml, "<level>{}</level>", level_of(mark));
        if mark < 10 {
            xml.push_str("<toBePassed>");
            for disc in DISCIPLINES.iter().take(exams) {
                let _ = write!(xml, "<discipline>{disc}</discipline>");
            }
            xml.push_str("</toBePassed>");
        } else {
            xml.push_str("<firstJob-Year>2010</firstJob-Year>");
        }
        xml.push_str("</candidate>");
    }
    xml.push_str("</session>");
    xml
}

/// The E12 FD-set corpus as named text FDs: groups of six under `/db`
/// (`wide`, `narrow`, `aug`, `chain1`, `chain2`, `goal`; `aug` and `goal`
/// are implied by the rest of their group). The seed permutes the order of
/// whole groups, which keeps the set of implied rows; a truncated last
/// group keeps its first members.
pub fn e12_fds(n: usize, rng: &mut Rng) -> Vec<(String, String)> {
    let mut groups: Vec<Vec<(String, String)>> = Vec::new();
    let mut total = 0;
    for g in 0.. {
        if total == n {
            break;
        }
        let specs = [
            ("wide", format!("/db : g{g}/d -> g{g}[N]")),
            ("narrow", format!("/db : g{g}/d -> g{g}/r")),
            ("aug", format!("/db : g{g}/d, g{g}/x -> g{g}/r")),
            ("chain1", format!("/db : g{g}/c/e -> g{g}/c[N]")),
            ("chain2", format!("/db : g{g}/c[N] -> g{g}/c/f")),
            ("goal", format!("/db : g{g}/c/e -> g{g}/c/f")),
        ];
        let take = specs.len().min(n - total);
        total += take;
        groups.push(
            specs
                .into_iter()
                .take(take)
                .map(|(tag, src)| (format!("g{g}-{tag}"), src))
                .collect(),
        );
    }
    rng.permutation(groups.len())
        .into_iter()
        .flat_map(|i| groups[i].clone())
        .collect()
}

/// The update-class columns of the E12 matrix.
pub const E12_UPDATES: [&str; 4] = ["/db/g0/d", "/db/g0/r", "/db/g1/c/e", "/db/g2/x"];

/// FNV-1a, for pinning generated bytes in tests.
#[cfg(test)]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use regtree_alphabet::Alphabet;
    use regtree_core::{parse_fd, satisfies, FdSet, RunLimits};
    use regtree_hedge::Schema;
    use regtree_xml::parse_document;

    use crate::workload::{Kind, Plan, COLD_FDS, UPDATE_FDS};

    #[test]
    fn seed_zero_sessions_are_valid_and_satisfy_the_workload_fds() {
        let a = Alphabet::new();
        let schema = Schema::parse(&a, EXAM_RTS).expect("schema parses");
        let update = Plan::new(Kind::UpdateStream, 0).docs;
        let cold = Plan::new(Kind::ColdValidate, 0).docs;
        for (i, xml) in update.iter().chain(&cold).enumerate() {
            let doc = parse_document(&a, xml).expect("generated XML parses");
            schema
                .validate(&doc)
                .expect("generated session is schema-valid");
            for (name, src) in UPDATE_FDS.iter().chain(COLD_FDS.iter()) {
                let fd = parse_fd(&a, src).expect("workload FD parses");
                assert!(satisfies(&fd, &doc), "{name} fails on document {i}");
            }
        }
        let figure1 = parse_document(&a, FIGURE1_XML).expect("Figure 1 parses");
        schema.validate(&figure1).expect("Figure 1 is schema-valid");
    }

    #[test]
    fn seed_zero_inputs_are_pinned() {
        let a = Alphabet::new();
        let update = Plan::new(Kind::UpdateStream, 0).docs;
        let cold = Plan::new(Kind::ColdValidate, 0).docs;
        let sizes = |docs: &[String]| docs.iter().map(String::len).collect::<Vec<_>>();
        let nodes = parse_document(&a, &update[0]).expect("parses").len();
        let all: String = update
            .iter()
            .chain(&cold)
            .map(|d| format!("{d}\n"))
            .collect();
        let corpus: String = Plan::new(Kind::FdMatrix, 0)
            .fds
            .iter()
            .map(|(n, s)| format!("{n}={s}\n"))
            .collect();
        assert_eq!(
            (sizes(&update), sizes(&cold[..2]), nodes),
            (vec![317_880, 320_011], vec![39_666, 40_942], 25_847)
        );
        assert_eq!(fnv1a(all.as_bytes()), 0xff4a_fe05_23ad_eee5);
        assert_eq!(fnv1a(corpus.as_bytes()), 0x7072_459f_8df9_4b2d);
    }

    #[test]
    fn e12_corpus_keeps_two_implied_rows_per_full_group() {
        let a = Alphabet::new();
        let fds = e12_fds(200, &mut Rng::new(7, 3));
        assert_eq!(fds.len(), 200);
        let mut set = FdSet::new();
        for (name, src) in &fds {
            set.push(name.clone(), parse_fd(&a, src).expect("corpus FD parses"));
        }
        let min = set.minimize(&RunLimits::UNLIMITED);
        assert!(min.is_complete());
        assert_eq!(min.dropped.len(), 66, "33 full groups drop aug and goal");
    }

    #[test]
    fn same_seed_same_inputs() {
        let one = exam_session(5, 3, &mut Rng::new(42, 1));
        assert_eq!(one, exam_session(5, 3, &mut Rng::new(42, 1)));
        assert_ne!(one, exam_session(5, 3, &mut Rng::new(43, 1)));
    }
}
