//! Quick deterministic timing of the hottest `ic_scaling` sweep points:
//! fixed iteration counts, median-of-runs, no criterion machinery. Useful
//! when iterating on the engine; `scripts/bench_json.sh` remains the
//! source of truth for committed numbers.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// System allocator wrapped with call counters (`--allocs` mode).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates directly to the system allocator.
#[allow(unsafe_code)]
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { std::alloc::System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        unsafe { std::alloc::System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation counts of one call per sweep point, split by pipeline stage.
fn allocs() {
    let a = regtree_gen::exam_alphabet();
    let count = |name: &str, f: &mut dyn FnMut()| {
        f(); // warm one-time lazy state
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let b0 = BYTES.load(Ordering::Relaxed);
        f();
        let da = ALLOCS.load(Ordering::Relaxed) - a0;
        let db = BYTES.load(Ordering::Relaxed) - b0;
        println!("{name:<28} {da:>6} allocs  {db:>8} bytes");
    };
    let fd = fd_with_conditions(&a, 2);
    let u2 = update_chain(&a, 2);
    let u3 = update_chain(&a, 3);
    let u6 = update_chain(&a, 6);
    let schema8 = chain_schema(&a, 8);
    let schema16 = chain_schema(&a, 16);
    count("compile_pattern fd2", &mut || {
        std::hint::black_box(regtree_pattern::compile_pattern(fd.pattern(), true));
    });
    count("compile_pattern u3", &mut || {
        std::hint::black_box(regtree_pattern::compile_pattern(u3.pattern(), false));
    });
    count("schema8.compile", &mut || {
        std::hint::black_box(schema8.compile());
    });
    count("full update_depth/3", &mut || {
        std::hint::black_box(fresh_independence(&fd, &u3, None));
    });
    count("full update_depth/6", &mut || {
        std::hint::black_box(fresh_independence(&fd, &u6, None));
    });
    count("full schema_rules/8", &mut || {
        std::hint::black_box(fresh_independence(&fd, &u2, Some(&schema8)));
    });
    count("full schema_rules/16", &mut || {
        std::hint::black_box(fresh_independence(&fd, &u2, Some(&schema16)));
    });
}

use regtree_bench::{
    chain_schema, fd_with_conditions, fresh_independence, padded_alphabet, update_chain,
};
use regtree_core::{Analyzer, SpanKind, SummarySink};

/// Times the individual compile-side pieces of one sweep point.
fn pieces() {
    let a = regtree_gen::exam_alphabet();
    let fd = fd_with_conditions(&a, 2);
    let u2 = update_chain(&a, 2);
    let u9 = update_chain(&a, 9);
    let schema32 = chain_schema(&a, 32);
    time_point("compile_pattern fd(2) mk", 200, &mut || {
        std::hint::black_box(regtree_pattern::compile_pattern(fd.pattern(), true));
    });
    time_point("compile_pattern u9", 200, &mut || {
        std::hint::black_box(regtree_pattern::compile_pattern(u9.pattern(), false));
    });
    time_point("compile_pattern u2", 200, &mut || {
        std::hint::black_box(regtree_pattern::compile_pattern(u2.pattern(), false));
    });
    time_point("schema32.compile", 200, &mut || {
        std::hint::black_box(schema32.compile());
    });
    let pf = regtree_pattern::compile_pattern(fd.pattern(), true);
    let pu = regtree_pattern::compile_pattern(u2.pattern(), false);
    let sa = schema32.compile();
    time_point("partition(f,u,s32)", 200, &mut || {
        std::hint::black_box(regtree_hedge::GuardPartition::from_automata([
            &pf.automaton,
            &pu.automaton,
            &sa,
        ]));
    });
    let part = regtree_hedge::GuardPartition::from_automata([&pf.automaton, &pu.automaton, &sa]);
    time_point("compile_automaton x3", 200, &mut || {
        std::hint::black_box(regtree_hedge::CompiledAutomaton::compile(
            &pf.automaton,
            &part,
        ));
        std::hint::black_box(regtree_hedge::CompiledAutomaton::compile(
            &pu.automaton,
            &part,
        ));
        std::hint::black_box(regtree_hedge::CompiledAutomaton::compile(&sa, &part));
    });
    // A no-schema (u3-shaped) triple: all three automata are tiny.
    let u3 = update_chain(&a, 3);
    let pu3 = regtree_pattern::compile_pattern(u3.pattern(), false);
    let uni = regtree_hedge::HedgeAutomaton::universal();
    let small = regtree_hedge::GuardPartition::from_automata([&pf.automaton, &pu3.automaton, &uni]);
    time_point("compile af alone", 200, &mut || {
        std::hint::black_box(regtree_hedge::CompiledAutomaton::compile(
            &pf.automaton,
            &small,
        ));
    });
    time_point("compile au3 alone", 200, &mut || {
        std::hint::black_box(regtree_hedge::CompiledAutomaton::compile(
            &pu3.automaton,
            &small,
        ));
    });
    time_point("compile universal alone", 200, &mut || {
        std::hint::black_box(regtree_hedge::CompiledAutomaton::compile(&uni, &small));
    });
}

/// Warm per-phase averages: a fresh `Analyzer` per call (no caching) so the
/// workload matches the free-function sweep, 50 calls per point.
fn warm_phases() {
    const N: u32 = 50;
    let a = regtree_gen::exam_alphabet();
    let fd = fd_with_conditions(&a, 2);
    let u2 = update_chain(&a, 2);
    let schema32 = chain_schema(&a, 32);
    let u9 = update_chain(&a, 9);
    for (name, fd, class, schema) in [
        ("schema_rules/32", &fd, &u2, Some(&schema32)),
        ("update_depth/9", &fd, &u9, None),
    ] {
        let sink = Arc::new(SummarySink::new());
        let t = Instant::now();
        for _ in 0..N {
            let mut b = Analyzer::builder().tracer(sink.clone());
            if let Some(s) = schema {
                b = b.schema((*s).clone());
            }
            let _ = b.build().independence(fd, class);
        }
        let total = t.elapsed().as_nanos() / N as u128;
        println!("{name}: total {total} ns/iter");
        let summary = sink.summary();
        for kind in SpanKind::ALL {
            let s = summary.span(kind);
            if s.count == 0 {
                continue;
            }
            println!(
                "  {:<24} {:>9} ns/iter",
                kind.name(),
                s.total_nanos / N as u64
            );
        }
    }
}

/// Prints the exploration counters of each sweep point once.
fn metrics() {
    let a = regtree_gen::exam_alphabet();
    let fd = fd_with_conditions(&a, 2);
    let u2 = update_chain(&a, 2);
    let schema32 = chain_schema(&a, 32);
    let u9 = update_chain(&a, 9);
    let fd6 = fd_with_conditions(&a, 6);
    for (name, fd, class, schema) in [
        ("schema_rules/32", &fd, &u2, Some(&schema32)),
        ("update_depth/9", &fd, &u9, None),
        ("fd_conditions/6", &fd6, &u2, None),
    ] {
        let mut b = Analyzer::builder();
        if let Some(s) = schema {
            b = b.schema((*s).clone());
        }
        let r = b.build().independence(fd, class);
        println!("{name}: {:?}", r.metrics);
    }
}

/// Times every `ic_scaling` sweep point and prints the ratio against the
/// committed lazy baselines (HEAD `BENCH_ic.json` at the time of writing).
fn grid() {
    let a = regtree_gen::exam_alphabet();
    let mut results: Vec<(String, u128, u64)> = Vec::new();
    for (k, base) in [(1u32, 24515u64), (2, 30036), (4, 50793), (6, 58045)] {
        let fd = fd_with_conditions(&a, k as usize);
        let u2 = update_chain(&a, 2);
        let ns = min_point(&mut || {
            std::hint::black_box(fresh_independence(&fd, &u2, None));
        });
        results.push((format!("fd_conditions/{k}"), ns, base));
    }
    for (d, base) in [(1u32, 22073u64), (3, 37136), (6, 54951), (9, 95854)] {
        let fd = fd_with_conditions(&a, 2);
        let u = update_chain(&a, d as usize);
        let ns = min_point(&mut || {
            std::hint::black_box(fresh_independence(&fd, &u, None));
        });
        results.push((format!("update_depth/{d}"), ns, base));
    }
    for (extra, base) in [(0u32, 28836u64), (50, 30541), (200, 34009), (800, 34844)] {
        let ax = padded_alphabet(extra as usize);
        let fd = fd_with_conditions(&ax, 2);
        let u2 = update_chain(&ax, 2);
        let ns = min_point(&mut || {
            std::hint::black_box(fresh_independence(&fd, &u2, None));
        });
        results.push((format!("alphabet/{extra}"), ns, base));
    }
    for (n, base) in [(2u32, 28589u64), (8, 48444), (16, 68406), (32, 183394)] {
        let fd = fd_with_conditions(&a, 2);
        let u2 = update_chain(&a, 2);
        let schema = chain_schema(&a, n as usize);
        let ns = min_point(&mut || {
            std::hint::black_box(fresh_independence(&fd, &u2, Some(&schema)));
        });
        results.push((format!("schema_rules/{n}"), ns, base));
    }
    let mut axis_ratios: std::collections::BTreeMap<&str, Vec<f64>> = Default::default();
    for (name, ns, base) in &results {
        let ratio = *base as f64 / *ns as f64;
        println!("{name:<18} {ns:>8} ns  base {base:>7}  ratio {ratio:.2}");
        let axis = name.split('/').next().unwrap();
        let axis = results
            .iter()
            .find_map(|(n2, _, _)| {
                let a2 = n2.split('/').next().unwrap();
                (a2 == axis).then_some(a2)
            })
            .unwrap();
        axis_ratios.entry(axis).or_default().push(ratio);
    }
    for (axis, mut rs) in axis_ratios {
        rs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = (rs[1] + rs[2]) / 2.0;
        println!("{axis:<18} median ratio {median:.2}");
    }
}

/// Best-of-7 runs of 30 iterations: robust against scheduler noise.
fn min_point(f: &mut dyn FnMut()) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..7 {
        let t = Instant::now();
        for _ in 0..30 {
            f();
        }
        best = best.min(t.elapsed().as_nanos() / 30);
    }
    best
}

fn time_point(name: &str, iters: u32, f: &mut dyn FnMut()) {
    let mut meds = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        meds.push(t.elapsed().as_nanos() / iters as u128);
    }
    meds.sort_unstable();
    println!("{name:<28} {:>9} ns/iter  (min {})", meds[2], meds[0]);
}

fn main() {
    if std::env::args().any(|x| x == "--phases") {
        warm_phases();
        return;
    }
    if std::env::args().any(|x| x == "--pieces") {
        pieces();
        return;
    }
    if std::env::args().any(|x| x == "--metrics") {
        metrics();
        return;
    }
    if std::env::args().any(|x| x == "--grid") {
        grid();
        return;
    }
    if std::env::args().any(|x| x == "--allocs") {
        allocs();
        return;
    }
    let a = regtree_gen::exam_alphabet();
    let fd = fd_with_conditions(&a, 2);
    let u2 = update_chain(&a, 2);
    let schema32 = chain_schema(&a, 32);
    time_point("schema_rules/32", 50, &mut || {
        std::hint::black_box(fresh_independence(&fd, &u2, Some(&schema32)));
    });
    let u9 = update_chain(&a, 9);
    time_point("update_depth/9", 50, &mut || {
        std::hint::black_box(fresh_independence(&fd, &u9, None));
    });
    let fd6 = fd_with_conditions(&a, 6);
    time_point("fd_conditions/6", 50, &mut || {
        std::hint::black_box(fresh_independence(&fd6, &u2, None));
    });
    let a0 = padded_alphabet(0);
    let fd0 = fd_with_conditions(&a0, 2);
    let u0 = update_chain(&a0, 2);
    time_point("alphabet/0", 50, &mut || {
        std::hint::black_box(fresh_independence(&fd0, &u0, None));
    });
    let a800 = padded_alphabet(800);
    let fd8 = fd_with_conditions(&a800, 2);
    let u8x = update_chain(&a800, 2);
    time_point("alphabet/800", 50, &mut || {
        std::hint::black_box(fresh_independence(&fd8, &u8x, None));
    });
}
