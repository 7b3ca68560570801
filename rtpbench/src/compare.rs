//! `rtpbench compare A.json B.json`: each workload and end-to-end metric
//! of run set B judged against run set A with the bounds of
//! `BENCHMARK.json`.

use regtree_core::api::Json;

use crate::stats::{median, quartiles, relative_spread};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    Unresolved,
}

/// Judges B against A for one metric. `bound` is the share of A's median
/// by which B may be worse.
///
/// * Where either side's quartile spread (as a share of its median) is
///   wider than the bound, the change cannot be resolved, unless every run
///   of B reads better than every run of A.
/// * Otherwise B is worse when its median is worse by more than the bound,
///   and better when its median is better by more than A's own quartile
///   spread and B beats A in at least nine tenths of all pairs of runs.
pub fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let beats = |x: f64, y: f64| sign * (x - y) < 0.0;
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if relative_spread(a).max(relative_spread(b)) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    let worse_by = sign * (mb - ma) / ma.abs();
    let wins = b
        .iter()
        .flat_map(|&y| a.iter().map(move |&x| beats(y, x)))
        .filter(|w| *w)
        .count();
    let (q1, q3) = quartiles(a);
    if worse_by > bound {
        Verdict::Worse
    } else if -sign * (mb - ma) > q3 - q1 && wins * 10 >= a.len() * b.len() * 9 {
        Verdict::Better
    } else {
        Verdict::Within
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn runs(results: &Json) -> &[Json] {
    results.get("runs").and_then(Json::as_array).unwrap_or(&[])
}

/// Every value of `metric` on `workload` in a results file.
fn values(results: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(results)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| {
            r.get("result")?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn failed(results: &Json, workload: &str) -> u64 {
    runs(results)
        .iter()
        .filter(|r| r.get("workload").and_then(Json::as_str) == Some(workload))
        .filter_map(|r| r.get("result")?.get("failed")?.as_u64())
        .sum()
}

/// Prints one row per workload and metric; returns whether anything is
/// worse.
pub fn compare(a_path: &str, b_path: &str, bounds_path: &str) -> Result<bool, String> {
    let (a, b, bench) = (load(a_path)?, load(b_path)?, load(bounds_path)?);
    let workloads: Vec<&str> = bench
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json lists no workloads")?
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    let metrics = bench
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json lists no end_to_end metrics")?;
    println!(
        "{:<14} {:<20} {:>28} {:>28} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change"
    );
    let mut any_worse = false;
    for w in workloads {
        for m in metrics {
            let name = m.get("name").and_then(Json::as_str).unwrap_or("");
            let lower = m.get("better").and_then(Json::as_str) == Some("lower");
            let bound = m.get("bound").and_then(Json::as_f64).unwrap_or(0.0);
            let (va, vb) = (values(&a, w, name), values(&b, w, name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let verdict = judge(&va, &vb, lower, bound);
            any_worse |= verdict == Verdict::Worse;
            let side = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{q1:.4}, {q3:.4}] ({})", median(v), v.len())
            };
            let change = (median(&vb) / median(&va) - 1.0) * 100.0;
            println!(
                "{w:<14} {name:<20} {:>28} {:>28} {change:>+7.2}%  {verdict:?}",
                side(&va),
                side(&vb)
            );
        }
        let (fa, fb) = (failed(&a, w), failed(&b, w));
        let verdict = if fb > fa {
            Verdict::Worse
        } else {
            Verdict::Within
        };
        any_worse |= verdict == Verdict::Worse;
        println!(
            "{w:<14} {:<20} {fa:>28} {fb:>28} {:>8}  {verdict:?}",
            "failed_ops", ""
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_follows_bounds_and_spread() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        // A small shift inside the bound.
        assert_eq!(
            judge(&a, &[10.1, 10.2, 10.0, 10.1, 10.15], true, 0.05),
            Verdict::Within
        );
        // Worse by more than the bound.
        assert_eq!(
            judge(&a, &[11.0, 11.1, 10.9, 11.0, 11.05], true, 0.05),
            Verdict::Worse
        );
        // Clearly better, for a lower-is-better and a higher-is-better metric.
        let b = [9.0, 9.1, 8.9, 9.0, 9.05];
        assert_eq!(judge(&a, &b, true, 0.05), Verdict::Better);
        assert_eq!(judge(&a, &b, false, 0.05), Verdict::Worse);
        // Spread wider than the bound: unresolved unless every run wins.
        let noisy = [5.0, 15.0, 10.0, 8.0, 12.0];
        assert_eq!(judge(&a, &noisy, true, 0.05), Verdict::Unresolved);
        assert_eq!(judge(&noisy, &[1.0, 2.0], true, 0.05), Verdict::Better);
    }
}
