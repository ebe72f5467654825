//! `--compare A.json B.json`: holds two result files against the
//! benchmark's own bounds.
//!
//! One row per (metric, workload): both medians, the ratio with its base
//! (B ÷ A), and a verdict. Digests and exact metrics must be equal. A
//! timed metric is `regressed` when B's median is worse than A's by more
//! than the bound. Where either side's own spread (IQR ÷ median) is wider
//! than the bound the medians cannot tell, and the row is `unresolved` —
//! unless every run of B beats every run of A (`ok`), or every run of B
//! loses to every run of A and the medians differ by more than the bound
//! (`regressed`).

use std::fmt::Write as _;

use crate::json::Json;
use crate::metrics::{end_to_end, Better};
use crate::stats::Summary;

/// A row's verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or exactly equal).
    Ok,
    /// Worse than the bound allows, or an exact value differs.
    Regressed,
    /// The spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The comparison's outcome.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// The rendered table.
    pub table: String,
    /// Rows with each verdict: `(ok, regressed, unresolved)`.
    pub counts: (usize, usize, usize),
}

/// One side of a row: a metric's summary as a result file holds it
/// (exact metrics and single samples carry only `value`).
fn side(metric: &Json) -> Option<Summary> {
    let median = metric.get("value")?.as_f64()?;
    let field = |name: &str| metric.get(name).and_then(Json::as_f64).unwrap_or(median);
    Some(Summary {
        median,
        p25: field("p25"),
        p75: field("p75"),
        min: field("min"),
        max: field("max"),
        n: field("n") as usize,
    })
}

/// Judges one timed metric.
fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let (worse_by, b_loses_every_run, b_wins_every_run) = match better {
        Better::Lower => (b.median - a.median, b.min > a.max, b.max < a.min),
        Better::Higher => (a.median - b.median, b.max < a.min, b.min > a.max),
    };
    let beyond_bound = worse_by / a.median.abs() > bound;
    if a.rel_iqr().max(b.rel_iqr()) <= bound {
        return if beyond_bound {
            Verdict::Regressed
        } else {
            Verdict::Ok
        };
    }
    // The medians cannot tell; runs that do not overlap can.
    if b_wins_every_run {
        Verdict::Ok
    } else if b_loses_every_run && beyond_bound {
        Verdict::Regressed
    } else {
        Verdict::Unresolved
    }
}

fn name_of(workload: &Json) -> Result<&str, String> {
    workload
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| "a workload entry has no name".to_owned())
}

fn end_to_end_of<'a>(
    side: &str,
    name: &str,
    workload: &'a Json,
) -> Result<&'a [(String, Json)], String> {
    workload
        .get("end_to_end")
        .and_then(Json::as_obj)
        .ok_or_else(|| format!("{side}: `{name}` has no end_to_end block"))
}

fn workloads(doc: &Json) -> Result<&[Json], String> {
    doc.get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(|| "not a perfbench result file: no `workloads` array".to_owned())
}

/// Compares result file `a` (the base) with `b`.
///
/// # Errors
///
/// Either document is not a perfbench result file, or they do not hold
/// the same workloads and metrics.
pub fn compare(a: &Json, b: &Json) -> Result<Comparison, String> {
    let mut table = format!(
        "{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A", "B", "B/A", "bound"
    );
    let mut counts = (0, 0, 0);
    let mut row = |table: &mut String,
                   workload: &str,
                   metric: &str,
                   (a, b): (&str, &str),
                   ratio: Option<f64>,
                   bound: f64,
                   verdict: Verdict| {
        match verdict {
            Verdict::Ok => counts.0 += 1,
            Verdict::Regressed => counts.1 += 1,
            Verdict::Unresolved => counts.2 += 1,
        }
        let ratio = ratio.map_or_else(|| "-".to_owned(), |r| format!("{r:.4}"));
        let _ = writeln!(
            table,
            "{workload:<18} {metric:<24} {a:>14} {b:>14} {ratio:>9} {bound:>7.2}  {}",
            verdict.as_str()
        );
    };

    let (a_workloads, b_workloads) = (workloads(a)?, workloads(b)?);
    for wb in b_workloads {
        let name = name_of(wb)?;
        if !a_workloads.iter().any(|w| name_of(w) == Ok(name)) {
            return Err(format!("A has no workload `{name}`"));
        }
    }
    for wa in a_workloads {
        let name = name_of(wa)?;
        let wb = b_workloads
            .iter()
            .find(|w| name_of(w) == Ok(name))
            .ok_or_else(|| format!("B has no workload `{name}`"))?;

        let digest = |w: &Json| {
            w.get("digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_owned()
        };
        let (da, db) = (digest(wa), digest(wb));
        let verdict = if da == db {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
        row(&mut table, name, "digest", (&da, &db), None, 0.0, verdict);

        let metrics_a = end_to_end_of("A", name, wa)?;
        for (metric, _) in end_to_end_of("B", name, wb)? {
            if !metrics_a.iter().any(|(m, _)| m == metric) {
                return Err(format!("A: {name}/{metric} is missing"));
            }
        }
        for (metric, value_a) in metrics_a {
            let spec = end_to_end(metric).ok_or_else(|| format!("unknown metric `{metric}`"))?;
            let sa = side(value_a).ok_or_else(|| format!("A: {name}/{metric} has no value"))?;
            let sb = wb
                .get("end_to_end")
                .and_then(|block| block.get(metric))
                .and_then(side)
                .ok_or_else(|| format!("B: {name}/{metric} is missing"))?;
            let bound = spec.bound_for(name);
            let verdict = if !spec.timed() {
                if sa.median == sb.median {
                    Verdict::Ok
                } else {
                    Verdict::Regressed
                }
            } else {
                judge(&sa, &sb, spec.better, bound)
            };
            row(
                &mut table,
                name,
                metric,
                (&format!("{:.6}", sa.median), &format!("{:.6}", sb.median)),
                Some(sb.median / sa.median),
                bound,
                verdict,
            );
        }
    }
    let _ = writeln!(
        table,
        "{} ok, {} regressed, {} unresolved (B/A: base is A; bound is the share of A's median \
         a metric may worsen by, 0 = must be equal)",
        counts.0, counts.1, counts.2
    );
    Ok(Comparison { table, counts })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(median: f64, p25: f64, p75: f64, min: f64, max: f64) -> Summary {
        Summary {
            median,
            p25,
            p75,
            min,
            max,
            n: 5,
        }
    }

    #[test]
    fn timed_verdicts() {
        let a = s(1.00, 0.99, 1.01, 0.98, 1.02);
        // 3 % slower under a 5 % bound.
        assert_eq!(
            judge(&a, &s(1.03, 1.02, 1.04, 1.01, 1.05), Better::Lower, 0.05),
            Verdict::Ok
        );
        // 8 % slower.
        assert_eq!(
            judge(&a, &s(1.08, 1.07, 1.09, 1.06, 1.10), Better::Lower, 0.05),
            Verdict::Regressed
        );
        // Faster is never a regression.
        assert_eq!(
            judge(&a, &s(0.50, 0.49, 0.51, 0.48, 0.52), Better::Lower, 0.05),
            Verdict::Ok
        );
        // For a higher-is-better metric the direction flips.
        assert_eq!(
            judge(&a, &s(0.90, 0.89, 0.91, 0.88, 0.92), Better::Higher, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&a, &s(1.20, 1.19, 1.21, 1.18, 1.22), Better::Higher, 0.05),
            Verdict::Ok
        );
        // A spread wider than the bound cannot resolve a small difference…
        let noisy = s(1.00, 0.90, 1.10, 0.80, 1.20);
        assert_eq!(
            judge(
                &noisy,
                &s(1.01, 1.00, 1.02, 0.99, 1.03),
                Better::Lower,
                0.05
            ),
            Verdict::Unresolved
        );
        assert_eq!(judge(&a, &noisy, Better::Lower, 0.05), Verdict::Unresolved);
        // …unless every run of one side beats every run of the other.
        let fast = s(0.70, 0.69, 0.71, 0.68, 0.72);
        assert_eq!(judge(&noisy, &fast, Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&fast, &noisy, Better::Lower, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(&noisy, &fast, Better::Higher, 0.05),
            Verdict::Regressed
        );
        // A single measurement has no spread: only the bound speaks.
        let (one, more) = (Summary::exact(35.6), Summary::exact(35.9));
        assert_eq!(judge(&one, &more, Better::Lower, 0.05), Verdict::Ok);
        assert_eq!(
            judge(&one, &Summary::exact(38.0), Better::Lower, 0.05),
            Verdict::Regressed
        );
    }
}
