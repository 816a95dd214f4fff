//! `--compare A B`: two sets of result lines (a base and a candidate),
//! judged metric by metric and workload by workload against the bounds
//! `BENCHMARK.json` fixes.

use crate::json::Json;
use crate::metrics::valid_name;
use crate::stats::quartiles;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// The judgement of one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is not worse than the base's by more than
    /// the bound.
    Pass,
    /// It is worse by more than the bound.
    Fail,
    /// A side's run-to-run spread is wider than the bound (or it has
    /// fewer than two runs), so the medians cannot be told apart.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Pass => "PASS",
            Verdict::Fail => "FAIL",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// What a bound is a share of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The base median: a bound of 0.1 allows 10% worse.
    Relative,
    /// The metric's own unit, for rates: a bound of 0.02 allows an
    /// in-deadline rate of 0.99 to fall to 0.97.
    Absolute,
}

impl Scale {
    /// The scale of a metric in `unit`: rates (`ratio`) are absolute.
    pub fn of(unit: &str) -> Scale {
        if unit == "ratio" {
            Scale::Absolute
        } else {
            Scale::Relative
        }
    }
}

/// Judge `candidate` runs against `base` runs of one metric. A spread is
/// the quartile distance, on the bound's scale; when either spread
/// exceeds `bound` the result is unresolved, unless every candidate run
/// is better than every base run.
pub fn verdict(
    base: &[f64],
    candidate: &[f64],
    better: Better,
    bound: f64,
    scale: Scale,
) -> Verdict {
    let (Some((b1, b2, b3)), Some((c1, c2, c3))) = (quartiles(base), quartiles(candidate)) else {
        return Verdict::Unresolved;
    };
    let share = |delta: f64, median: f64| match scale {
        Scale::Relative => delta / median.abs(),
        Scale::Absolute => delta,
    };
    if scale == Scale::Relative && (b2 == 0.0 || c2 == 0.0) {
        return Verdict::Unresolved;
    }
    let improves = |c: f64, b: f64| match better {
        Better::Lower => c < b,
        Better::Higher => c > b,
    };
    if share(b3 - b1, b2) > bound || share(c3 - c1, c2) > bound {
        let all_better = candidate
            .iter()
            .all(|&c| base.iter().all(|&b| improves(c, b)));
        return if all_better {
            Verdict::Pass
        } else {
            Verdict::Unresolved
        };
    }
    let worse = match better {
        Better::Lower => share(c2 - b2, b2),
        Better::Higher => share(b2 - c2, b2),
    };
    if worse > bound {
        Verdict::Fail
    } else {
        Verdict::Pass
    }
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
struct Declared {
    name: String,
    unit: String,
    better: Better,
    /// `None` for per-layer metrics.
    bound: Option<f64>,
}

/// `(workload, metric name, value)` of every metric of every run.
type Values = Vec<(String, String, f64)>;

fn declarations(benchmark: &Json) -> Result<(Vec<String>, Vec<Declared>), String> {
    let workloads = benchmark
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no workloads")?
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "a workload has no name".to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mut metrics = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for entry in benchmark
            .get(key)
            .and_then(Json::as_array)
            .ok_or(format!("BENCHMARK.json has no {key}"))?
        {
            let field = |name: &str| {
                entry
                    .get(name)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("a {key} metric has no {name}"))
            };
            let better = match field("better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction '{other}'")),
            };
            let bound = if key == "end_to_end" {
                Some(
                    entry
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("an end_to_end metric has no bound")?,
                )
            } else {
                None
            };
            metrics.push(Declared {
                name: field("name")?,
                unit: field("unit")?,
                better,
                bound,
            });
        }
    }
    Ok((workloads, metrics))
}

/// Read result lines (`{"workload": …, "result": {"metrics": …}}`, one
/// per line), checking every name against the declarations.
fn values(text: &str, workloads: &[String], metrics: &[Declared]) -> Result<Values, String> {
    let mut out = Vec::new();
    for (number, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |what: String| format!("line {}: {what}", number + 1);
        let json = Json::parse(line).map_err(at)?;
        let workload = json
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| at("no workload".into()))?;
        if !valid_name(workload) || !workloads.iter().any(|w| w == workload) {
            return Err(at(format!("undeclared workload '{workload}'")));
        }
        let emitted = json
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_object)
            .ok_or_else(|| at("no result metrics".into()))?;
        for (name, metric) in emitted {
            if !valid_name(name) {
                return Err(at(format!("metric name '{name}' is not [A-Za-z0-9_.-]+")));
            }
            let declared = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| at(format!("undeclared metric '{name}'")))?;
            let unit = metric.get("unit").and_then(Json::as_str);
            if unit != Some(declared.unit.as_str()) {
                return Err(at(format!(
                    "metric '{name}' has unit {unit:?}, declared '{}'",
                    declared.unit
                )));
            }
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| at(format!("metric '{name}' has no value")))?;
            out.push((workload.to_string(), name.clone(), value));
        }
    }
    Ok(out)
}

/// Compare two result sets. Returns the printed table and whether every
/// end-to-end metric passed on every workload both sets ran.
pub fn compare(benchmark: &str, base: &str, candidate: &str) -> Result<(String, bool), String> {
    let benchmark = Json::parse(benchmark).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let (workloads, metrics) = declarations(&benchmark)?;
    let base = values(base, &workloads, &metrics).map_err(|e| format!("base: {e}"))?;
    let candidate =
        values(candidate, &workloads, &metrics).map_err(|e| format!("candidate: {e}"))?;
    let pick = |set: &Values, workload: &str, metric: &str| -> Vec<f64> {
        set.iter()
            .filter(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, v)| *v)
            .collect()
    };
    let summary = |values: &[f64]| match quartiles(values) {
        Some((q1, q2, q3)) => format!("{q2:>12.4} [{q1:.4}, {q3:.4}] n={}", values.len()),
        None => format!("{:>12} n={}", "-", values.len()),
    };
    let mut table = String::new();
    let mut all_pass = true;
    table.push_str(&format!(
        "{:<17} {:<30} {:>8} | {:<40} | {:<40} | {:>8} {}\n",
        "workload",
        "metric",
        "unit",
        "base median [q1, q3]",
        "candidate median [q1, q3]",
        "change",
        "verdict"
    ));
    for workload in &workloads {
        for metric in &metrics {
            let (b, c) = (
                pick(&base, workload, &metric.name),
                pick(&candidate, workload, &metric.name),
            );
            if b.is_empty() && c.is_empty() {
                continue;
            }
            let change = match (quartiles(&b), quartiles(&c)) {
                (Some((_, mb, _)), Some((_, mc, _))) if mb != 0.0 => {
                    format!("{:+.1}%", (mc - mb) / mb.abs() * 100.0)
                }
                _ => "-".to_string(),
            };
            let judged = match metric.bound {
                Some(bound) => {
                    let scale = Scale::of(&metric.unit);
                    let v = verdict(&b, &c, metric.better, bound, scale);
                    all_pass &= v == Verdict::Pass;
                    let kind = match scale {
                        Scale::Relative => "",
                        Scale::Absolute => " absolute",
                    };
                    format!("{} (bound {bound}{kind})", v.word())
                }
                None => "-".to_string(),
            };
            table.push_str(&format!(
                "{:<17} {:<30} {:>8} | {:<40} | {:<40} | {:>8} {}\n",
                workload,
                metric.name,
                metric.unit,
                summary(&b),
                summary(&c),
                change,
                judged
            ));
        }
    }
    Ok((table, all_pass))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK: &str = r#"{
        "workloads": [{"name": "w", "why": "test"}],
        "end_to_end": [
            {"name": "p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "rate", "unit": "ratio", "better": "higher", "bound": 0.05}
        ],
        "per_layer": [{"name": "layer.x", "unit": "us", "better": "lower"}]
    }"#;

    fn lines(p50: &[f64], rate: f64) -> String {
        p50.iter()
            .map(|v| {
                format!(
                    "{{\"workload\": \"w\", \"result\": {{\"correct\": true, \"attempted\": 1, \
                     \"failed\": 0, \"metrics\": {{\"p50_ms\": {{\"value\": {v}, \"unit\": \"ms\"}}, \
                     \"rate\": {{\"value\": {rate}, \"unit\": \"ratio\"}}}}}}}}\n"
                )
            })
            .collect()
    }

    const REL: Scale = Scale::Relative;

    #[test]
    fn a_metric_worse_past_its_bound_fails() {
        let base = [10.0, 10.1, 9.9, 10.05, 9.95];
        let worse = [11.5, 11.6, 11.4, 11.55, 11.45];
        assert_eq!(
            verdict(&base, &worse, Better::Lower, 0.1, REL),
            Verdict::Fail
        );
        assert_eq!(
            verdict(&base, &base, Better::Lower, 0.1, REL),
            Verdict::Pass
        );
        // Within the bound passes; for a higher-is-better metric the
        // same move is an improvement.
        let slightly = [10.5, 10.6, 10.4, 10.55, 10.45];
        assert_eq!(
            verdict(&base, &slightly, Better::Lower, 0.1, REL),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&base, &worse, Better::Higher, 0.1, REL),
            Verdict::Pass
        );

        let (table, all_pass) =
            compare(BENCHMARK, &lines(&base, 0.99), &lines(&worse, 0.99)).unwrap();
        assert!(!all_pass);
        assert!(table.contains("FAIL"), "{table}");
    }

    /// Rates are bounded in their own unit: nine responds in a hundred
    /// newly missing the deadline fail a bound of 0.05 whether the base
    /// rate is 1.0 or 0.82.
    #[test]
    fn a_rate_is_bounded_absolutely() {
        assert_eq!(Scale::of("ratio"), Scale::Absolute);
        assert_eq!(Scale::of("ms"), Scale::Relative);
        let abs = Scale::Absolute;
        for (base, worse) in [(1.0, 0.91), (0.82, 0.73)] {
            let base = [base; 5];
            let worse = [worse; 5];
            assert_eq!(
                verdict(&base, &worse, Better::Higher, 0.05, abs),
                Verdict::Fail
            );
        }
        assert_eq!(
            verdict(&[1.0; 5], &[0.96; 5], Better::Higher, 0.05, abs),
            Verdict::Pass
        );
        // A rate of zero still compares.
        assert_eq!(
            verdict(&[0.0; 5], &[0.0; 5], Better::Higher, 0.05, abs),
            Verdict::Pass
        );
        // Quartiles 0.78 and 0.86: a spread of 0.08 is wider than 0.05.
        let noisy = [0.78, 0.86, 0.78, 0.86, 0.82];
        assert_eq!(
            verdict(&noisy, &noisy, Better::Higher, 0.05, abs),
            Verdict::Unresolved
        );
        let (table, all_pass) =
            compare(BENCHMARK, &lines(&[1.0; 5], 1.0), &lines(&[1.0; 5], 0.91)).unwrap();
        assert!(!all_pass);
        assert!(table.contains("FAIL (bound 0.05 absolute)"), "{table}");
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let base = [10.0, 14.0, 7.0, 12.0, 9.0];
        let candidate = [11.0, 15.0, 8.0, 13.0, 10.0];
        assert_eq!(
            verdict(&base, &candidate, Better::Lower, 0.1, REL),
            Verdict::Unresolved
        );
        // ... unless every candidate run beats every base run.
        let faster = [1.0, 1.4, 0.7, 1.2, 0.9];
        assert_eq!(
            verdict(&base, &faster, Better::Lower, 0.1, REL),
            Verdict::Pass
        );
        assert_eq!(
            verdict(&[1.0], &[1.0], Better::Lower, 0.1, REL),
            Verdict::Unresolved
        );
        let (table, all_pass) =
            compare(BENCHMARK, &lines(&base, 0.9), &lines(&candidate, 0.9)).unwrap();
        assert!(!all_pass);
        assert!(table.contains("UNRESOLVED"), "{table}");
    }

    #[test]
    fn undeclared_or_malformed_names_are_rejected() {
        let good = lines(&[1.0, 1.0], 1.0);
        assert!(compare(BENCHMARK, &good, &good).unwrap().1);
        let undeclared = good.replace("\"rate\"", "\"speed\"");
        assert!(compare(BENCHMARK, &good, &undeclared)
            .unwrap_err()
            .contains("undeclared metric 'speed'"));
        let malformed = good.replace("\"rate\"", "\"ra te\"");
        assert!(compare(BENCHMARK, &malformed, &good)
            .unwrap_err()
            .contains("is not [A-Za-z0-9_.-]+"));
        let unit = good.replace("\"ratio\"", "\"%\"");
        assert!(compare(BENCHMARK, &good, &unit)
            .unwrap_err()
            .contains("unit"));
        let workload = good.replace("\"w\"", "\"v\"");
        assert!(compare(BENCHMARK, &workload, &good)
            .unwrap_err()
            .contains("undeclared workload"));
    }
}
