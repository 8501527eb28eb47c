//! The repository's `BENCHMARK.json`, compiled in: metric names,
//! units, directions and regression bounds have one source, and a
//! change to that file rebuilds the benchmark.

use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the baseline by which the metric may worsen (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// How much worse `new` is than `base`, as a share of `base`;
    /// negative when `new` is better.
    pub fn worsening(&self, base: f64, new: f64) -> f64 {
        let change = (new - base) / base.abs();
        if self.lower_is_better {
            change
        } else {
            -change
        }
    }

    /// Whether `new` is worse than `base` by more than the bound.
    pub fn regressed(&self, base: f64, new: f64) -> bool {
        let w = self.worsening(base, new);
        self.bound.is_some_and(|b| w.is_nan() || w > b)
    }
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The compiled-in `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        Spec::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))
    }

    fn parse(src: &str) -> Result<Spec, String> {
        let v = json::parse(src)?;
        let list = |key: &str| -> Result<&[Value], String> {
            v.get(key)
                .and_then(Value::as_array)
                .ok_or(format!("`{key}` is not a list"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .ok_or(format!("a `{key}` entry lacks `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let run_seconds = v
            .get("run_seconds")
            .and_then(Value::as_f64)
            .ok_or("`run_seconds` is missing")?;
        Ok(Spec {
            run_seconds: run_seconds as u64,
            workloads: list("workloads")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower: bool, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            lower_is_better: lower,
            bound: Some(bound),
        }
    }

    #[test]
    fn bound_check_knows_the_direction() {
        let lower = metric(true, 0.1);
        assert!(!lower.regressed(100.0, 109.9));
        assert!(lower.regressed(100.0, 110.1));
        assert!(!lower.regressed(100.0, 50.0));
        let higher = metric(false, 0.1);
        assert!(!higher.regressed(2.0, 1.81));
        assert!(higher.regressed(2.0, 1.79));
        assert!(!higher.regressed(2.0, 4.0));
        // A missing value never passes.
        assert!(lower.regressed(100.0, f64::NAN));
        // Metrics without a bound never regress.
        let free = MetricSpec {
            bound: None,
            ..lower
        };
        assert!(!free.regressed(1.0, 1e9));
    }

    #[test]
    fn benchmark_json_is_well_formed() {
        let s = Spec::load().unwrap();
        assert_eq!(s.workloads, ["full_pass", "corridor", "tag_design"]);
        assert!((1..=60).contains(&s.run_seconds));
        let setup = s.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        for m in &s.end_to_end {
            let b = m.bound.unwrap();
            assert!(
                b > 0.0 && b <= setup.bound.unwrap() && b <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
