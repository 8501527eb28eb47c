//! Report rendering: the human console report. A pure string builder —
//! the driver decides where it goes.

use std::collections::BTreeMap;

use crate::rules::{Finding, RULES};

/// Renders the human console report: every finding in full, then the
/// per-rule count table and the verdict line.
pub fn human_report(findings: &[Finding], n_files: usize) -> String {
    let mut s = String::new();
    for f in findings {
        s.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.file, f.line, f.rule, f.message
        ));
    }

    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_default() += 1;
    }
    if !counts.is_empty() {
        s.push_str(&format!("\n{:<22} {:>6}\n", "rule", "found"));
        for r in RULES {
            if let Some(n) = counts.get(r.id) {
                s.push_str(&format!("{:<22} {n:>6}\n", r.id));
            }
        }
    }

    if findings.is_empty() {
        s.push_str(&format!("\nros-lint: {n_files} files clean\n"));
    } else {
        s.push_str(&format!(
            "\nros-lint: {} violation(s) in {n_files} files scanned\n",
            findings.len()
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn human_report_shows_new_debt_and_verdict() {
        let findings = vec![
            Finding {
                rule: "dead-pub",
                file: "crates/a/src/x.rs".to_string(),
                line: 3,
                message: "pub fn `orphan` is never referenced outside `a`".to_string(),
            },
            Finding {
                rule: "typed-conversions",
                file: "crates/b/src/y.rs".to_string(),
                line: 9,
                message: "inline `10f64.powf(` conversion".to_string(),
            },
        ];
        let r = human_report(&findings, 42);
        assert!(r.contains("crates/a/src/x.rs:3: [dead-pub]"));
        assert!(r.contains("crates/b/src/y.rs:9: [typed-conversions]"));
        assert!(r.contains("2 violation(s) in 42 files"));

        let r = human_report(&[], 7);
        assert!(r.contains("7 files clean"));
        assert!(!r.contains("found"), "no table without findings: {r}");
    }
}
