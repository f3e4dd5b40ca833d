//! Output checking and the result line.

use std::fmt::Write as _;

/// Failures counted against the attempted requests, by cause.
#[derive(Default, Debug)]
pub struct Check {
    pub attempted: u64,
    /// No response was read.
    pub transport: u64,
    /// A 5xx response (pipeline sheds included) that the twin did not get.
    pub server_errors: u64,
    /// Any other status that differs from the twin's.
    pub mismatches: u64,
    /// Failed checks other than per-request statuses (store row counts,
    /// direct layer calls).
    pub errors: Vec<String>,
    /// The first few failed requests, by stream position.
    pub examples: Vec<String>,
}

/// Failed requests named in the summary line.
const EXAMPLES: usize = 5;

impl Check {
    /// Compare one pass's statuses with the twin's, position by position.
    pub fn statuses(&mut self, got: impl IntoIterator<Item = Option<u16>>, expected: &[u16]) {
        let mut n = 0;
        for (i, (got, &want)) in got.into_iter().zip(expected).enumerate() {
            n += 1;
            self.attempted += 1;
            match got {
                None => self.transport += 1,
                Some(s) if s == want => continue,
                Some(s) if s >= 500 => self.server_errors += 1,
                Some(_) => self.mismatches += 1,
            }
            if self.examples.len() < EXAMPLES {
                self.examples.push(format!("#{i} got {got:?} expected {want}"));
            }
        }
        assert_eq!(
            n,
            expected.len(),
            "a pass answered a different number of requests"
        );
    }

    /// Require `got == want`.
    pub fn equal(&mut self, what: &str, got: usize, want: usize) {
        if got != want {
            self.errors.push(format!("{what}: {got}, expected {want}"));
        }
    }

    pub fn error(&mut self, what: String) {
        self.errors.push(what);
    }

    pub fn failed(&self) -> u64 {
        self.transport + self.server_errors + self.mismatches
    }

    pub fn correct(&self) -> bool {
        self.failed() == 0 && self.errors.is_empty()
    }

    /// One human-readable line on the failing share and its causes.
    pub fn summary(&self) -> String {
        let rate = self.failed() as f64 / self.attempted.max(1) as f64;
        format!(
            "check: attempted={} failed={} error_rate={rate} transport={} 5xx={} status_mismatch={} other={} first_failed={}",
            self.attempted,
            self.failed(),
            self.transport,
            self.server_errors,
            self.mismatches,
            if self.errors.is_empty() { "none".to_string() } else { self.errors.join("; ") },
            if self.examples.is_empty() { "none".to_string() } else { self.examples.join("; ") },
        )
    }
}

/// Named metrics in output order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`.
    pub fn result_line(&self, check: &Check) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            check.correct(),
            check.attempted.max(1),
            check.failed()
        );
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .unwrap();
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statuses_are_classified() {
        let mut c = Check::default();
        c.statuses(
            [Some(200), None, Some(503), Some(403)],
            &[200, 200, 200, 200],
        );
        assert_eq!(
            (c.attempted, c.transport, c.server_errors, c.mismatches),
            (4, 1, 1, 1)
        );
        assert!(!c.correct());
    }

    #[test]
    fn result_line_shape() {
        let mut m = Metrics::default();
        m.put("latency_p50_us", 312.5, "us");
        m.put("setup_s", 1.0, "s");
        let c = Check {
            attempted: 10,
            ..Check::default()
        };
        assert_eq!(
            m.result_line(&c),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\
             \"latency_p50_us\": {\"value\": 312.5, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}}}"
        );
    }
}
