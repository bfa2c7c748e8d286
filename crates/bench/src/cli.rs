//! Shared scaffolding for the `harness = false` bench binaries: flag parsing
//! and [`JsonReport`], which records each metric with its declared [`Kind`],
//! runs the bench's gates and writes the machine-readable `--json` report —
//! kept in one place so the bench binaries cannot drift apart.

use std::fmt::Write as _;

/// Parses `--flag value` or `--flag=value`; exits with a diagnostic on a malformed
/// value rather than silently benchmarking a different configuration.
#[must_use]
pub fn parse_flag(args: &[String], flag: &str, default: usize) -> usize {
    for (i, arg) in args.iter().enumerate() {
        let value = if arg == flag {
            args.get(i + 1).map(String::as_str)
        } else if let Some(rest) = arg.strip_prefix(flag) {
            rest.strip_prefix('=')
        } else {
            continue;
        };
        return match value.map(str::parse) {
            Some(Ok(parsed)) => parsed,
            _ => {
                eprintln!("error: {flag} requires a numeric value (got {value:?})");
                std::process::exit(2);
            }
        };
    }
    default
}

/// Parses the `--json <path>` / `--json=<path>` flag: when present, the bench
/// writes its machine-readable report there ([`JsonReport::write`]). Exits with
/// a diagnostic on a missing value.
#[must_use]
pub fn parse_json_flag(args: &[String]) -> Option<String> {
    for (i, arg) in args.iter().enumerate() {
        let value = if arg == "--json" {
            args.get(i + 1).map(String::as_str)
        } else if let Some(rest) = arg.strip_prefix("--json=") {
            Some(rest)
        } else {
            continue;
        };
        return match value {
            Some(path) if !path.is_empty() && !path.starts_with("--") => Some(path.to_string()),
            _ => {
                eprintln!("error: --json requires a file path");
                std::process::exit(2);
            }
        };
    }
    None
}

/// What a recorded metric measures, declared where the bench records it. The
/// bench's own gates and the trajectory comparator both read this declaration;
/// nothing infers a metric's kind from its key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A count of bad events (mismatches, leaks, violations): any rise is a
    /// failure, whatever its size.
    Correctness,
    /// A nanosecond timing: lower is better, and a move under the comparator's
    /// 1 µs timing floor is jitter.
    LowerNs,
    /// Lower is better (ratios and other costs that are not nanoseconds).
    Lower,
    /// Higher is better (throughputs, speedups, hit rates).
    Higher,
    /// Workload shape, spreads and observability exports: reported, never judged.
    Info,
}

impl Kind {
    const ALL: [Kind; 5] = [
        Kind::Correctness,
        Kind::LowerNs,
        Kind::Lower,
        Kind::Higher,
        Kind::Info,
    ];

    /// The name the rendered report's `"kinds"` object uses.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Kind::Correctness => "correctness",
            Kind::LowerNs => "lower_ns",
            Kind::Lower => "lower",
            Kind::Higher => "higher",
            Kind::Info => "info",
        }
    }

    /// Reads a name written by [`Kind::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// A recorded number: integers render exactly, floats with three decimals
/// (non-finite floats as `null`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count or an integer nanosecond figure.
    Int(u64),
    /// A rate, ratio or averaged figure.
    Float(f64),
}

impl From<u64> for Value {
    fn from(value: u64) -> Self {
        Value::Int(value)
    }
}

impl From<usize> for Value {
    fn from(value: usize) -> Self {
        Value::Int(value as u64)
    }
}

impl From<f64> for Value {
    fn from(value: f64) -> Self {
        Value::Float(value)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Int(value) => write!(f, "{value}"),
            Value::Float(value) if value.is_finite() => write!(f, "{value:.3}"),
            Value::Float(_) => f.write_str("null"),
        }
    }
}

/// A flat machine-readable bench report that also owns the bench's pass/fail
/// state. Every recorded metric carries its [`Kind`]; the rendered JSON is
/// `{"bench": ..., "results": {key: value}, "kinds": {key: kind}}`, with
/// `info` keys left out of `"kinds"`. CI merges the reports into the
/// `BENCH_<PR>.json` perf trajectory that later PRs diff and gate against.
#[derive(Debug, Clone)]
pub struct JsonReport {
    bench: String,
    fields: Vec<(String, String)>,
    kinds: Vec<(String, Kind)>,
    failed: bool,
}

impl JsonReport {
    /// Starts a report for the named bench binary.
    #[must_use]
    pub fn new(bench: &str) -> Self {
        JsonReport {
            bench: bench.to_string(),
            fields: Vec::new(),
            kinds: Vec::new(),
            failed: false,
        }
    }

    fn push(&mut self, kind: Kind, key: &str, rendered: String) -> &mut Self {
        if kind != Kind::Info {
            self.kinds.push((key.to_string(), kind));
        }
        self.fields.push((key.to_string(), rendered));
        self
    }

    /// Records a numeric result of the given kind.
    pub fn record(&mut self, kind: Kind, key: &str, value: impl Into<Value>) -> &mut Self {
        self.push(kind, key, value.into().to_string())
    }

    /// Records a gate verdict; any `true -> false` move fails the trajectory.
    pub fn flag(&mut self, key: &str, value: bool) -> &mut Self {
        self.push(Kind::Correctness, key, value.to_string())
    }

    /// Records `{key}_spread`, the max−min of `key` across a bench's repeats,
    /// as [`Kind::Info`]; the trajectory comparator derives `key`'s noise floor
    /// from it.
    pub fn spread(&mut self, key: &str, value: impl Into<Value>) -> &mut Self {
        self.record(Kind::Info, &format!("{key}_spread"), value)
    }

    /// Records a correctness counter that must be zero, and fails the report
    /// when it is not.
    pub fn zero(&mut self, key: &str, count: impl Into<Value>) -> &mut Self {
        let count = count.into();
        if count != Value::Int(0) {
            eprintln!("FAIL: {key} = {count} (gate: 0)");
            self.failed = true;
        }
        self.record(Kind::Correctness, key, count)
    }

    /// A threshold gate: prints `ok: {what}` when `ok` holds, otherwise
    /// `FAIL: {what}` and fails the report. `what` states the measurement and
    /// its bound.
    pub fn check(&mut self, ok: bool, what: impl std::fmt::Display) {
        if ok {
            println!("ok: {what}");
        } else {
            eprintln!("FAIL: {what}");
            self.failed = true;
        }
    }

    /// Applies the multi-thread no-collapse gate to `(threads,
    /// aggregate-per-second)` samples, the first of which is the single-thread
    /// baseline. A thread count that beats single-thread passes, one inside
    /// the tolerance only warns (on a starved single-core runner a
    /// multi-thread aggregate can only tie), and one that collapsed below
    /// `fraction` of single-thread — the global-lock convoy signature — fails
    /// the report. `unit` names what is being counted (e.g. `"decision"`).
    pub fn no_collapse_gate(&mut self, unit: &str, samples: &[(usize, f64)], fraction: f64) {
        let single = samples[0].1;
        for &(threads, aggregate) in &samples[1..] {
            let ratio = aggregate / single;
            if aggregate >= single || aggregate < single * fraction {
                self.check(
                    aggregate >= single,
                    format_args!(
                        "{threads} threads sustain {ratio:.2}x single-thread aggregate {unit} \
                         throughput ({aggregate:.0}/s; below {:.0}% is a global-lock convoy)",
                        fraction * 100.0
                    ),
                );
            } else {
                println!(
                    "WARN: {threads} threads at {ratio:.2}x single-thread aggregate (within the \
                     {:.0}% no-collapse tolerance; timing noise on a starved runner?)",
                    fraction * 100.0
                );
            }
        }
    }

    /// Records `gates_passed` from the gates run so far and returns it.
    fn seal(&mut self) -> bool {
        let passed = !self.failed;
        self.flag("gates_passed", passed);
        passed
    }

    /// Ends the bench: records `gates_passed`, writes the report if `--json`
    /// was given, and exits 1 when a gate failed. An unwritable `--json` path
    /// exits 2 — a CI misconfiguration must fail loudly, not silently skip the
    /// artifact.
    pub fn finish(mut self, args: &[String]) {
        let passed = self.seal();
        if let Some(path) = parse_json_flag(args) {
            if let Err(error) = self.write(&path) {
                eprintln!("error: cannot write --json report to {path}: {error}");
                std::process::exit(2);
            }
        }
        if !passed {
            std::process::exit(1);
        }
    }

    /// Renders the report as one JSON object:
    /// `{"bench": "...", "results": {...}, "kinds": {...}}`.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = format!(
            "{{\"bench\": \"{}\", \"results\": {{",
            escape_json(&self.bench)
        );
        for (i, (key, value)) in self.fields.iter().enumerate() {
            push_key(&mut out, i, key);
            out.push_str(value);
        }
        out.push_str("}, \"kinds\": {");
        for (i, (key, kind)) in self.kinds.iter().enumerate() {
            push_key(&mut out, i, key);
            let _ = write!(out, "\"{}\"", kind.name());
        }
        out.push_str("}}");
        out
    }

    /// Writes the rendered report to `path` (with a trailing newline) and
    /// prints where it went, so CI logs show the artifact trail.
    ///
    /// # Errors
    ///
    /// Propagates the underlying I/O error (missing directory, permissions).
    pub fn write(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.render() + "\n")?;
        println!("json report written to {path}");
        Ok(())
    }
}

/// Appends the `index`-th object entry's separator and `"key": `.
fn push_key(out: &mut String, index: usize, key: &str) {
    if index > 0 {
        out.push_str(", ");
    }
    let _ = write!(out, "\"{}\": ", escape_json(key));
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flag_accepts_both_spellings_and_defaults() {
        let args: Vec<String> = ["bench", "--threads", "4", "--passes=200"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(parse_flag(&args, "--threads", 8), 4);
        assert_eq!(parse_flag(&args, "--passes", 800), 200);
        assert_eq!(parse_flag(&args, "--missing", 7), 7);
    }

    #[test]
    fn json_flag_is_parsed_in_both_spellings() {
        let args: Vec<String> = ["bench", "--json", "out.json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(parse_json_flag(&args).as_deref(), Some("out.json"));
        let args: Vec<String> = ["bench", "--json=a/b.json"]
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(parse_json_flag(&args).as_deref(), Some("a/b.json"));
        assert_eq!(parse_json_flag(&["bench".to_string()]), None);
    }

    #[test]
    fn json_report_renders_flat_results() {
        let mut report = JsonReport::new("demo \"q\"");
        report
            .record(Kind::Higher, "speedup", 2.5)
            .record(Kind::Info, "threads", 8_usize)
            .flag("passed", true)
            .spread("p99_ns", 40.0)
            .zero("leaks", 0_u64);
        let rendered = report.render();
        assert_eq!(
            rendered,
            "{\"bench\": \"demo \\\"q\\\"\", \"results\": {\"speedup\": 2.500, \"threads\": 8, \
             \"passed\": true, \"p99_ns_spread\": 40.000, \"leaks\": 0}, \"kinds\": \
             {\"speedup\": \"higher\", \"passed\": \"correctness\", \"leaks\": \"correctness\"}}"
        );
        // Non-finite numbers degrade to null instead of invalid JSON.
        let mut bad = JsonReport::new("nan");
        bad.record(Kind::LowerNs, "x", f64::NAN);
        assert!(bad.render().contains("\"x\": null"));
    }

    #[test]
    fn json_report_round_trips_through_a_file() {
        let mut report = JsonReport::new("file");
        report.record(Kind::Lower, "value", 7_u64);
        let path = std::env::temp_dir().join("escudo_bench_json_test.json");
        let path = path.to_str().expect("utf-8 temp path");
        report.write(path).expect("write json report");
        let read = std::fs::read_to_string(path).expect("read back");
        assert_eq!(read.trim_end(), report.render());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn zero_and_check_gates_set_gates_passed() {
        let verdict = |gates: &dyn Fn(&mut JsonReport)| {
            let mut report = JsonReport::new("gates");
            gates(&mut report);
            let passed = report.seal();
            assert!(report
                .render()
                .contains(&format!("\"gates_passed\": {passed}")));
            passed
        };
        assert!(verdict(&|_| {}));
        assert!(verdict(&|r| {
            r.zero("leaks", 0_u64)
                .check(true, "speedup 2.0x (gate: ≥ 1.5x)");
        }));
        assert!(!verdict(&|r| {
            r.zero("leaks", 1_u64);
        }));
        assert!(!verdict(&|r| r.check(false, "speedup 1.0x (gate: ≥ 1.5x)")));
        // A later passing gate does not clear an earlier failure.
        assert!(!verdict(&|r| {
            r.check(false, "first");
            r.zero("leaks", 0_u64).check(true, "second");
        }));
    }

    #[test]
    fn no_collapse_gate_flags_only_real_collapses() {
        let fails = |samples: &[(usize, f64)]| {
            let mut report = JsonReport::new("widgets");
            report.no_collapse_gate("widget", samples, 0.85);
            !report.seal()
        };
        // Beats single-thread, ties within tolerance, collapses below it.
        assert!(!fails(&[(1, 100.0), (2, 150.0)]));
        assert!(!fails(&[(1, 100.0), (2, 90.0)]));
        assert!(fails(&[(1, 100.0), (2, 50.0)]));
        // The baseline itself is never gated.
        assert!(!fails(&[(1, 100.0)]));
    }
}
