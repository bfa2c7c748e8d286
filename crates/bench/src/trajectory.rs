//! The perf-trajectory comparator: diffs two merged bench reports
//! (`BENCH_<PR>.json`) metric by metric and judges every change.
//!
//! CI merges each `harness = false` bench's `--json` report into one array,
//! `[{"bench": "...", "results": {...}, "kinds": {...}}, ...]`, committed
//! in-repo as the PR's trajectory snapshot. This module reads two such
//! snapshots — the committed previous one and the freshly measured current
//! one — with a dependency-free JSON parser, pairs metrics by `(bench, key)`
//! and judges each pair by the [`Kind`] the **current** report declares for
//! the key (its `"kinds"` object, written where the bench records the
//! metric; a key without a declaration is [`Kind::Info`]):
//!
//! * **correctness** counters fail on *any* rise — a single leaked cookie is
//!   not noise — and a boolean gate flag fails on any `true -> false` move,
//!   whatever its kind,
//! * **performance** metrics (`lower_ns`, `lower`, `higher`) warn past
//!   [`WARN_FRACTION`] and fail past [`FAIL_FRACTION`], with a **per-metric
//!   noise floor**: when a bench records a best-of-N spread beside a metric
//!   (`{key}_spread`, the max−min across its repeats), the metric's floor is
//!   [`SPREAD_FLOOR_MULTIPLIER`] × the larger of the two snapshots' spreads —
//!   a delta the bench itself cannot reproduce across repeats is noise, not a
//!   regression. A `lower_ns` metric without a recorded spread falls back to
//!   the global [`TIMING_NOISE_FLOOR_NS`],
//! * **info** metrics (workload shape, spreads, observability exports) are
//!   never judged.
//!
//! A metric present before but missing now warns (a silently dropped gate is
//! itself a regression signal); new metrics and new benches pass freely — the
//! trajectory must not punish adding coverage. The `trajectory` binary
//! (`cargo run -p escudo-bench --bin trajectory -- --previous A --current B`)
//! prints one line per non-Ok verdict and exits non-zero on failure, which is
//! how CI gates each PR's bench run against the committed snapshot.

use std::fmt::Write as _;

use crate::cli::Kind;

/// Relative regression past which a performance metric warns.
pub const WARN_FRACTION: f64 = 0.10;

/// Relative regression past which a performance metric fails the comparison.
pub const FAIL_FRACTION: f64 = 0.35;

/// Noise floor for nanosecond-valued metrics **without a recorded spread**: a
/// relative change whose absolute delta is below this many nanoseconds is
/// timer jitter, never a verdict.
pub const TIMING_NOISE_FLOOR_NS: f64 = 1_000.0;

/// Per-metric floor derivation: a metric with a recorded `<key>_spread` gets a
/// noise floor of this multiple of the larger snapshot's spread. Two spreads'
/// worth of movement is distinguishable from best-of-N repeat scatter; less is
/// not.
pub const SPREAD_FLOOR_MULTIPLIER: f64 = 2.0;

/// One metric value out of a bench report.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A numeric result (integer results parse as floats).
    Num(f64),
    /// A boolean result, e.g. a gate verdict.
    Flag(bool),
    /// An explicit JSON `null` (a non-finite number degraded on write).
    Null,
}

impl Metric {
    fn render(&self) -> String {
        match self {
            Metric::Num(v) => format!("{v:.3}"),
            Metric::Flag(v) => v.to_string(),
            Metric::Null => "null".to_string(),
        }
    }
}

/// One bench's results out of a merged trajectory snapshot.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// The bench binary's name (`{"bench": ...}`).
    pub bench: String,
    /// The flat result metrics, in file order.
    pub results: Vec<(String, Metric)>,
    /// The declared kind of each judged key (`{"kinds": ...}`); a key not
    /// listed here is [`Kind::Info`].
    pub kinds: Vec<(String, Kind)>,
}

impl BenchReport {
    fn get(&self, key: &str) -> Option<&Metric> {
        self.results.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The kind this report declares for `key` ([`Kind::Info`] when none).
    fn kind(&self, key: &str) -> Kind {
        self.kinds
            .iter()
            .find(|(k, _)| k == key)
            .map_or(Kind::Info, |(_, kind)| *kind)
    }
}

// ---------------------------------------------------------------------------
// Dependency-free JSON parsing (subset: the shapes JsonReport can emit).

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!(
                "expected '{}' at byte {}, found {:?}",
                byte as char,
                self.pos,
                other.map(char::from)
            )),
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| "malformed \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        }
                        other => {
                            return Err(format!("unknown escape '\\{}'", other as char));
                        }
                    }
                }
                b => {
                    // Re-assemble multi-byte UTF-8 runs starting at this byte.
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    if b >= 0x80 {
                        while self.bytes.get(end).is_some_and(|b| b & 0xc0 == 0x80) {
                            end += 1;
                        }
                    }
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8 in string".to_string())?;
                    out.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_metric(&mut self) -> Result<Metric, String> {
        match self.peek() {
            Some(b't') => self.parse_keyword("true", Metric::Flag(true)),
            Some(b'f') => self.parse_keyword("false", Metric::Flag(false)),
            Some(b'n') => self.parse_keyword("null", Metric::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => {
                let start = self.pos;
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| "invalid number bytes".to_string())?;
                text.parse::<f64>()
                    .map(Metric::Num)
                    .map_err(|e| format!("malformed number {text:?}: {e}"))
            }
            other => Err(format!(
                "expected a scalar at byte {}, found {:?}",
                self.pos,
                other.map(char::from)
            )),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: Metric) -> Result<Metric, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected keyword '{word}' at byte {}", self.pos))
        }
    }

    /// Parses a flat `{"key": value, ...}` object, reading each value with
    /// `value`.
    fn parse_object<T>(
        &mut self,
        mut value: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<(String, T)>, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(entries);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            entries.push((key, value(self)?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(entries);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in object, found {:?}",
                        other.map(char::from)
                    ));
                }
            }
        }
    }

    fn parse_kind(&mut self) -> Result<Kind, String> {
        let name = self.parse_string()?;
        Kind::from_name(&name).ok_or_else(|| format!("unknown metric kind {name:?}"))
    }

    fn parse_report(&mut self) -> Result<BenchReport, String> {
        self.expect(b'{')?;
        let mut bench = None;
        let mut results = None;
        let mut kinds = Vec::new();
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key.as_str() {
                "bench" => bench = Some(self.parse_string()?),
                "results" => results = Some(self.parse_object(Self::parse_metric)?),
                "kinds" => kinds = self.parse_object(Self::parse_kind)?,
                other => return Err(format!("unexpected report key {other:?}")),
            }
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    break;
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in report, found {:?}",
                        other.map(char::from)
                    ));
                }
            }
        }
        let report = BenchReport {
            bench: bench.ok_or("report missing \"bench\"")?,
            results: results.ok_or("report missing \"results\"")?,
            kinds,
        };
        match report
            .kinds
            .iter()
            .find(|(key, _)| report.get(key).is_none())
        {
            Some((key, _)) => Err(format!(
                "{}: kind declared for {key:?}, which has no value",
                report.bench
            )),
            None => Ok(report),
        }
    }
}

/// Parses a merged trajectory snapshot: a JSON array of
/// `{"bench": ..., "results": {...}, "kinds": {...}}` objects, `"kinds"`
/// optional (a single bare object is also accepted, so one bench's `--json`
/// output can be compared directly).
///
/// # Errors
///
/// Returns a positioned diagnostic on any malformed construct — a truncated
/// artifact must fail the comparison loudly, not diff against half a file —
/// and on a kind declared for a key that has no value.
pub fn parse_trajectory(input: &str) -> Result<Vec<BenchReport>, String> {
    let mut parser = Parser::new(input);
    let mut reports = Vec::new();
    match parser.peek() {
        Some(b'[') => {
            parser.pos += 1;
            if parser.peek() == Some(b']') {
                parser.pos += 1;
            } else {
                loop {
                    reports.push(parser.parse_report()?);
                    match parser.peek() {
                        Some(b',') => parser.pos += 1,
                        Some(b']') => {
                            parser.pos += 1;
                            break;
                        }
                        other => {
                            return Err(format!(
                                "expected ',' or ']' between reports, found {:?}",
                                other.map(char::from)
                            ));
                        }
                    }
                }
            }
        }
        Some(b'{') => reports.push(parser.parse_report()?),
        other => {
            return Err(format!(
                "expected a trajectory array, found {:?}",
                other.map(char::from)
            ));
        }
    }
    if parser.peek().is_some() {
        return Err(format!("trailing bytes after trajectory at {}", parser.pos));
    }
    Ok(reports)
}

// ---------------------------------------------------------------------------
// Comparison.

/// The verdict on one `(bench, key)` metric pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Unchanged, improved, or within the warn threshold / noise floor.
    Ok,
    /// A performance regression past [`WARN_FRACTION`], or a dropped metric.
    Warn,
    /// A correctness regression, or a performance regression past
    /// [`FAIL_FRACTION`].
    Fail,
}

/// One compared metric with its verdict and a human-readable note.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The bench the metric belongs to.
    pub bench: String,
    /// The metric key.
    pub key: String,
    /// The verdict.
    pub verdict: Verdict,
    /// What happened, render-ready.
    pub note: String,
}

/// The full outcome of diffing two trajectory snapshots.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryDiff {
    /// Every non-Ok comparison plus notable improvements, in report order.
    pub comparisons: Vec<Comparison>,
    /// Metric pairs examined.
    pub compared: usize,
    /// Warn verdicts.
    pub warnings: usize,
    /// Fail verdicts.
    pub failures: usize,
}

impl TrajectoryDiff {
    fn push(&mut self, bench: &str, key: &str, verdict: Verdict, note: String) {
        match verdict {
            Verdict::Warn => self.warnings += 1,
            Verdict::Fail => self.failures += 1,
            Verdict::Ok => {}
        }
        self.comparisons.push(Comparison {
            bench: bench.to_string(),
            key: key.to_string(),
            verdict,
            note,
        });
    }
}

/// How far `current` moved in `kind`'s bad direction, relative to `previous`.
fn regression_fraction(kind: Kind, previous: f64, current: f64) -> f64 {
    let baseline = previous.abs().max(f64::EPSILON);
    if kind == Kind::Higher {
        (previous - current) / baseline
    } else {
        (current - previous) / baseline
    }
}

/// The noise floor derived from the snapshots' own `<key>_spread` recordings,
/// if either side recorded one: [`SPREAD_FLOOR_MULTIPLIER`] × the larger
/// spread (a missing side counts as zero).
fn spread_floor(key: &str, previous: &BenchReport, current: &BenchReport) -> Option<f64> {
    let spread_key = format!("{key}_spread");
    let read = |report: &BenchReport| match report.get(&spread_key) {
        Some(Metric::Num(spread)) => Some(spread.abs()),
        _ => None,
    };
    match (read(previous), read(current)) {
        (None, None) => None,
        (a, b) => Some(SPREAD_FLOOR_MULTIPLIER * a.unwrap_or(0.0).max(b.unwrap_or(0.0))),
    }
}

fn within_noise_floor(kind: Kind, previous: f64, current: f64, derived_floor: Option<f64>) -> bool {
    let delta = (current - previous).abs();
    match derived_floor {
        Some(floor) => delta < floor.max(f64::EPSILON),
        None => kind == Kind::LowerNs && delta < TIMING_NOISE_FLOOR_NS,
    }
}

fn compare_metric(
    diff: &mut TrajectoryDiff,
    bench: &str,
    key: &str,
    kind: Kind,
    prev: &Metric,
    cur: &Metric,
    derived_floor: Option<f64>,
) {
    match (prev, cur) {
        (Metric::Flag(was), Metric::Flag(now)) => {
            // A gate flag is correctness by definition: true -> false means a
            // previously passing gate now fails.
            if *was && !*now {
                diff.push(
                    bench,
                    key,
                    Verdict::Fail,
                    "gate flag regressed true -> false".to_string(),
                );
            } else {
                diff.compared += 1;
            }
        }
        (Metric::Num(previous), Metric::Num(current)) => {
            diff.compared += 1;
            match kind {
                Kind::Info => {}
                Kind::Correctness => {
                    if current > previous {
                        diff.push(
                            bench,
                            key,
                            Verdict::Fail,
                            format!("correctness counter rose {previous:.0} -> {current:.0}"),
                        );
                    }
                }
                Kind::LowerNs | Kind::Lower | Kind::Higher => {
                    if within_noise_floor(kind, *previous, *current, derived_floor) {
                        return;
                    }
                    let fraction = regression_fraction(kind, *previous, *current);
                    let note = format!(
                        "{previous:.3} -> {current:.3} ({:+.1}% against the trajectory)",
                        fraction * 100.0
                    );
                    if fraction > FAIL_FRACTION {
                        diff.push(bench, key, Verdict::Fail, note);
                    } else if fraction > WARN_FRACTION {
                        diff.push(bench, key, Verdict::Warn, note);
                    } else if fraction < -WARN_FRACTION {
                        diff.push(bench, key, Verdict::Ok, format!("improved: {note}"));
                    }
                }
            }
        }
        _ => {
            diff.compared += 1;
            // Type changes and Null drift are shape changes, not perf
            // regressions; surface them as warnings so they get looked at.
            if prev != cur {
                diff.push(
                    bench,
                    key,
                    Verdict::Warn,
                    format!(
                        "metric changed shape: {} -> {}",
                        prev.render(),
                        cur.render()
                    ),
                );
            }
        }
    }
}

/// Diffs `current` against `previous`, metric by metric, judging each key by
/// the kind `current` declares for it. Benches and metrics present only in
/// `current` pass freely; ones that *disappeared* warn.
#[must_use]
pub fn compare_trajectories(previous: &[BenchReport], current: &[BenchReport]) -> TrajectoryDiff {
    let mut diff = TrajectoryDiff::default();
    for prev_bench in previous {
        let Some(cur_bench) = current.iter().find(|b| b.bench == prev_bench.bench) else {
            diff.push(
                &prev_bench.bench,
                "*",
                Verdict::Warn,
                "bench disappeared from the current trajectory".to_string(),
            );
            continue;
        };
        for (key, prev_value) in &prev_bench.results {
            match cur_bench.get(key) {
                Some(cur_value) => {
                    let floor = spread_floor(key, prev_bench, cur_bench);
                    compare_metric(
                        &mut diff,
                        &prev_bench.bench,
                        key,
                        cur_bench.kind(key),
                        prev_value,
                        cur_value,
                        floor,
                    );
                }
                None => diff.push(
                    &prev_bench.bench,
                    key,
                    Verdict::Warn,
                    "metric disappeared from the current report".to_string(),
                ),
            }
        }
    }
    diff
}

/// Renders the diff as one line per recorded comparison plus a summary line.
#[must_use]
pub fn render_diff(diff: &TrajectoryDiff) -> String {
    let mut out = String::new();
    for comparison in &diff.comparisons {
        let tag = match comparison.verdict {
            Verdict::Ok => "ok",
            Verdict::Warn => "WARN",
            Verdict::Fail => "FAIL",
        };
        let _ = writeln!(
            out,
            "{tag}: {}/{}: {}",
            comparison.bench, comparison.key, comparison.note
        );
    }
    let _ = writeln!(
        out,
        "trajectory: {} metrics compared, {} warnings, {} failures",
        diff.compared, diff.warnings, diff.failures
    );
    out
}

fn load(path: &str) -> Result<Vec<BenchReport>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_trajectory(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_diff(previous: &str, current: &str) -> Result<i32, String> {
    let diff = compare_trajectories(&load(previous)?, &load(current)?);
    print!("{}", render_diff(&diff));
    Ok(i32::from(diff.failures > 0))
}

/// The `trajectory` binary's entry point:
/// `--previous <BENCH_N.json> --current <fresh.json>` diffs the two
/// snapshots; exit 0 clean or warnings only, 1 on failures, 2 on usage/IO
/// errors.
#[must_use]
pub fn run_comparator(args: &[String]) -> i32 {
    let path_flag = |flag: &str| -> Option<String> {
        args.iter().enumerate().find_map(|(i, arg)| {
            if arg == flag {
                args.get(i + 1).cloned()
            } else {
                arg.strip_prefix(&format!("{flag}=")).map(String::from)
            }
        })
    };
    let (Some(previous), Some(current)) = (path_flag("--previous"), path_flag("--current")) else {
        eprintln!("usage: trajectory --previous <BENCH_N.json> --current <fresh.json>");
        return 2;
    };
    run_diff(&previous, &current).unwrap_or_else(|error| {
        eprintln!("error: {error}");
        2
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::JsonReport;

    /// One `demo` bench report, recorded and parsed the way a bench run and
    /// the comparator see it.
    fn snapshot(record: impl FnOnce(&mut JsonReport)) -> Vec<BenchReport> {
        let mut report = JsonReport::new("demo");
        record(&mut report);
        parse_trajectory(&report.render()).expect("parse rendered report")
    }

    fn verdicts(previous: &[BenchReport], current: &[BenchReport]) -> (usize, usize) {
        let diff = compare_trajectories(previous, current);
        (diff.warnings, diff.failures)
    }

    #[test]
    fn the_parser_round_trips_a_rendered_report() {
        let mut report = JsonReport::new("demo \"q\"");
        report
            .record(Kind::Higher, "latency_speedup", 2.5)
            .record(Kind::LowerNs, "p99_ns", 900.0)
            .record(Kind::Lower, "nav_p99_ratio", 1.2)
            .record(Kind::Info, "threads", 8_u64)
            .zero("oracle_log_mismatches", 0_u64)
            .flag("gates_passed", true);
        let merged = format!("[{}]", report.render());
        let parsed = parse_trajectory(&merged).expect("parse merged report");
        assert_eq!(parsed.len(), 1);
        let parsed = &parsed[0];
        assert_eq!(parsed.bench, "demo \"q\"");
        assert_eq!(parsed.get("latency_speedup"), Some(&Metric::Num(2.5)));
        assert_eq!(parsed.get("gates_passed"), Some(&Metric::Flag(true)));
        // Every declared kind survives render and parse; undeclared is info.
        for (key, kind) in [
            ("latency_speedup", Kind::Higher),
            ("p99_ns", Kind::LowerNs),
            ("nav_p99_ratio", Kind::Lower),
            ("threads", Kind::Info),
            ("oracle_log_mismatches", Kind::Correctness),
            ("gates_passed", Kind::Correctness),
        ] {
            assert_eq!(parsed.kind(key), kind, "{key}");
        }
        // A single bare object and a report without kinds parse too, and
        // malformed input is an error.
        assert_eq!(parse_trajectory(&report.render()).unwrap().len(), 1);
        let bare = parse_trajectory("{\"bench\": \"old\", \"results\": {\"x_ns\": 1}}").unwrap();
        assert_eq!(bare[0].kind("x_ns"), Kind::Info);
        assert!(parse_trajectory("[{\"bench\": ").is_err());
        assert!(parse_trajectory("[] trailing").is_err());
    }

    #[test]
    fn a_kind_without_a_value_is_a_parse_error() {
        let orphan = "{\"bench\": \"demo\", \"results\": {\"a\": 1}, \
                      \"kinds\": {\"a\": \"higher\", \"b\": \"correctness\"}}";
        let error = parse_trajectory(orphan).unwrap_err();
        assert!(error.contains("\"b\""), "{error}");
        let unknown =
            "{\"bench\": \"demo\", \"results\": {\"a\": 1}, \"kinds\": {\"a\": \"fast\"}}";
        assert!(parse_trajectory(unknown).is_err());
    }

    #[test]
    fn correctness_regressions_fail_regardless_of_size() {
        let previous = snapshot(|r| {
            r.zero("isolation_violations", 0_u64)
                .flag("gates_passed", true);
        });
        let current = snapshot(|r| {
            r.zero("isolation_violations", 1_u64)
                .flag("gates_passed", false);
        });
        let diff = compare_trajectories(&previous, &current);
        assert_eq!(diff.failures, 2);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("correctness counter rose"));
        assert!(rendered.contains("gate flag regressed"));
    }

    #[test]
    fn unexpected_cells_declared_correctness_fail() {
        // A committed snapshot carries no kinds; the fresh report's
        // declaration judges the key.
        let previous = parse_trajectory(
            "[{\"bench\": \"scenario_matrix\", \"results\": {\"matrix_unexpected\": 0}}]",
        )
        .unwrap();
        let mut report = JsonReport::new("scenario_matrix");
        report.zero("matrix_unexpected", 1_u64);
        let current = parse_trajectory(&report.render()).unwrap();
        let diff = compare_trajectories(&previous, &current);
        assert_eq!(diff.failures, 1, "{}", render_diff(&diff));
        assert!(render_diff(&diff).contains("scenario_matrix/matrix_unexpected"));
    }

    #[test]
    fn the_declared_kind_decides_not_the_key() {
        // A mismatch-shaped key declared info does not gate...
        let previous = snapshot(|r| {
            r.record(Kind::Info, "oracle_log_mismatches", 0_u64);
        });
        let current = snapshot(|r| {
            r.record(Kind::Info, "oracle_log_mismatches", 5_u64);
        });
        assert_eq!(verdicts(&previous, &current), (0, 0));
        // ...and a neutral key declared higher is judged in that direction.
        let previous = snapshot(|r| {
            r.record(Kind::Higher, "retained", 4.0);
        });
        let current = snapshot(|r| {
            r.record(Kind::Higher, "retained", 2.0);
        });
        assert_eq!(verdicts(&previous, &current), (0, 1));
    }

    #[test]
    fn performance_regressions_grade_warn_then_fail() {
        let page = |ns: f64| {
            snapshot(|r| {
                r.record(Kind::LowerNs, "pipelined_ns_per_page", ns);
            })
        };
        let previous = page(1_000_000.0);
        // +8%: inside the warn threshold; +20%: warns; +60%: fails.
        assert_eq!(verdicts(&previous, &page(1_080_000.0)), (0, 0));
        assert_eq!(verdicts(&previous, &page(1_200_000.0)), (1, 0));
        assert_eq!(verdicts(&previous, &page(1_600_000.0)), (0, 1));
        // Higher-is-better metrics judge the opposite direction.
        let speedup = |x: f64| {
            snapshot(|r| {
                r.record(Kind::Higher, "latency_speedup", x);
            })
        };
        assert_eq!(verdicts(&speedup(4.0), &speedup(2.0)), (0, 1));
        assert_eq!(verdicts(&speedup(2.0), &speedup(4.0)), (0, 0));
    }

    #[test]
    fn nanosecond_jitter_stays_under_the_noise_floor() {
        let lookup = |kind: Kind, value: f64| {
            snapshot(|r| {
                r.record(kind, "warm_lookup", value);
            })
        };
        // 50% relative regression, but only 150ns absolute — timer jitter.
        assert_eq!(
            verdicts(&lookup(Kind::LowerNs, 300.0), &lookup(Kind::LowerNs, 450.0)),
            (0, 0)
        );
        // The same move on a `lower` metric is not nanoseconds: judged.
        assert_eq!(
            verdicts(&lookup(Kind::Lower, 300.0), &lookup(Kind::Lower, 450.0)),
            (0, 1)
        );
        // The same relative move above the floor is judged normally.
        assert_eq!(
            verdicts(
                &lookup(Kind::LowerNs, 30_000.0),
                &lookup(Kind::LowerNs, 45_000.0)
            ),
            (0, 1)
        );
    }

    #[test]
    fn recorded_spreads_derive_per_metric_noise_floors() {
        let p99 = |value: f64, spread: f64| {
            snapshot(|r| {
                r.record(Kind::LowerNs, "neighbor_contended_p99_ns", value)
                    .spread("neighbor_contended_p99_ns", spread);
            })
        };
        // +50% and 15µs absolute — far past the global 1µs floor — but the
        // bench recorded a 20µs best-of-N spread, so the move is repeat
        // scatter, not a regression. The spread key itself is never judged.
        assert_eq!(
            verdicts(&p99(30_000.0, 20_000.0), &p99(45_000.0, 18_000.0)),
            (0, 0)
        );
        // The same move with a tight spread is judged normally (and fails).
        assert_eq!(
            verdicts(&p99(30_000.0, 500.0), &p99(45_000.0, 400.0)),
            (0, 1)
        );
        // A derived floor covers non-nanosecond metrics too: the global floor
        // never applied to rates, but a recorded spread does.
        let rate = |value: f64| {
            snapshot(|r| {
                r.record(Kind::Higher, "victim_rate", value)
                    .spread("victim_rate", 0.2);
            })
        };
        assert_eq!(verdicts(&rate(1.0), &rate(0.7)), (0, 0));
    }

    #[test]
    fn dropped_benches_and_metrics_warn_but_new_coverage_passes() {
        let merged = |reports: &[JsonReport]| {
            let rendered: Vec<String> = reports.iter().map(JsonReport::render).collect();
            parse_trajectory(&format!("[{}]", rendered.join(","))).unwrap()
        };
        let mut kept = JsonReport::new("kept");
        kept.record(Kind::Higher, "pages_per_sec", 10.0);
        let previous = merged(&[kept, JsonReport::new("gone")]);
        let mut kept = JsonReport::new("kept");
        kept.record(Kind::Info, "threads", 8_u64);
        let mut brand_new = JsonReport::new("brand_new");
        brand_new.zero("violations", 0_u64);
        let current = merged(&[kept, brand_new]);
        // One warn for the vanished bench, one for the vanished metric; the
        // new bench and metric gate nothing.
        assert_eq!(verdicts(&previous, &current), (2, 0));
    }
}
