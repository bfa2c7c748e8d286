//! The perf-trajectory comparator: diffs two merged bench reports
//! (`BENCH_<PR>.json`) metric by metric and classifies every change.
//!
//! CI merges each `harness = false` bench's `--json` report into one array,
//! `[{"bench": "...", "results": {...}}, ...]`, committed in-repo as the PR's
//! trajectory snapshot. This module reads two such snapshots — the committed
//! previous one and the freshly measured current one — with a dependency-free
//! JSON parser, pairs metrics by `(bench, key)` and judges each pair:
//!
//! * **correctness metrics** (mismatch/violation/leak counters, `*_passed`
//!   gate flags) fail on *any* regression — a single leaked cookie is not
//!   noise,
//! * **performance metrics** (`*_ns`, `*_per_sec`, `*speedup*`, `*retained*`,
//!   `*ratio*`, hit rates) warn past [`WARN_FRACTION`] and fail past
//!   [`FAIL_FRACTION`], with a **per-metric noise floor**: when a bench
//!   records a best-of-N spread beside a metric (`<key>_spread`, the max−min
//!   across its repeats), the metric's floor is
//!   [`SPREAD_FLOOR_MULTIPLIER`] × the larger of the two snapshots' spreads —
//!   a delta the bench itself cannot reproduce across repeats is noise, not a
//!   regression. Metrics without a recorded spread fall back to the global
//!   [`TIMING_NOISE_FLOOR_NS`] if they are nanosecond-valued. `*_spread` keys
//!   themselves are informational — they calibrate floors, they are not
//!   latencies,
//! * everything else (thread counts, workload sizes, occupancy counters) is
//!   informational and never gates.
//!
//! A metric present before but missing now warns (a silently dropped gate is
//! itself a regression signal); new metrics and new benches pass freely — the
//! trajectory must not punish adding coverage. The `trajectory` binary
//! (`cargo run -p escudo-bench --bin trajectory -- --previous A --current B`)
//! prints one line per non-Ok verdict and exits non-zero on failure, which is
//! how CI gates each PR's bench run against the committed snapshot.
//!
//! The binary's second mode, `trajectory --history <dir>`, scans every
//! committed `BENCH_<n>.json` in the directory and prints a per-metric trend
//! table — one sparkline row per gated (non-informational) metric across all
//! snapshots in PR order — so the whole perf story is visible in every PR.

use std::fmt::Write as _;

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
    /// A string result.
    Text(String),
    /// An explicit JSON `null` (a non-finite number degraded on write).
    Null,
}

impl Metric {
    fn render(&self) -> String {
        match self {
            Metric::Num(v) => format!("{v:.3}"),
            Metric::Flag(v) => v.to_string(),
            Metric::Text(v) => format!("\"{v}\""),
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
}

impl BenchReport {
    fn get(&self, key: &str) -> Option<&Metric> {
        self.results.iter().find(|(k, _)| k == key).map(|(_, v)| v)
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
            Some(b'"') => Ok(Metric::Text(self.parse_string()?)),
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

    fn parse_results(&mut self) -> Result<Vec<(String, Metric)>, String> {
        self.expect(b'{')?;
        let mut results = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(results);
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            results.push((key, self.parse_metric()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(results);
                }
                other => {
                    return Err(format!(
                        "expected ',' or '}}' in results, found {:?}",
                        other.map(char::from)
                    ));
                }
            }
        }
    }

    fn parse_report(&mut self) -> Result<BenchReport, String> {
        self.expect(b'{')?;
        let mut bench = None;
        let mut results = None;
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            match key.as_str() {
                "bench" => bench = Some(self.parse_string()?),
                "results" => results = Some(self.parse_results()?),
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
        Ok(BenchReport {
            bench: bench.ok_or("report missing \"bench\"")?,
            results: results.ok_or("report missing \"results\"")?,
        })
    }
}

/// Parses a merged trajectory snapshot: a JSON array of
/// `{"bench": ..., "results": {...}}` objects (a single bare object is also
/// accepted, so one bench's `--json` output can be compared directly).
///
/// # Errors
///
/// Returns a positioned diagnostic on any malformed construct — a truncated
/// artifact must fail the comparison loudly, not diff against half a file.
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
// Metric classification and comparison.

/// Which way a metric should move to count as an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Latencies, counters of bad events: smaller is better.
    LowerIsBetter,
    /// Throughputs, speedups, hit rates: larger is better.
    HigherIsBetter,
    /// Workload shape and observability counters: never judged.
    Informational,
}

/// How strictly a metric's regressions gate the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// Any regression at all fails (correctness counters, gate flags).
    Correctness,
    /// Regression warns past [`WARN_FRACTION`], fails past [`FAIL_FRACTION`],
    /// noise floor permitting.
    Performance,
    /// Reported, never judged.
    Informational,
}

/// Classifies a metric key by name. The key vocabulary is shared bench
/// convention (see `cli::JsonReport` call sites), so substring heuristics are
/// reliable here: `*mismatches*`/`*violations*`/`*leaks*` are correctness
/// counters, `*_ns*`/`*per_sec*`/`*speedup*`/`*retained*`/`*ratio*`/`*rate*`
/// are performance, and anything unrecognized is informational. `ns` and
/// `ratio` must match as whole `_`-delimited segments: `decisions_per_sec`
/// and `interns_per_sec` throughputs contain `ns_per_` as an accidental
/// substring, and `generation`/`generations` keys (counters, not
/// measurements) contain `ratio`.
/// `*fault*`/`*breaker*`/`*retry*`/`*retries*` keys are chaos accounting —
/// always informational, since they measure the injected schedule. Keys
/// with a `cache` segment are response-cache accounting — informational unless rate- or
/// speedup-shaped (still judged) or correctness-tagged (still failing).
#[must_use]
pub fn classify(key: &str) -> (Direction, Strictness) {
    // Spread recordings calibrate noise floors; they are measurement-scatter
    // metadata, never judged — and this rule must run first, because a spread
    // key inherits its parent metric's vocabulary (`..._p99_ns_spread`).
    if key.ends_with("_spread") {
        return (Direction::Informational, Strictness::Informational);
    }
    // Chaos accounting from `fault_concurrent` (faults injected, retries
    // granted, breaker transitions) describes the *injected* schedule, not a
    // quality of the build — how much chaos a run absorbs is a workload
    // parameter. Must run before the correctness/perf vocabularies:
    // `retry_deadline_exhausted` would otherwise read as a rate-like key.
    let chaos_counter = ["fault", "breaker", "retry", "retries"]
        .iter()
        .any(|tag| key.contains(tag));
    if chaos_counter {
        return (Direction::Informational, Strictness::Informational);
    }
    let correctness_counter = ["mismatch", "violation", "leak", "dropped"]
        .iter()
        .any(|tag| key.contains(tag));
    if correctness_counter {
        return (Direction::LowerIsBetter, Strictness::Correctness);
    }
    // Response-cache accounting (`cache_*` and `*_cache_*` keys, including
    // the control plane's `cp_cache_*` exports) counts hits, stores, expiries
    // and coalesced slots — workload-shaped counters, not build quality; the
    // speedup and exact-count *gates* live in `cache_concurrent` itself. Must
    // run after the correctness vocabulary (a cache mismatch is still a bug)
    // and must not capture rate- or speedup-shaped keys, which stay judged
    // performance metrics. `cache` must be a whole segment: the policy
    // bench's `cached_ns_per_decision` is a decision timing, not cache
    // accounting.
    let cache_counter =
        has_segment(key, "cache") && !key.contains("rate") && !key.contains("speedup");
    if cache_counter {
        return (Direction::Informational, Strictness::Informational);
    }
    let lower_perf =
        has_segment(key, "ns") || has_segment(key, "ratio") || key.contains("latency_p");
    if lower_perf {
        return (Direction::LowerIsBetter, Strictness::Performance);
    }
    let higher_perf = key.contains("per_sec")
        || key.contains("speedup")
        || key.contains("retained")
        || key.contains("rate");
    if higher_perf {
        return (Direction::HigherIsBetter, Strictness::Performance);
    }
    (Direction::Informational, Strictness::Informational)
}

/// `true` when `segment` is one whole `_`-delimited segment of `key`.
fn has_segment(key: &str, segment: &str) -> bool {
    key.split('_').any(|part| part == segment)
}

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

fn regression_fraction(direction: Direction, previous: f64, current: f64) -> f64 {
    let baseline = previous.abs().max(f64::EPSILON);
    match direction {
        Direction::LowerIsBetter => (current - previous) / baseline,
        Direction::HigherIsBetter => (previous - current) / baseline,
        Direction::Informational => 0.0,
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

fn within_noise_floor(key: &str, previous: f64, current: f64, derived_floor: Option<f64>) -> bool {
    if let Some(floor) = derived_floor {
        return (current - previous).abs() < floor.max(f64::EPSILON);
    }
    has_segment(key, "ns") && (current - previous).abs() < TIMING_NOISE_FLOOR_NS
}

fn compare_metric(
    diff: &mut TrajectoryDiff,
    bench: &str,
    key: &str,
    prev: &Metric,
    cur: &Metric,
    derived_floor: Option<f64>,
) {
    let (direction, strictness) = classify(key);
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
            if strictness == Strictness::Informational {
                return;
            }
            let fraction = regression_fraction(direction, *previous, *current);
            if strictness == Strictness::Correctness {
                if fraction > 0.0 {
                    diff.push(
                        bench,
                        key,
                        Verdict::Fail,
                        format!("correctness counter rose {previous:.0} -> {current:.0}"),
                    );
                }
                return;
            }
            if within_noise_floor(key, *previous, *current, derived_floor) {
                return;
            }
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
        _ => {
            diff.compared += 1;
            // Type changes and Null/Text drift are shape changes, not perf
            // regressions; surface them as warnings so they get looked at.
            if prev != cur && !matches!(prev, Metric::Text(_)) {
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

/// Diffs `current` against `previous`, metric by metric. Benches and metrics
/// present only in `current` pass freely; ones that *disappeared* warn.
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

// ---------------------------------------------------------------------------
// The history trend table (`--history <dir>`).

/// Renders `values` as a unicode sparkline, one block per sample, min..max
/// normalized (`None` samples — the metric did not exist yet — render as `·`).
#[must_use]
pub fn sparkline(values: &[Option<f64>]) -> String {
    const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let present: Vec<f64> = values.iter().flatten().copied().collect();
    let (min, max) = present
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    let range = max - min;
    values
        .iter()
        .map(|value| match value {
            None => '·',
            Some(_) if range <= f64::EPSILON => BLOCKS[3],
            Some(v) => {
                let normalized = (v - min) / range;
                let index = (normalized * 7.0).round();
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                BLOCKS[(index as usize).min(7)]
            }
        })
        .collect()
}

/// Renders the per-metric trend table across `snapshots` (in PR order, each
/// tagged with its `BENCH_<n>` number): one sparkline row per **gated**
/// metric — correctness counters and performance metrics; informational keys
/// (workload shape, spreads, observability counters) are omitted to keep the
/// table the perf story, not a firehose.
#[must_use]
pub fn render_history(snapshots: &[(u64, Vec<BenchReport>)]) -> String {
    let mut out = String::new();
    let numbers: Vec<String> = snapshots
        .iter()
        .map(|(n, _)| format!("BENCH_{n}"))
        .collect();
    let _ = writeln!(
        out,
        "trajectory history: {} snapshots ({})",
        snapshots.len(),
        numbers.join(" -> ")
    );

    // Rows keyed (bench, key) in first-appearance order across the history.
    let mut rows: Vec<(String, String)> = Vec::new();
    for (_, reports) in snapshots {
        for report in reports {
            for (key, value) in &report.results {
                if !matches!(value, Metric::Num(_)) {
                    continue;
                }
                if classify(key).1 == Strictness::Informational {
                    continue;
                }
                let row = (report.bench.clone(), key.clone());
                if !rows.contains(&row) {
                    rows.push(row);
                }
            }
        }
    }

    let label_width = rows
        .iter()
        .map(|(bench, key)| bench.len() + key.len() + 1)
        .max()
        .unwrap_or(0);
    for (bench, key) in &rows {
        let values: Vec<Option<f64>> = snapshots
            .iter()
            .map(|(_, reports)| {
                reports
                    .iter()
                    .find(|report| &report.bench == bench)
                    .and_then(|report| match report.get(key) {
                        Some(Metric::Num(value)) => Some(*value),
                        _ => None,
                    })
            })
            .collect();
        let first = values.iter().flatten().next().copied().unwrap_or(0.0);
        let last = values.iter().flatten().next_back().copied().unwrap_or(0.0);
        let _ = writeln!(
            out,
            "{:label_width$}  {}  {first:.3} -> {last:.3}",
            format!("{bench}/{key}"),
            sparkline(&values),
        );
    }
    out
}

/// Scans `dir` for committed `BENCH_<n>.json` snapshots, parses them in PR
/// order and prints the trend table. Returns the process exit code.
fn run_history(dir: &str) -> i32 {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(error) => {
            eprintln!("error: cannot read directory {dir}: {error}");
            return 2;
        }
    };
    let mut snapshots: Vec<(u64, Vec<BenchReport>)> = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        let Some(number) = name
            .strip_prefix("BENCH_")
            .and_then(|rest| rest.strip_suffix(".json"))
            .and_then(|digits| digits.parse::<u64>().ok())
        else {
            continue;
        };
        let path = entry.path();
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(error) => {
                eprintln!("error: cannot read {}: {error}", path.display());
                return 2;
            }
        };
        match parse_trajectory(&text) {
            Ok(reports) => snapshots.push((number, reports)),
            Err(error) => {
                eprintln!("error: {}: {error}", path.display());
                return 2;
            }
        }
    }
    if snapshots.is_empty() {
        eprintln!("error: no BENCH_<n>.json snapshots found in {dir}");
        return 2;
    }
    snapshots.sort_by_key(|(number, _)| *number);
    print!("{}", render_history(&snapshots));
    0
}

/// The `trajectory` binary's entry point. Two modes:
///
/// * `--previous <BENCH_N.json> --current <BENCH_M.json>` — diff the two
///   snapshots; exit 0 clean or warnings only, 1 on failures, 2 on usage/IO
///   errors,
/// * `--history <dir>` — print the sparkline trend table across every
///   committed `BENCH_<n>.json` in the directory; exit 0, or 2 when the
///   directory holds no parseable snapshots.
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
    if let Some(dir) = path_flag("--history") {
        return run_history(&dir);
    }
    let (Some(previous_path), Some(current_path)) =
        (path_flag("--previous"), path_flag("--current"))
    else {
        eprintln!(
            "usage: trajectory --previous <BENCH_N.json> --current <BENCH_M.json>\n\
             \u{20}      trajectory --history <dir>"
        );
        return 2;
    };
    let load = |path: &str| -> Result<Vec<BenchReport>, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_trajectory(&text).map_err(|e| format!("{path}: {e}"))
    };
    let previous = match load(&previous_path) {
        Ok(reports) => reports,
        Err(error) => {
            eprintln!("error: {error}");
            return 2;
        }
    };
    let current = match load(&current_path) {
        Ok(reports) => reports,
        Err(error) => {
            eprintln!("error: {error}");
            return 2;
        }
    };
    let diff = compare_trajectories(&previous, &current);
    print!("{}", render_diff(&diff));
    i32::from(diff.failures > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(&str, Metric)]) -> Vec<BenchReport> {
        vec![BenchReport {
            bench: "demo".to_string(),
            results: pairs
                .iter()
                .map(|(k, v)| ((*k).to_string(), v.clone()))
                .collect(),
        }]
    }

    #[test]
    fn the_parser_round_trips_a_rendered_report() {
        let mut report = crate::cli::JsonReport::new("demo");
        report
            .num("latency_speedup", 2.5)
            .int("oracle_log_mismatches", 0)
            .flag("gates_passed", true)
            .text("note", "a \"quoted\" path\\");
        let merged = format!("[{}]", report.render());
        let parsed = parse_trajectory(&merged).expect("parse merged report");
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].bench, "demo");
        assert_eq!(
            parsed[0].get("latency_speedup"),
            Some(&Metric::Num(2.5)),
            "numbers parse"
        );
        assert_eq!(parsed[0].get("gates_passed"), Some(&Metric::Flag(true)));
        assert_eq!(
            parsed[0].get("note"),
            Some(&Metric::Text("a \"quoted\" path\\".to_string()))
        );
        // A single bare object parses too, and malformed input is an error.
        assert_eq!(parse_trajectory(&report.render()).unwrap().len(), 1);
        assert!(parse_trajectory("[{\"bench\": ").is_err());
        assert!(parse_trajectory("[] trailing").is_err());
    }

    #[test]
    fn metric_keys_classify_by_shared_vocabulary() {
        assert_eq!(
            classify("oracle_log_mismatches"),
            (Direction::LowerIsBetter, Strictness::Correctness)
        );
        assert_eq!(
            classify("isolation_violations"),
            (Direction::LowerIsBetter, Strictness::Correctness)
        );
        assert_eq!(
            classify("sequential_ns_per_page"),
            (Direction::LowerIsBetter, Strictness::Performance)
        );
        assert_eq!(
            classify("warm_lookup_lockfree_ns"),
            (Direction::LowerIsBetter, Strictness::Performance)
        );
        assert_eq!(
            classify("storm_speedup_t8"),
            (Direction::HigherIsBetter, Strictness::Performance)
        );
        assert_eq!(
            classify("pages_per_sec"),
            (Direction::HigherIsBetter, Strictness::Performance)
        );
        assert_eq!(
            classify("hardware_threads"),
            (Direction::Informational, Strictness::Informational)
        );
        // `ratio` only counts as a whole `_`-delimited segment: generation
        // counters contain it as an accidental substring ("gene-ratio-ns")
        // and must stay informational, not become lower-is-better timing.
        assert_eq!(
            classify("nav_p99_ratio"),
            (Direction::LowerIsBetter, Strictness::Performance)
        );
        // `ns` likewise: throughputs whose words end in "ns" must not read
        // as nanosecond timings.
        for key in [
            "decisions_per_sec_t1",
            "storm_lockfree_interns_per_sec_t1",
            "storm_rwlock_interns_per_sec_t8",
        ] {
            assert_eq!(
                classify(key),
                (Direction::HigherIsBetter, Strictness::Performance),
                "{key}"
            );
        }
        for key in ["with_escudo_ns_per_dispatch", "cached_ns_per_decision"] {
            assert_eq!(
                classify(key),
                (Direction::LowerIsBetter, Strictness::Performance),
                "{key}"
            );
        }
        assert_eq!(
            classify("reload_generations_seen"),
            (Direction::Informational, Strictness::Informational)
        );
        assert_eq!(
            classify("cp_tenant_alpha_generation"),
            (Direction::Informational, Strictness::Informational)
        );
        // Cache accounting is informational — even `_ns`-suffixed raw
        // timings, whose judged form is the speedup ratio — but rate- and
        // speedup-shaped cache keys stay performance, and a cache mismatch
        // stays correctness.
        assert_eq!(
            classify("ttl_cache_expired"),
            (Direction::Informational, Strictness::Informational)
        );
        assert_eq!(
            classify("cache_warm_ns"),
            (Direction::Informational, Strictness::Informational)
        );
        assert_eq!(
            classify("cp_cache_hits"),
            (Direction::Informational, Strictness::Informational)
        );
        assert_eq!(
            classify("cache_speedup"),
            (Direction::HigherIsBetter, Strictness::Performance)
        );
        assert_eq!(
            classify("cache_hit_rate"),
            (Direction::HigherIsBetter, Strictness::Performance)
        );
        assert_eq!(
            classify("cache_log_mismatches"),
            (Direction::LowerIsBetter, Strictness::Correctness)
        );
    }

    #[test]
    fn correctness_regressions_fail_regardless_of_size() {
        let previous = snapshot(&[
            ("isolation_violations", Metric::Num(0.0)),
            ("gates_passed", Metric::Flag(true)),
        ]);
        let current = snapshot(&[
            ("isolation_violations", Metric::Num(1.0)),
            ("gates_passed", Metric::Flag(false)),
        ]);
        let diff = compare_trajectories(&previous, &current);
        assert_eq!(diff.failures, 2);
        let rendered = render_diff(&diff);
        assert!(rendered.contains("correctness counter rose"));
        assert!(rendered.contains("gate flag regressed"));
    }

    #[test]
    fn performance_regressions_grade_warn_then_fail() {
        let previous = snapshot(&[("pipelined_ns_per_page", Metric::Num(1_000_000.0))]);
        // +8%: inside the warn threshold.
        let diff = compare_trajectories(
            &previous,
            &snapshot(&[("pipelined_ns_per_page", Metric::Num(1_080_000.0))]),
        );
        assert_eq!((diff.warnings, diff.failures), (0, 0));
        // +20%: warns.
        let diff = compare_trajectories(
            &previous,
            &snapshot(&[("pipelined_ns_per_page", Metric::Num(1_200_000.0))]),
        );
        assert_eq!((diff.warnings, diff.failures), (1, 0));
        // +60%: fails.
        let diff = compare_trajectories(
            &previous,
            &snapshot(&[("pipelined_ns_per_page", Metric::Num(1_600_000.0))]),
        );
        assert_eq!((diff.warnings, diff.failures), (0, 1));
        // Higher-is-better metrics judge the opposite direction.
        let previous = snapshot(&[("latency_speedup", Metric::Num(4.0))]);
        let diff = compare_trajectories(
            &previous,
            &snapshot(&[("latency_speedup", Metric::Num(2.0))]),
        );
        assert_eq!((diff.warnings, diff.failures), (0, 1));
    }

    #[test]
    fn nanosecond_jitter_stays_under_the_noise_floor() {
        // 50% relative regression, but only 150ns absolute — timer jitter.
        let previous = snapshot(&[("warm_lookup_lockfree_ns", Metric::Num(300.0))]);
        let current = snapshot(&[("warm_lookup_lockfree_ns", Metric::Num(450.0))]);
        let diff = compare_trajectories(&previous, &current);
        assert_eq!((diff.warnings, diff.failures), (0, 0));
        // The same relative move above the floor is judged normally.
        let previous = snapshot(&[("warm_lookup_lockfree_ns", Metric::Num(30_000.0))]);
        let current = snapshot(&[("warm_lookup_lockfree_ns", Metric::Num(45_000.0))]);
        let diff = compare_trajectories(&previous, &current);
        assert_eq!(diff.failures, 1);
    }

    #[test]
    fn recorded_spreads_derive_per_metric_noise_floors() {
        // The spread key itself is calibration metadata, never judged.
        assert_eq!(
            classify("neighbor_contended_p99_ns_spread"),
            (Direction::Informational, Strictness::Informational)
        );
        assert_eq!(
            classify("victim_rate_spread"),
            (Direction::Informational, Strictness::Informational)
        );

        // +50% and 15µs absolute — far past the global 1µs floor — but the
        // bench recorded a 20µs best-of-N spread, so the move is repeat
        // scatter, not a regression.
        let previous = snapshot(&[
            ("neighbor_contended_p99_ns", Metric::Num(30_000.0)),
            ("neighbor_contended_p99_ns_spread", Metric::Num(20_000.0)),
        ]);
        let current = snapshot(&[
            ("neighbor_contended_p99_ns", Metric::Num(45_000.0)),
            ("neighbor_contended_p99_ns_spread", Metric::Num(18_000.0)),
        ]);
        let diff = compare_trajectories(&previous, &current);
        assert_eq!((diff.warnings, diff.failures), (0, 0));

        // The same move with a tight spread is judged normally (and fails).
        let previous = snapshot(&[
            ("neighbor_contended_p99_ns", Metric::Num(30_000.0)),
            ("neighbor_contended_p99_ns_spread", Metric::Num(500.0)),
        ]);
        let current = snapshot(&[
            ("neighbor_contended_p99_ns", Metric::Num(45_000.0)),
            ("neighbor_contended_p99_ns_spread", Metric::Num(400.0)),
        ]);
        let diff = compare_trajectories(&previous, &current);
        assert_eq!((diff.warnings, diff.failures), (0, 1));

        // A derived floor covers non-nanosecond metrics too: the global floor
        // never applied to rates, but a recorded spread does.
        let previous = snapshot(&[
            ("victim_rate", Metric::Num(1.0)),
            ("victim_rate_spread", Metric::Num(0.2)),
        ]);
        let current = snapshot(&[
            ("victim_rate", Metric::Num(0.7)),
            ("victim_rate_spread", Metric::Num(0.2)),
        ]);
        let diff = compare_trajectories(&previous, &current);
        assert_eq!((diff.warnings, diff.failures), (0, 0));
    }

    #[test]
    fn sparkline_normalizes_and_marks_missing_samples() {
        assert_eq!(
            sparkline(&[Some(0.0), Some(3.5), Some(7.0)]),
            "▁▅█".to_string()
        );
        assert_eq!(sparkline(&[Some(5.0), None, Some(5.0)]), "▄·▄".to_string());
        assert_eq!(sparkline(&[None, None]), "··".to_string());
    }

    #[test]
    fn history_table_tracks_gated_metrics_across_snapshots() {
        let older = snapshot(&[
            ("pages_per_sec", Metric::Num(100.0)),
            ("threads", Metric::Num(8.0)),
            ("p99_ns_spread", Metric::Num(50.0)),
        ]);
        let newer = snapshot(&[
            ("pages_per_sec", Metric::Num(200.0)),
            ("violations", Metric::Num(0.0)),
            ("threads", Metric::Num(8.0)),
        ]);
        let table = render_history(&[(6, older), (7, newer)]);
        assert!(table.contains("BENCH_6 -> BENCH_7"), "got:\n{table}");
        // The throughput metric trends across both snapshots...
        assert!(
            table.contains("demo/pages_per_sec") && table.contains("100.000 -> 200.000"),
            "got:\n{table}"
        );
        // ...a late-added correctness counter shows a leading gap...
        assert!(table.contains("demo/violations"), "got:\n{table}");
        assert!(table.contains('·'), "got:\n{table}");
        // ...and informational keys (workload shape, spreads) stay out.
        assert!(!table.contains("demo/threads"), "got:\n{table}");
        assert!(!table.contains("spread"), "got:\n{table}");
    }

    #[test]
    fn dropped_benches_and_metrics_warn_but_new_coverage_passes() {
        let previous = vec![
            BenchReport {
                bench: "kept".to_string(),
                results: vec![("pages_per_sec".to_string(), Metric::Num(10.0))],
            },
            BenchReport {
                bench: "gone".to_string(),
                results: vec![],
            },
        ];
        let current = vec![
            BenchReport {
                bench: "kept".to_string(),
                results: vec![("threads".to_string(), Metric::Num(8.0))],
            },
            BenchReport {
                bench: "brand_new".to_string(),
                results: vec![("violations".to_string(), Metric::Num(0.0))],
            },
        ];
        let diff = compare_trajectories(&previous, &current);
        // One warn for the vanished bench, one for the vanished metric; the
        // new bench and metric gate nothing.
        assert_eq!((diff.warnings, diff.failures), (2, 0));
    }
}
