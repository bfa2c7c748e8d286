//! # escudo-bench
//!
//! The experiment harness that regenerates the ESCUDO paper's evaluation:
//!
//! * [`workload`] — the Figure 4 page generator: eight scenarios with varying numbers
//!   of AC-tagged regions and dynamic content,
//! * [`cli`] — flag parsing and the `--json` report shared by the bench
//!   binaries: every metric is recorded with its declared kind, and the report
//!   owns the bench's zero, threshold and no-collapse gates,
//! * [`measure`] — timed page loads and event dispatches under either policy mode,
//!   plus the timing kit every bench shares: [`spawn_join`](measure::spawn_join)
//!   (ordered scoped spawn-and-join), [`timed_threads`](measure::timed_threads)
//!   (one barrier-released window from the earliest start to the latest
//!   finish), the [`Rate`] sample, [`best_of`]
//!   and the nearest-rank [`p99_ns`](measure::p99_ns),
//! * [`oracle`] — the mediation oracles the tier-1 tests share: one session
//!   [`Transcript`](oracle::Transcript) whose diff counts log, attachment,
//!   order and mediation mismatches, one leak scan over a shared log, one
//!   scenario-matrix run under a session hook, and the two-pass labelling
//!   [`label_oracle`](oracle::label_oracle) the loader's walk is held to,
//! * [`concurrent`] — the concurrent decision-throughput and cookie-jar
//!   header-build measurements behind `policy_concurrent` and
//!   `jar_concurrent`, plus the jar oracle script,
//! * [`loader`] — the pipelined-subresource-loader world over a shared network
//!   fabric with simulated per-origin latency, and the pipelined-vs-sequential
//!   page-load timing behind `loader_concurrent`,
//! * [`scheduler`] — the fetch-scheduling workload behind
//!   `scheduler_concurrent`: navigation p99 latency next to busy siblings and
//!   the speculative-prefetch speedup, plus the prefetch-on-vs-off oracle run,
//! * [`cache`] — the cacheable site and the repeat-navigation speedup behind
//!   `cache_concurrent`,
//! * [`tenant`] — noisy-neighbor isolation across per-tenant engines, behind
//!   `tenant_concurrent`,
//! * [`trajectory`] — the perf-trajectory comparator that diffs a fresh merged
//!   bench report against the committed `BENCH_<PR>.json` snapshot (the
//!   `trajectory` binary CI gates each PR with),
//! * [`experiments`] — the report types printed by the `experiments` binary and
//!   summarized in README.md's "Experiments" section (Figure 4, UI events, §6.3,
//!   §6.4, Tables 1–5).
//!
//! The `harness = false` bench binaries in `benches/` use the same workload and
//! measurement code, so `cargo bench` and `cargo run --bin experiments` agree on
//! what is being measured. The benches run only timed measurements and the
//! checks computed from them; every deterministic gate (oracles, matrices,
//! manual-clock drills, isolation runs) is a tier-1 test that `cargo test`
//! runs, in this crate's module tests or in the workspace's `tests/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod concurrent;
pub mod experiments;
pub mod loader;
pub mod measure;
pub mod oracle;
pub mod scheduler;
pub mod tenant;
pub mod trajectory;
pub mod workload;

pub use concurrent::measure_concurrent_throughput;
pub use experiments::{CompatReport, EventReport, Figure4Report, Figure4Row};
pub use measure::{best_of, load_once, measure_decision_paths, DecisionReport, LoadSample, Rate};
pub use workload::{decision_workload, figure4_scenarios, generate_page, DecisionCheck, Scenario};
