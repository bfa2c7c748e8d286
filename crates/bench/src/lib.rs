//! # escudo-bench
//!
//! The experiment harness that regenerates the ESCUDO paper's evaluation:
//!
//! * [`workload`] — the Figure 4 page generator: eight scenarios with varying numbers
//!   of AC-tagged regions and dynamic content,
//! * [`cli`] — flag parsing and the `--json` report shared by the bench
//!   binaries: every metric is recorded with its declared kind, and the report
//!   owns the bench's zero, threshold and no-collapse gates,
//! * [`interner`] — the first-touch-storm workload racing the lock-free
//!   [`escudo_core::ContextInterner`] against the retained `RwLock<ContextTable>`
//!   reference, behind `interner_concurrent`,
//! * [`measure`] — timed page loads and event dispatches under either policy mode,
//!   plus the timing kit every bench shares: [`spawn_join`](measure::spawn_join)
//!   (ordered scoped spawn-and-join), [`timed_threads`](measure::timed_threads)
//!   (one barrier-released window from the earliest start to the latest
//!   finish), the [`Rate`] sample, [`best_of`]
//!   and the nearest-rank [`p99_ns`](measure::p99_ns),
//! * [`oracle`] — the mediation oracles every bench and integration test
//!   shares: one session [`Transcript`](oracle::Transcript) whose diff counts
//!   log, attachment, order and mediation mismatches, one leak scan over a
//!   shared log, and one scenario-matrix run under a session hook,
//! * [`concurrent`] — the multi-session workload: N OS threads driving independent
//!   forum/blog/calendar sessions against one shared sharded engine, plus the
//!   concurrent decision-throughput measurement behind `policy_concurrent`,
//! * [`loader`] — the pipelined-subresource-loader workload over a shared network
//!   fabric with simulated per-origin latency: pipelined-vs-sequential page-load
//!   timing, the pipelined-vs-sequential transcript oracle and the shared-fabric
//!   isolation run behind `loader_concurrent`,
//! * [`scheduler`] — the fetch-scheduling workload behind
//!   `scheduler_concurrent`: navigation p99 latency next to busy siblings,
//!   the speculative-prefetch speedup, the prefetch-on-vs-off mediation oracle
//!   and the prefetching-session isolation run,
//! * [`cache`] — the mediation-keyed response-cache workloads behind
//!   `cache_concurrent`: repeat-navigation speedup, the cache-on-vs-off
//!   scenario-matrix oracle, cookie-header key isolation, the exactly-countable
//!   manual-clock TTL walk and batch-level single-flight coalescing,
//! * [`fault`] — the chaos workloads behind `fault_concurrent`: the scenario
//!   matrix replayed under injected fault schedules (verdicts and mediation
//!   counts must not move), the retry mediation oracle, and the
//!   exactly-countable breaker drill on a manual clock,
//! * [`tenant`] — the control-plane workloads behind `tenant_concurrent`:
//!   noisy-neighbor isolation across per-tenant engines, deterministic
//!   token-bucket admission, and the hot-reload-under-storm oracle run,
//! * [`trajectory`] — the perf-trajectory comparator that diffs a fresh merged
//!   bench report against the committed `BENCH_<PR>.json` snapshot (the
//!   `trajectory` binary CI gates each PR with),
//! * [`experiments`] — the report types printed by the `experiments` binary and
//!   recorded in `EXPERIMENTS.md` (Figure 4, UI events, §6.3, §6.4, Tables 1–5).
//!
//! The `harness = false` bench binaries in `benches/` use the same workload and
//! measurement code, so `cargo bench` and `cargo run --bin experiments` agree on
//! what is being measured.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod concurrent;
pub mod experiments;
pub mod fault;
pub mod interner;
pub mod loader;
pub mod measure;
pub mod oracle;
pub mod scheduler;
pub mod tenant;
pub mod trajectory;
pub mod workload;

pub use concurrent::{
    measure_concurrent_throughput, run_concurrent_sessions, SessionWorkloadReport,
};
pub use experiments::{CompatReport, EventReport, Figure4Report, Figure4Row};
pub use measure::{best_of, load_once, measure_decision_paths, DecisionReport, LoadSample, Rate};
pub use workload::{decision_workload, figure4_scenarios, generate_page, DecisionCheck, Scenario};
