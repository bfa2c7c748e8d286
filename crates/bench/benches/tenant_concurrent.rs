//! The multi-tenant control plane under pressure: noisy-neighbor isolation.
//!
//! Run with `cargo bench --bench tenant_concurrent` (optionally
//! `-- --threads N --batches B --json path`). This is a plain
//! `harness = false` binary; it exits non-zero if a behavioural gate fails:
//!
//! * **isolation gate** — tenant B's p99 grid-mediation latency under
//!   tenant A's storm must stay within **3×** of its unloaded baseline. On a
//!   host without two hardware threads the storm and the victim timeshare
//!   one core, so the p99 ratio measures the OS scheduler, not tenant
//!   isolation — there the gate degrades to observability with the reason
//!   printed.
//!
//! Each tenant publishes its policy (generation and mode) as one atomic word.
//! A monitor pins it with one load, and a browser session pins once per
//! navigation, event dispatch and prefetch, so a hot reload takes effect at
//! the next of those. The storm's mediation and the victim's share no lock
//! and no counter.
//!
//! Per-tenant isolation, admission, refill and hot reload are exactly
//! countable, so their gates are tier-1 tests in `escudo_bench::tenant`:
//! `noisy_neighbor_decides_only_on_its_own_engine`,
//! `admission_burst_is_exactly_countable`,
//! `admission_refill_is_exact_under_the_manual_clock` and
//! `hot_reload_storm_observes_no_torn_plans_and_no_leaks`.
//!
//! The report also exports one [`ControlPlaneSnapshot`] of a deterministic
//! two-tenant browsing scenario (`cp_*` keys, including the rolled-up
//! `cp_health` verdict: 0 ok / 1 degraded / 2 failing) — the unified
//! observability surface the control plane promises, flattened through its
//! stable field layout.

use escudo_bench::cli::{parse_flag, JsonReport, Kind};
use escudo_bench::tenant::run_noisy_neighbor;
use escudo_browser::{Browser, ControlPlaneSnapshot};
use escudo_core::tenant::{TenantConfig, TenantRegistry};
use escudo_net::{Request, Response, Server};

/// Maximum contended-over-baseline p99 ratio for the victim tenant.
const MAX_NEIGHBOR_P99_RATIO: f64 = 3.0;

struct StaticPage;
impl Server for StaticPage {
    fn handle(&mut self, req: &Request) -> Response {
        let page = Response::ok_html("<html><body ring=1><p id=x>tenant page</p></body></html>");
        if req.url.path() == "/login.php" {
            page.with_cookie(escudo_net::SetCookie::new("sid", "cp"))
        } else {
            page
        }
    }
}

/// The `cp_*` exports the trajectory judges; every other snapshot field is
/// [`Kind::Info`]. These are observability counters of one deterministic
/// scenario, not gated properties of the build, and are kept judged so the
/// trajectory's verdicts do not move until the metrics surface is redesigned.
const JUDGED_SNAPSHOT_FIELDS: [(&str, Kind); 4] = [
    ("erm_audit_retained", Kind::Higher),
    ("erm_audit_dropped", Kind::Correctness),
    ("fabric_dropped_log_entries", Kind::Correctness),
    ("fabric_wait_overshoot_ns", Kind::LowerNs),
];

/// Loads a deterministic two-tenant scenario and exports its
/// [`ControlPlaneSnapshot`] fields under `cp_*` keys.
fn export_snapshot(json: &mut JsonReport) {
    let registry = TenantRegistry::new();
    let alpha = registry.register("alpha", TenantConfig::default());
    registry.register("beta", TenantConfig::default().with_admission(100, 0));

    let mut browser = Browser::with_tenant(alpha);
    browser.fabric().register("http://app.example", StaticPage);
    for page in ["/login.php", "/a.php", "/b.php", "/a.php"] {
        browser
            .navigate(&format!("http://app.example{page}"))
            .expect("tenant navigation");
    }
    let snapshot = ControlPlaneSnapshot::from_browser(&browser, Some(&registry));
    for (key, value) in snapshot.fields() {
        let kind = JUDGED_SNAPSHOT_FIELDS
            .iter()
            .find(|(field, _)| *field == key)
            .map_or(Kind::Info, |(_, kind)| *kind);
        json.record(kind, &format!("cp_{key}"), value);
    }
    let health = snapshot.health();
    println!("control-plane health: {health}");
    json.record(Kind::Info, "cp_health", health.code());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let storm_threads = parse_flag(&args, "--threads", 8).max(1);
    let batches = parse_flag(&args, "--batches", 60).max(10);
    println!(
        "tenant_concurrent: {storm_threads} storm threads, {batches} victim batches per repeat"
    );

    let mut json = JsonReport::new("tenant_concurrent");
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json.record(Kind::Info, "storm_threads", storm_threads)
        .record(Kind::Info, "victim_batches", batches)
        .record(Kind::Info, "hardware_threads", hardware_threads);

    // --------------------------------------------------------- isolation gate
    let neighbor = run_noisy_neighbor(storm_threads, batches, 5);
    let degradation = neighbor.contended_p99_ns as f64 / neighbor.baseline_p99_ns.max(1) as f64;
    println!(
        "victim p99: {} ns alone, {} ns under the {}-thread storm ({degradation:.2}x); \
         storm pushed {} decisions",
        neighbor.baseline_p99_ns,
        neighbor.contended_p99_ns,
        neighbor.storm_threads,
        neighbor.storm_decisions,
    );
    json.record(
        Kind::LowerNs,
        "neighbor_baseline_p99_ns",
        neighbor.baseline_p99_ns,
    )
    .spread("neighbor_baseline_p99_ns", neighbor.baseline_p99_spread_ns)
    .record(
        Kind::LowerNs,
        "neighbor_contended_p99_ns",
        neighbor.contended_p99_ns,
    )
    .spread(
        "neighbor_contended_p99_ns",
        neighbor.contended_p99_spread_ns,
    )
    .record(Kind::Info, "neighbor_degradation", degradation)
    .record(Kind::Info, "storm_decisions", neighbor.storm_decisions);
    if hardware_threads < 2 {
        println!(
            "note: single hardware thread — the storm and the victim timeshare one core, so \
             the p99 ratio measures the OS scheduler, not tenant isolation; ratio gate skipped"
        );
    } else {
        json.check(
            degradation <= MAX_NEIGHBOR_P99_RATIO,
            format_args!(
                "victim p99 {degradation:.2}x of baseline under the storm (gate: ≤ \
                 {MAX_NEIGHBOR_P99_RATIO:.1}x, or the noisy neighbor is stalling the victim's \
                 mediation)"
            ),
        );
    }

    // ------------------------------------------------------- snapshot export
    export_snapshot(&mut json);
    json.finish(&args);
}
