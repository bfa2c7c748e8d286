//! The multi-tenant control plane under pressure: noisy-neighbor isolation,
//! deterministic admission control, and hot reload under storm.
//!
//! Run with `cargo bench --bench tenant_concurrent` (optionally
//! `-- --threads N --batches B --passes P --json path`). This is a plain
//! `harness = false` binary; it exits non-zero if a behavioural gate fails:
//!
//! * **isolation gate** — tenant B's p99 warm-grid mediation latency under
//!   tenant A's 10× cache-churning storm must stay within **3×** of its
//!   unloaded baseline, its warm-cache hit rate must hold a **0.95 floor**,
//!   and A must force **zero** evictions on B's engine (per-tenant caches are
//!   physically disjoint). On a host without two hardware threads the storm
//!   and the victim timeshare one core, so the p99 ratio measures the OS
//!   scheduler, not tenant isolation — that one ratio gate degrades to
//!   observability with the reason printed; the eviction and hit-rate gates
//!   hold regardless,
//! * **admission gate** — a token bucket with `burst` tokens and no refill
//!   must admit exactly `burst` of the fired checks and shed every other one
//!   fail-closed with the distinct `Throttled` attribution,
//! * **refill gate** — under an injected [`ManualClock`] the bucket's refill
//!   is exactly countable: each hand-advanced step mints
//!   `floor(step × rate)` tokens, every one of which admits exactly one
//!   check and the probe beyond it is shed,
//! * **reload gate** — reader threads streaming `check_many` plans through one
//!   tenant while the control plane swaps ESCUDO ↔ same-origin generations
//!   must observe **zero** torn plans (every plan byte-identical to exactly
//!   one generation's `policy::decide` oracle), **zero** dropped or throttled
//!   decisions, and **zero** leaked retired generations (`Weak` witnesses).
//!
//! The report also exports one [`ControlPlaneSnapshot`] of a deterministic
//! two-tenant browsing scenario (`cp_*` keys, including the rolled-up
//! `cp_health` verdict: 0 ok / 1 degraded / 2 failing) — the unified
//! observability surface the control plane promises, flattened through its
//! stable field layout.
//!
//! [`ManualClock`]: escudo_core::tenant::ManualClock

use escudo_bench::cli::{parse_flag, JsonReport};
use escudo_bench::tenant::{
    run_admission_burst, run_admission_refill, run_hot_reload_storm, run_noisy_neighbor,
};
use escudo_browser::{Browser, ControlPlaneSnapshot};
use escudo_core::tenant::{TenantConfig, TenantRegistry};
use escudo_net::{Request, Response, Server};

/// Maximum contended-over-baseline p99 ratio for the victim tenant.
const MAX_NEIGHBOR_P99_RATIO: f64 = 3.0;

/// Minimum warm-cache hit rate the victim must hold under the storm.
const MIN_VICTIM_HIT_RATE: f64 = 0.95;

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
        json.num(&format!("cp_{key}"), value);
    }
    let health = snapshot.health();
    println!("control-plane health: {health}");
    json.int("cp_health", health.code());
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let storm_threads = parse_flag(&args, "--threads", 8).max(1);
    let batches = parse_flag(&args, "--batches", 60).max(10);
    let passes = parse_flag(&args, "--passes", 200).max(20);
    println!(
        "tenant_concurrent: {storm_threads} storm threads, {batches} victim batches per repeat, \
         {passes} reload passes per reader"
    );

    let mut failed = false;
    let mut json = JsonReport::new("tenant_concurrent");
    let hardware_threads =
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    json.int("storm_threads", storm_threads as u64)
        .int("victim_batches", batches as u64)
        .int("reload_passes", passes as u64)
        .int("hardware_threads", hardware_threads as u64);

    // --------------------------------------------------------- isolation gate
    let neighbor = run_noisy_neighbor(storm_threads, batches, 5);
    let degradation = neighbor.contended_p99_ns as f64 / neighbor.baseline_p99_ns.max(1) as f64;
    println!(
        "victim p99: {} ns alone, {} ns under the {}-thread storm ({degradation:.2}x); \
         hit rate {:.4}, {} victim evictions; storm pushed {} decisions, {} self-evictions",
        neighbor.baseline_p99_ns,
        neighbor.contended_p99_ns,
        neighbor.storm_threads,
        neighbor.victim_hit_rate,
        neighbor.victim_evictions,
        neighbor.storm_decisions,
        neighbor.storm_evictions
    );
    json.int("neighbor_baseline_p99_ns", neighbor.baseline_p99_ns)
        .int(
            "neighbor_baseline_p99_ns_spread",
            neighbor.baseline_p99_spread_ns,
        )
        .int("neighbor_contended_p99_ns", neighbor.contended_p99_ns)
        .int(
            "neighbor_contended_p99_ns_spread",
            neighbor.contended_p99_spread_ns,
        )
        .num("neighbor_degradation", degradation)
        .num("victim_hit_rate", neighbor.victim_hit_rate)
        .int("neighbor_eviction_violations", neighbor.victim_evictions)
        .int("storm_decisions", neighbor.storm_decisions);
    if neighbor.victim_evictions != 0 {
        eprintln!(
            "FAIL: the storm evicted {} entries from the victim tenant's cache — per-tenant \
             engines must be disjoint",
            neighbor.victim_evictions
        );
        failed = true;
    }
    if neighbor.victim_hit_rate < MIN_VICTIM_HIT_RATE {
        eprintln!(
            "FAIL: victim warm-cache hit rate {:.4} under the storm (floor: {MIN_VICTIM_HIT_RATE})",
            neighbor.victim_hit_rate
        );
        failed = true;
    }
    if hardware_threads < 2 {
        println!(
            "note: single hardware thread — the storm and the victim timeshare one core, so \
             the p99 ratio measures the OS scheduler, not tenant isolation; ratio gate skipped"
        );
    } else if degradation <= MAX_NEIGHBOR_P99_RATIO {
        println!(
            "ok: victim p99 within {MAX_NEIGHBOR_P99_RATIO:.1}x of baseline under the 10x storm"
        );
    } else {
        eprintln!(
            "FAIL: victim p99 degraded {degradation:.2}x under the storm (gate: ≤ \
             {MAX_NEIGHBOR_P99_RATIO:.1}x) — the noisy neighbor is stalling the victim's mediation"
        );
        failed = true;
    }

    // --------------------------------------------------------- admission gate
    let admission = run_admission_burst(64, 160);
    println!(
        "admission: burst {} / fired {} -> {} admitted, {} rejected, {} throttled denials",
        admission.burst,
        admission.fired,
        admission.admitted,
        admission.rejected,
        admission.throttled_denials
    );
    json.int("admission_burst", admission.burst)
        .int("admission_fired", admission.fired)
        .int("admission_admitted", admission.admitted)
        .int("admission_rejected", admission.rejected)
        .int("admission_throttled", admission.throttled_denials);
    let expected_shed = admission.fired - admission.burst;
    if admission.admitted != admission.burst
        || admission.rejected != expected_shed
        || admission.throttled_denials != expected_shed
    {
        eprintln!(
            "FAIL: token bucket not exactly countable (want {} admitted / {} shed, got {} / {} \
             with {} throttled denials)",
            admission.burst,
            expected_shed,
            admission.admitted,
            admission.rejected,
            admission.throttled_denials
        );
        failed = true;
    }

    // ----------------------------------------------------------- refill gate
    // 125 ms steps at 8 tokens/sec mint exactly one token per step (0.125 is
    // binary-exact), so the refilled bucket is as countable as the burst one.
    let refill = run_admission_refill(4, 8, 6, 125_000_000);
    let minted_per_step =
        (refill.step_ns as f64 / 1e9 * refill.refill_per_sec as f64).floor() as u64;
    let expected_admitted = refill.burst + refill.steps * minted_per_step;
    let expected_rejected = 1 + refill.steps;
    println!(
        "refill: burst {} + {} steps x {} minted -> {} admitted, {} rejected, {} throttled denials",
        refill.burst,
        refill.steps,
        minted_per_step,
        refill.admitted,
        refill.rejected,
        refill.throttled_denials
    );
    json.int("refill_burst", refill.burst)
        .int("refill_steps", refill.steps)
        .int("refill_minted_per_step", minted_per_step)
        .int("refill_admitted", refill.admitted)
        .int("refill_rejected", refill.rejected)
        .int("refill_throttled", refill.throttled_denials);
    if refill.admitted != expected_admitted
        || refill.rejected != expected_rejected
        || refill.throttled_denials != expected_rejected
    {
        eprintln!(
            "FAIL: refill not exactly countable under the manual clock (want {expected_admitted} \
             admitted / {expected_rejected} shed, got {} / {} with {} throttled denials)",
            refill.admitted, refill.rejected, refill.throttled_denials
        );
        failed = true;
    }

    // ------------------------------------------------------------ reload gate
    let reload = run_hot_reload_storm(storm_threads, passes, 9);
    println!(
        "hot reload: {} readers x {} passes across {} swaps -> {} decisions, {} torn plans, \
         {} dropped, {} generations observed, {} retired generations alive",
        reload.threads,
        reload.passes,
        reload.swaps,
        reload.decisions,
        reload.torn_plans,
        reload.dropped_decisions,
        reload.generations_seen,
        reload.retired_generations_alive
    );
    json.int("reload_decisions", reload.decisions)
        .int("reload_torn_plan_violations", reload.torn_plans)
        .int("reload_dropped_decisions", reload.dropped_decisions)
        .int("reload_generations_seen", reload.generations_seen as u64)
        .int(
            "reload_retired_leaks",
            reload.retired_generations_alive as u64,
        );
    if reload.torn_plans != 0 {
        eprintln!(
            "FAIL: {} plans matched neither generation's oracle — a reload tore a mediation \
             plan across generations",
            reload.torn_plans
        );
        failed = true;
    }
    if reload.dropped_decisions != 0 {
        eprintln!(
            "FAIL: {} plans dropped or throttled decisions across the generation swap (gate: 0)",
            reload.dropped_decisions
        );
        failed = true;
    }
    if reload.retired_generations_alive != 0 {
        eprintln!(
            "FAIL: {} retired engine generations still alive after all readers dropped — the \
             handle is leaking old generations",
            reload.retired_generations_alive
        );
        failed = true;
    }

    // ------------------------------------------------------- snapshot export
    export_snapshot(&mut json);

    json.flag("gates_passed", !failed);
    json.write_if_requested(&args);
    if failed {
        std::process::exit(1);
    }
}
