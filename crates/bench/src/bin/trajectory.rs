//! Thin CLI wrapper over [`escudo_bench::trajectory::run_comparator`]: diffs a
//! freshly measured merged bench report against the committed trajectory
//! snapshot and exits non-zero when a gated metric regressed.
//!
//! ```text
//! cargo run -p escudo-bench --bin trajectory -- \
//!     --previous BENCH_19.json --current BENCH_19.fresh.json
//! ```

fn main() {
    let args: Vec<String> = std::env::args().collect();
    std::process::exit(escudo_bench::trajectory::run_comparator(&args));
}
