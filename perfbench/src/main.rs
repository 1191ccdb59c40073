//! End-to-end and per-layer benchmark of RX as a served index.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from the seed, sets the system up
//! several times (reporting the median set-up time), measures for the given
//! number of seconds and checks every answer against the `rtx-workloads`
//! oracles. A wrong answer exits with code 1 and prints no result line.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload twice on identical work, untraced and then traced, and prints
//! the per-layer metrics of the traced pass, the tracing overhead, and
//! fails when a counter that must repeat exactly differs between the two
//! passes. See `README.md` for the metric definitions.

mod client;
mod direct;
mod durable;
mod layers;
mod report;
mod served;
mod table;
mod trace;

use std::path::PathBuf;
use std::time::Instant;

use report::{median, Report};
use rtindex::Device;

/// The end-to-end metrics of every untraced run, in result-line order.
pub const END_TO_END: [&str; 4] = [
    "setup_s",
    "cpu_us_per_op",
    "index_bytes_per_key",
    "peak_rss_mb",
];

/// The per-layer metrics of every traced run, in result-line order.
pub const PER_LAYER: [&str; 45] = [
    "throughput_ops_s",
    "lookup_p50_ms",
    "lookup_p99_ms",
    "model_lookup_ops_s",
    "write_p50_ms",
    "write_p99_ms",
    "failed_share",
    "device.dram_bytes_per_op",
    "device.l2_hit_share",
    "bvh.nodes_visited_per_op",
    "bvh.prim_tests_per_op",
    "bvh.range_hits_per_prim_test",
    "build.host_s",
    "build.model_ms",
    "build.scratch_mb",
    "query.point_ns_per_op",
    "query.range_ns_per_op",
    "query.launch_share",
    "shard.self_ns_per_op",
    "shard.imbalance_permille",
    "shard.rebalanced_rows",
    "serve.submit_ns",
    "serve.wait_ns",
    "serve.backend_busy_share",
    "serve.fused_ops_per_submission",
    "serve.mean_linger_us",
    "serve.peak_queued_ops",
    "serve.rejected_share",
    "serve.write_stall_ms_max",
    "serve.write_stall_ms_total",
    "delta.compactions",
    "delta.bytes",
    "durable.fsyncs_per_write_batch",
    "durable.write_ns_per_row",
    "durable.disk_bytes_per_user_byte",
    "durable.snapshots",
    "durable.snapshot_mb",
    "table.ingest_ns_per_op",
    "table.rebuilds_per_ingest",
    "table.delta_ops_per_ingest",
    "table.query_ns_per_predicate",
    "table.routed_share",
    "driver.late_p99_ms",
    "trace.overhead_ratio",
    "trace.unattributed_share",
];

/// User-visible metrics that cannot be gated end to end: wall-clock rates
/// and latencies, which other tenants of a shared host move by more than
/// any bound a gate may use, and metrics only some workloads have.
/// Untraced runs print them as `metric` lines; the traced run carries them
/// per layer, from its untraced pass.
const UNGATED: [(&str, &str); 6] = [
    ("throughput_ops_s", "ops/s"),
    ("lookup_p50_ms", "ms"),
    ("lookup_p99_ms", "ms"),
    ("model_lookup_ops_s", "ops/s"),
    ("write_p50_ms", "ms"),
    ("write_p99_ms", "ms"),
];

/// Set-ups per untraced run: at least `MIN_SETUPS`, and more, up to
/// `MAX_SETUPS`, while they have taken less than `SETUP_BUDGET_S` in all, so
/// that quick set-ups get a steadier median. `setup_s` is their median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 41;
const SETUP_BUDGET_S: f64 = 3.0;

/// What a workload run sees: its seed, its scratch directory and the
/// simulated device.
pub struct Ctx {
    pub seed: u64,
    pub device: Device,
    /// Per-run scratch directory (WALs), removed when the run ends.
    pub tmp: PathBuf,
    /// Self-test switch: perturbs one oracle expectation, so the run must
    /// report a wrong answer.
    pub corrupt_oracle: bool,
}

impl Ctx {
    /// A fresh, empty directory under the run's scratch directory.
    pub fn fresh_dir(&self, name: &str) -> PathBuf {
        let dir = self.tmp.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

/// How much a measured pass runs.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    Seconds(f64),
    /// Exactly this much work, as counted by [`Pass::work`] of an earlier
    /// pass (the traced pass replays the untraced pass's work).
    Work(u64),
}

impl Limit {
    /// True once `done` units of work or the time budget are used up.
    pub fn reached(&self, started: Instant, done: u64) -> bool {
        match *self {
            Limit::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Limit::Work(n) => done >= n,
        }
    }
}

/// The outcome of one measured pass.
#[derive(Default)]
pub struct Pass {
    /// Units of work the pass completed (its [`Limit::Work`] measure).
    pub work: u64,
    /// Wall time of the work the two passes share, for the overhead.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (and the workload-specific ones kept per layer).
    pub metrics: Report,
    /// `VmHWM` in KiB when the measured work ended, read before any
    /// after-run check builds oracle state.
    pub peak_rss_kb: f64,
    /// Per-layer metrics, filled from the spans when the pass was traced.
    pub layers: Report,
    /// Counters that must repeat exactly on identical work.
    pub fidelity: Vec<(&'static str, f64)>,
}

/// A benchmark workload: inputs from the seed, a timed set-up, and a
/// measured pass over the set-up state.
pub trait Workload {
    type Inputs;
    type State;
    fn inputs(&self, ctx: &Ctx) -> Self::Inputs;
    /// Builds the system from the inputs; returns the state and the set-up
    /// time in seconds.
    fn setup(&self, ctx: &Ctx, inputs: &Self::Inputs, traced: bool) -> (Self::State, f64);
    /// Measures under `limit`. `Err` is a wrong answer.
    fn measure(
        &self,
        ctx: &Ctx,
        inputs: &Self::Inputs,
        state: Self::State,
        limit: Limit,
        traced: bool,
    ) -> Result<Pass, String>;
}

fn untraced_run<W: Workload>(w: &W, ctx: &Ctx, seconds: f64) -> Result<(), String> {
    let inputs = w.inputs(ctx);
    // The peak counts one set-up and the measured run on a heap that no
    // earlier set-up has used; the other timed set-ups come after the run.
    let baseline_kb = report::reset_peak_rss_kb();
    let (state, secs) = w.setup(ctx, &inputs, false);
    let mut setups = vec![secs];
    let mut pass = w.measure(ctx, &inputs, state, Limit::Seconds(seconds), false)?;
    println!(
        "rss baseline {:.1} peak {:.1} MiB",
        baseline_kb / 1024.0,
        pass.peak_rss_kb / 1024.0
    );
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        let (_, secs) = w.setup(ctx, &inputs, false);
        setups.push(secs);
    }
    println!(
        "setups {} min {:.4} median {:.4} max {:.4} s",
        setups.len(),
        setups.iter().copied().fold(f64::INFINITY, f64::min),
        median(&setups),
        setups.iter().copied().fold(0.0, f64::max),
    );
    pass.metrics.set("setup_s", median(&setups), "s");
    pass.metrics.set(
        "peak_rss_mb",
        (pass.peak_rss_kb - baseline_kb) / 1024.0,
        "MiB",
    );
    let failed_share = pass.failed as f64 / pass.attempted.max(1) as f64;
    pass.metrics.set("failed_share", failed_share, "share");
    pass.metrics.print_lines();
    println!(
        "{}",
        pass.metrics
            .json_line(&END_TO_END, pass.attempted, pass.failed)
    );
    Ok(())
}

fn traced_run<W: Workload>(w: &W, ctx: &Ctx, seconds: f64, name: &str) -> Result<(), String> {
    let t = trace::tracer();
    let inputs = w.inputs(ctx);
    let (state, _) = w.setup(ctx, &inputs, false);
    let plain = w.measure(ctx, &inputs, state, Limit::Seconds(seconds / 2.0), false)?;

    t.set_enabled(true);
    let (state, _) = w.setup(ctx, &inputs, true);
    t.reset();
    let mut traced = w.measure(ctx, &inputs, state, Limit::Work(plain.work), true)?;
    t.set_enabled(false);

    for ((name_a, a), (name_b, b)) in plain.fidelity.iter().zip(&traced.fidelity) {
        assert_eq!(name_a, name_b, "fidelity counters listed in one order");
        if a != b {
            return Err(format!(
                "traced-run fidelity: {name_a} is {a} untraced but {b} traced"
            ));
        }
        println!("fidelity {name_a} {a} (equal in both passes)");
    }
    let overhead = traced.wall_s / plain.wall_s;
    traced.layers.set("trace.overhead_ratio", overhead, "ratio");
    // The workload-level metrics kept with the layers come from the
    // untraced pass, like every end-to-end metric.
    for (name, unit) in UNGATED {
        match plain.metrics.get(name) {
            Some(v) => traced.layers.set(name, v, unit),
            None => traced.layers.absent(
                name,
                unit,
                &format!("{name} is not measured on this workload"),
            ),
        }
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    traced.layers.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        "share",
    );

    let spans = t.take_spans();
    let path = ctx
        .tmp
        .parent()
        .expect("scratch dir has a parent")
        .join(format!("trace-{name}-{}.tsv", ctx.seed));
    match trace::write_spans(&path, &spans) {
        Ok(()) => println!("spans {} written to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
    traced.layers.print_lines();
    println!("{}", traced.layers.json_line(&PER_LAYER, attempted, failed));
    Ok(())
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <direct_lookup|served_zipf|durable_mix|table_ingest> \
         --seed <n> --seconds <s> --trace <0|1> [--corrupt-oracle]"
    );
    std::process::exit(2);
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_oracle: bool,
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut corrupt_oracle = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--corrupt-oracle" {
            corrupt_oracle = true;
            continue;
        }
        let Some(value) = args.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
            corrupt_oracle,
        },
        _ => usage(),
    }
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Pins glibc's malloc to `arenas` arenas and a fixed mmap threshold, so
/// that `peak_rss_mb` measures the program's memory rather than what the
/// allocator happened to keep. By default glibc gives up to eight arenas
/// per core, and raises its mmap threshold after every large free, so large
/// buffers (a compaction's build scratch, a snapshot) land on the heap and
/// stay resident after they are freed. On `durable_mix` on a 2-vCPU VM the
/// two moved `peak_rss_mb` between 490 and 675 MiB over 10 seeds; pinned,
/// it read 288-307 MiB.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc(arenas: usize) {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // Parameter numbers from glibc's `malloc.h`.
    const M_MMAP_THRESHOLD: i32 = -3;
    const M_ARENA_MAX: i32 = -8;
    /// glibc's default starting threshold; setting it turns off the
    /// dynamic adjustment.
    const MMAP_THRESHOLD: i32 = 128 << 10;
    let arenas = i32::try_from(arenas).unwrap_or(i32::MAX);
    // SAFETY: mallopt only sets allocator tunables; it is called before
    // this program starts any thread.
    unsafe {
        mallopt(M_ARENA_MAX, arenas);
        mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc(_arenas: usize) {}

fn main() {
    let args = parse_args();
    // The simulated build cost scales with the worker count, so the pool
    // is pinned to the machine's parallelism and recorded; so is malloc.
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    pin_malloc(workers);
    std::env::set_var("RTX_WORKERS", workers.to_string());
    let root = PathBuf::from(".perfbench");
    let tmp = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        std::process::exit(2);
    }
    let _scratch = ScratchDir(tmp.clone());
    let ctx = Ctx {
        seed: args.seed,
        device: Device::default_eval(),
        tmp,
        corrupt_oracle: args.corrupt_oracle,
    };
    println!(
        "env workload={} seed={} seconds={} trace={} RTX_WORKERS={workers} \
         malloc_arenas={workers} mmap_threshold_kib=128 modelled_l2_mib={} fsync=Always",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.device.spec().l2_bytes >> 20,
    );
    let result = match args.workload.as_str() {
        "direct_lookup" => dispatch(&direct::Direct, &ctx, &args),
        "served_zipf" => dispatch(&served::Served, &ctx, &args),
        "durable_mix" => dispatch(&durable::Durable, &ctx, &args),
        "table_ingest" => dispatch(&table::TableIngest, &ctx, &args),
        _ => usage(),
    };
    if let Err(message) = result {
        eprintln!("WRONG ANSWER: {message}");
        drop(_scratch);
        std::process::exit(1);
    }
}

fn dispatch<W: Workload>(w: &W, ctx: &Ctx, args: &Args) -> Result<(), String> {
    if args.trace {
        traced_run(w, ctx, args.seconds, &args.workload)
    } else {
        untraced_run(w, ctx, args.seconds)
    }
}
