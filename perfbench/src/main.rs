//! Benchmark of the Kronecker stack, one workload per process.
//!
//! ```text
//! kron-perfbench --workload <gen_2d_spill|ground_truth_check|serve_lookup|serve_rows>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workload's inputs derive from `--seed`. Ops run until `--seconds`
//! of timed work is done; every op's output is checked bit-exactly
//! against the factor-only ground truth, outside the timed region. The
//! last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). See `README.md` beside this crate.

mod gen;
mod gt;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use kron_core::KroneckerPair;
use kron_graph::generators::{rmat, RmatConfig};
use kron_obs::alloc::{measure, Measure};

/// Every workload reports these with `--trace 0` (name, unit).
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("peak_heap_bytes", "bytes"),
];

/// Every workload reports these with `--trace 1`; a layer the workload
/// never calls reads 0 (name, unit).
const PER_LAYER: &[(&str, &str)] = &[
    ("dist.generate_s", "s"),
    ("dist.retransmissions", "count"),
    ("dist.redeliveries_discarded", "count"),
    ("dist.messages", "count"),
    ("dist.remote_fraction", "ratio"),
    ("dist.generate_peak_heap_bytes", "bytes"),
    ("shard.spill_runs", "count"),
    ("shard.spill_bytes", "bytes"),
    ("shard.krsc_bytes", "bytes"),
    ("shard.merge_passes", "count"),
    ("shard.offsets_rewritten", "count"),
    ("shard.build_s", "s"),
    ("shard.build_peak_heap_bytes", "bytes"),
    ("core.synthesize_csr_s", "s"),
    ("analytics.triangles_s", "s"),
    ("analytics.bfs_s", "s"),
    ("core.oracle_s", "s"),
    ("gt.allocs_per_op", "count"),
    ("serve.engine_ns_per_query", "ns"),
    ("serve.stage.queue_ns_p50", "ns"),
    ("serve.stage.queue_ns_p90", "ns"),
    ("serve.stage.engine_ns_p50", "ns"),
    ("serve.stage.engine_ns_p90", "ns"),
    ("serve.stage.cache_ns_p50", "ns"),
    ("serve.stage.cache_ns_p90", "ns"),
    ("serve.stage.write_ns_p50", "ns"),
    ("serve.stage.write_ns_p90", "ns"),
    ("serve.cache_lookups", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.reply_bytes_per_query", "bytes"),
    ("serve.flight_overflow", "count"),
    ("obs.trace_overhead_pct", "%"),
];

/// Directory, relative to the working directory, for spill files and
/// trace output.
const OUT_DIR: &str = ".perfbench";

/// No run may take longer than this, set-up and verification included.
const WALL_LIMIT: Duration = Duration::from_secs(150);

/// Result of one workload run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

/// What every workload receives.
pub struct RunConfig {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: trace::Tracer,
    pub deadline: Instant,
}

impl RunConfig {
    /// `1 / parts` of the run's `--seconds` of timed work, cut off at the
    /// process deadline.
    pub fn budget_share(&self, parts: f64) -> stats::Budget {
        let wall = self.deadline.saturating_duration_since(Instant::now());
        stats::Budget::new(Duration::from_secs_f64(self.seconds / parts), wall)
    }
}

/// The op loop of the library workloads: runs `op(instance, op_index,
/// tracer)` until the budget is spent, cycling through `instances`
/// inputs, and returns each op's record with whether it was traced.
/// Traced runs alternate traced and untraced ops on the same instance, so
/// the tracing overhead is measured on equal work. Before each op,
/// untimed for the op, `cold_setup(instance)` repeats the program's
/// set-up `setup_reps` times; the median wall time of each op's
/// repetitions is returned too, so set-up is sampled across the whole
/// run rather than only at its start.
pub fn op_loop<R>(
    cfg: &mut RunConfig,
    instances: usize,
    setup_reps: usize,
    secs: impl Fn(&R) -> f64,
    mut cold_setup: impl FnMut(usize),
    mut op: impl FnMut(usize, u64, &mut trace::Tracer) -> R,
) -> (Vec<(bool, R)>, Vec<f64>) {
    let traced = cfg.tracer.enabled();
    let mut budget = cfg.budget_share(1.0);
    let mut records = Vec::new();
    let mut setup_s = Vec::new();
    let mut burst = Vec::with_capacity(setup_reps);
    let mut k = 0;
    while !budget.exhausted() || records.is_empty() {
        let trace_this = traced && k % 2 == 0;
        let slot = if traced { k / 2 } else { k } as usize % instances;
        burst.clear();
        for _ in 0..setup_reps {
            let t = Instant::now();
            cold_setup(slot);
            burst.push(t.elapsed().as_secs_f64());
        }
        setup_s.push(stats::median_f64(&burst));
        let mut off = trace::Tracer::new(false);
        let tracer = if trace_this {
            &mut cfg.tracer
        } else {
            &mut off
        };
        let r = op(slot, k, tracer);
        budget.charge(Duration::from_secs_f64(secs(&r)));
        records.push((trace_this, r));
        k += 1;
    }
    (records, setup_s)
}

/// End-to-end metrics of a library workload from its ops' product arcs,
/// seconds and heap peak. `work_per_s` is all arcs over all timed
/// seconds, so it weighs the run's instances by their size;
/// `peak_heap_bytes` is the mean of the ops' peaks.
pub fn batch_metrics(setup_s: f64, ops: &[(u64, f64, u64)]) -> BTreeMap<&'static str, f64> {
    let secs: Vec<f64> = ops.iter().map(|o| o.1).collect();
    let mut us: Vec<u64> = secs.iter().map(|s| (s * 1e6) as u64).collect();
    let arcs: u64 = ops.iter().map(|o| o.0).sum();
    let peaks: Vec<f64> = ops.iter().map(|o| o.2 as f64).collect();
    BTreeMap::from([
        ("setup_s", setup_s),
        ("work_per_s", arcs as f64 / secs.iter().sum::<f64>()),
        ("op_p50_us", stats::median_f64(&secs) * 1e6),
        ("op_p90_us", stats::percentile(&mut us, 0.9) as f64),
        ("peak_heap_bytes", stats::mean_f64(&peaks)),
    ])
}

/// Derives an independent 64-bit seed for `stream` from the workload
/// seed (splitmix64 finalizer).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeds of the `n` input instances a run cycles through. Each op (or,
/// for serve, each slice of the run) uses another instance, so a run's
/// figures average over several factor pairs rather than resting on one.
pub fn instance_seeds(seed: u64, n: u64) -> impl Iterator<Item = u64> {
    (0..n).map(move |i| derive_seed(seed, 0x100 + i))
}

/// The program's own set-up for the library workloads: two graph500
/// R-MAT factors at `scale` and the full-self-loop pair over them.
pub fn factors(scale: u32, seed: u64) -> KroneckerPair {
    let a = rmat(&RmatConfig::graph500(scale, derive_seed(seed, 1)));
    let b = rmat(&RmatConfig::graph500(scale, derive_seed(seed, 2)));
    KroneckerPair::with_full_self_loops(a, b).expect("R-MAT factors are loop-free")
}

/// [`measure`] when `on`, else a plain call. `measure` calls do not
/// nest (an inner one resets the watermark), so callers measure either
/// a whole op or its parts.
pub fn measure_when<T>(on: bool, f: impl FnOnce() -> T) -> (T, Measure) {
    if on {
        measure(f)
    } else {
        (f(), Measure::default())
    }
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let workload = get("--workload")?.to_string();
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} outside (0, 120]"));
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok((workload, seed, seconds, trace))
}

/// Online CPUs (`nproc` of the machine), CPU model, the CPUs this
/// process may run on, and where spill files go — printed with every
/// report.
fn host_record(spill_dir: &str) -> String {
    let read = |path: &str, key: &str| -> String {
        std::fs::read_to_string(path)
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with(key))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let cpu = read("/proc/cpuinfo", "model name").replace('"', "'");
    let allowed = read("/proc/self/status", "Cpus_allowed_list");
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": \"{cpu}\", \"cpus_allowed\": \"{allowed}\", \
         \"spill_dir\": \"{spill_dir}\"}}"
    )
}

fn result_json(outcome: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "metric {name} is not finite: {value}");
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

fn main() {
    let started = Instant::now();
    let (workload, seed, seconds, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kron-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let spill_dir = out_dir.join("spill");
    let mut cfg = RunConfig {
        seed,
        seconds,
        tracer: trace::Tracer::new(traced),
        deadline: started + WALL_LIMIT,
    };
    let outcome = match workload.as_str() {
        "gen_2d_spill" => gen::run(&mut cfg, &spill_dir),
        "ground_truth_check" => gt::run(&mut cfg),
        "serve_lookup" => serve::run(&mut cfg, &serve::LOOKUP),
        "serve_rows" => serve::run(&mut cfg, &serve::ROWS),
        other => {
            eprintln!("kron-perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let names = if traced { PER_LAYER } else { END_TO_END };
    for name in outcome.metrics.keys() {
        assert!(
            names.iter().any(|(n, _)| n == name),
            "workload reported undeclared metric {name}"
        );
    }
    if traced {
        let path = out_dir.join("trace").join(format!("{workload}-{seed}.tsv"));
        let header = format!("workload={workload} seed={seed} seconds={seconds}");
        cfg.tracer
            .write_tsv(&path, &header)
            .expect("write trace file");
        for (name, t) in cfg.tracer.layer_times() {
            eprintln!(
                "trace: {name}: {} spans, self {:.6} s, total {:.6} s",
                t.spans,
                t.self_ns as f64 * 1e-9,
                t.total_ns as f64 * 1e-9
            );
        }
        eprintln!(
            "trace: {} spans written to {}",
            cfg.tracer.len(),
            path.display()
        );
    }
    println!("# host {}", host_record(&spill_dir.display().to_string()));
    println!("{}", result_json(&outcome, names));
}
