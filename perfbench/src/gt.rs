//! `ground_truth_check`: the paper's validation use at one thread. Each
//! op materializes `C` with `synthesize_csr`, measures per-vertex
//! triangles and multi-source BFS hop rows on it, and compares them bit
//! for bit with the factor-only oracles (`TriangleOracle`,
//! `DistanceOracle::hops_of`, `closeness_batch`). No exchange, shard or
//! socket code runs.

use std::collections::BTreeSet;
use std::time::Instant;

use kron_analytics::distance::{multi_source_bfs_hops, UNREACHABLE};
use kron_analytics::triangles::vertex_triangles;
use kron_core::closeness::closeness_batch;
use kron_core::distance::DistanceOracle;
use kron_core::generate::synthesize_csr;
use kron_core::triangles::TriangleOracle;
use kron_core::KroneckerPair;
use kron_obs::alloc::measure;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean_f64, median_f64, percentile};
use crate::trace::Tracer;
use crate::{batch_metrics, derive_seed, factors, instance_seeds, op_loop, Outcome, RunConfig};

/// Factor scale: n_C = 2^14, about 4 M product arcs.
pub const SCALE: u32 = 7;
/// BFS sources per op.
const SOURCES: usize = 64;
/// Factor pairs a run cycles through, one per op.
const INSTANCES: u64 = 16;
/// Cold set-ups timed before each op.
const SETUP_REPS: usize = 8;

/// One input instance.
pub struct Inputs {
    /// Seed of the instance's factors and sources.
    pub seed: u64,
    pub pair: KroneckerPair,
    pub sources: Vec<u64>,
}

impl Inputs {
    pub fn new(seed: u64, scale: u32) -> Inputs {
        let pair = factors(scale, seed);
        let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 3));
        let mut picked = BTreeSet::new();
        while picked.len() < SOURCES.min(pair.n_c() as usize) {
            picked.insert(rng.gen_range(0..pair.n_c()));
        }
        Inputs {
            seed,
            pair,
            sources: picked.into_iter().collect(),
        }
    }
}

/// Values measured on the materialized product.
pub struct Measured {
    pub triangles: Vec<u64>,
    pub hops: Vec<Vec<u32>>,
    pub closeness: Vec<f64>,
}

pub struct OpRecord {
    pub ok: bool,
    /// Product arcs of the op's instance.
    pub arcs: u64,
    pub secs: f64,
    pub peak_heap: u64,
    pub allocs: u64,
    pub synthesize_s: f64,
    pub triangles_s: f64,
    pub bfs_s: f64,
    pub oracle_s: f64,
}

/// Closeness (Thm. 4) from a measured hop row: `Σ_h |{q : hops = h}| / h`
/// summed in ascending `h`, the order `closeness_from_cumulative` uses,
/// so equal hop rows give bit-equal values.
fn closeness_of_row(row: &[u32]) -> f64 {
    let max_h = row
        .iter()
        .copied()
        .filter(|&h| h != UNREACHABLE)
        .max()
        .unwrap_or(0) as usize;
    let mut counts = vec![0u64; max_h + 1];
    for &h in row {
        if h != UNREACHABLE {
            counts[h as usize] += 1;
        }
    }
    counts
        .iter()
        .enumerate()
        .skip(1)
        .fold(0.0, |sum, (h, &c)| sum + c as f64 / h as f64)
}

/// One op; `tamper` sees the measured values before the comparison.
pub fn run_op(
    inputs: &Inputs,
    op: u64,
    tracer: &mut Tracer,
    tamper: &dyn Fn(&mut Measured),
) -> OpRecord {
    let pair = &inputs.pair;
    let t0 = Instant::now();
    let ((checked, layer_s), whole) = measure(|| {
        let root_id = tracer.begin("gt.op", op, None);
        let root = Some(root_id);
        let (c, synthesize_s) =
            tracer.span("core.synthesize_csr", op, root, || synthesize_csr(pair));
        let (triangles, triangles_s) = tracer.span("analytics.vertex_triangles", op, root, || {
            vertex_triangles(&c).per_vertex
        });
        let ((hops, closeness), bfs_s) =
            tracer.span("analytics.multi_source_bfs_hops", op, root, || {
                let hops = multi_source_bfs_hops(&c, &inputs.sources);
                let closeness = hops.iter().map(|row| closeness_of_row(row)).collect();
                (hops, closeness)
            });
        drop(c);
        let (expected, oracle_s) = tracer.span("core.oracles", op, root, || oracles(inputs));
        let mut measured = Measured {
            triangles,
            hops,
            closeness,
        };
        let (checked, _) = tracer.span("gt.compare", op, root, || {
            tamper(&mut measured);
            expected
                .map_err(|e| format!("oracle: {e}"))
                .and_then(|want| compare(&measured, &want))
        });
        tracer.end(root_id);
        (checked, [synthesize_s, triangles_s, bfs_s, oracle_s])
    });
    let secs = t0.elapsed().as_secs_f64();
    if let Err(e) = &checked {
        eprintln!("ground_truth_check: op {op} failed: {e}");
    }
    OpRecord {
        ok: checked.is_ok(),
        arcs: pair.nnz_c() as u64,
        secs,
        peak_heap: whole.peak_bytes,
        allocs: whole.allocs,
        synthesize_s: layer_s[0],
        triangles_s: layer_s[1],
        bfs_s: layer_s[2],
        oracle_s: layer_s[3],
    }
}

/// The factor-only ground truth for everything an op measures.
fn oracles(inputs: &Inputs) -> kron_core::Result<Measured> {
    let pair = &inputs.pair;
    let tri = TriangleOracle::new(pair)?;
    let triangles = (0..pair.n_c())
        .map(|p| tri.vertex_triangles_of(p))
        .collect::<Result<Vec<_>, _>>()?;
    let dist = DistanceOracle::new(pair)?;
    let hops = inputs
        .sources
        .iter()
        .map(|&src| {
            (0..pair.n_c())
                .map(|q| dist.hops_of(src, q))
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;
    let closeness = closeness_batch(&dist, &inputs.sources)?;
    Ok(Measured {
        triangles,
        hops,
        closeness,
    })
}

fn compare(got: &Measured, want: &Measured) -> Result<(), String> {
    if let Some(p) =
        (0..want.triangles.len()).find(|&p| got.triangles.get(p) != Some(&want.triangles[p]))
    {
        return Err(format!("triangle count of vertex {p} differs"));
    }
    if got.hops != want.hops {
        return Err("BFS hop rows differ from DistanceOracle::hops_of".into());
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    if bits(&got.closeness) != bits(&want.closeness) {
        return Err("closeness differs from closeness_batch".into());
    }
    Ok(())
}

pub fn run(cfg: &mut RunConfig) -> Outcome {
    let inputs: Vec<Inputs> = instance_seeds(cfg.seed, INSTANCES)
        .map(|s| Inputs::new(s, SCALE))
        .collect();
    eprintln!(
        "ground_truth_check: {} instances, n_C {}",
        inputs.len(),
        inputs[0].pair.n_c()
    );
    let (records, setup_s) = op_loop(
        cfg,
        inputs.len(),
        SETUP_REPS,
        |r: &OpRecord| r.secs,
        |slot| drop(factors(SCALE, inputs[slot].seed)),
        |slot, op, tracer| run_op(&inputs[slot], op, tracer, &|_| {}),
    );
    summarize(mean_f64(&setup_s), &records, cfg.tracer.enabled())
}

fn summarize(setup_s: f64, records: &[(bool, OpRecord)], traced: bool) -> Outcome {
    let attempted = records.len() as u64;
    let failed = records.iter().filter(|(_, r)| !r.ok).count() as u64;
    let mut m = std::collections::BTreeMap::new();
    let secs_of = |want: bool| {
        records
            .iter()
            .filter(|(t, _)| *t == want)
            .map(|(_, r)| r.secs)
            .collect::<Vec<_>>()
    };
    if !traced {
        let ops: Vec<_> = records
            .iter()
            .map(|(_, r)| (r.arcs, r.secs, r.peak_heap))
            .collect();
        return Outcome {
            attempted,
            failed,
            metrics: batch_metrics(setup_s, &ops),
        };
    }
    let t: Vec<&OpRecord> = records.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
    let med =
        |f: &dyn Fn(&OpRecord) -> f64| median_f64(&t.iter().map(|r| f(r)).collect::<Vec<_>>());
    // Counts report the middle op's value rather than an average of two.
    let count = |f: &dyn Fn(&OpRecord) -> u64| {
        percentile(&mut t.iter().map(|r| f(r)).collect::<Vec<_>>(), 0.5) as f64
    };
    m.insert("core.synthesize_csr_s", med(&|r| r.synthesize_s));
    m.insert("analytics.triangles_s", med(&|r| r.triangles_s));
    m.insert("analytics.bfs_s", med(&|r| r.bfs_s));
    m.insert("core.oracle_s", med(&|r| r.oracle_s));
    m.insert("gt.allocs_per_op", count(&|r| r.allocs));
    let untraced = median_f64(&secs_of(false));
    if untraced > 0.0 {
        m.insert(
            "obs.trace_overhead_pct",
            (median_f64(&secs_of(true)) / untraced - 1.0) * 100.0,
        );
    }
    Outcome {
        attempted,
        failed,
        metrics: m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_ops_pass_and_a_corrupted_triangle_count_fails() {
        let inputs = &Inputs::new(5, 4);
        let clean = run_op(inputs, 0, &mut Tracer::new(false), &|_| {});
        assert!(clean.ok);
        let corrupt = |m: &mut Measured| m.triangles[3] += 1;
        let records: Vec<(bool, OpRecord)> = (0..2)
            .map(|op| (false, run_op(inputs, op, &mut Tracer::new(false), &corrupt)))
            .collect();
        let summary = summarize(0.0, &records, false);
        assert_eq!((summary.attempted, summary.failed), (2, 2));
    }

    #[test]
    fn closeness_from_hops_matches_the_oracle_bits() {
        let inputs = &Inputs::new(9, 4);
        let c = synthesize_csr(&inputs.pair);
        let hops = multi_source_bfs_hops(&c, &inputs.sources);
        let dist = DistanceOracle::new(&inputs.pair).expect("full self loops");
        let want = closeness_batch(&dist, &inputs.sources).expect("in range");
        for (row, w) in hops.iter().zip(want) {
            assert_eq!(closeness_of_row(row).to_bits(), w.to_bits());
        }
    }
}
