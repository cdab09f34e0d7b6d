//! `gen_2d_spill`: factors → `generate_distributed` (2 ranks, 2D grid,
//! vertex-block owner, phased exchange, perfect transport, v2 spill) →
//! `build_external_csr`. Exercises the dist exchange and the shard spill,
//! merge and external build; no serve or analytics code runs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use kron_core::generate::synthesize_row_block;
use kron_core::KroneckerPair;
use kron_dist::{generate_distributed, DistConfig, GenStats, PartitionScheme, SpillConfig};
use kron_graph::shard::{build_external_csr, ExternalCsr, ExternalCsrStats};
use kron_graph::GraphError;

use crate::stats::{mean_f64, median_f64, percentile};
use crate::{batch_metrics, factors, instance_seeds, measure_when, op_loop, Outcome, RunConfig};

/// Factor scale: n_C = 2^16, about 20 M product arcs.
pub const SCALE: u32 = 8;
const RANKS: usize = 2;
/// Merge buffer per open run.
const MERGE_BUF: usize = 64 * 1024;
/// Factor pairs a run cycles through, one per op. A run has about a
/// dozen ops, so each op gets a pair of its own.
const INSTANCES: u64 = 16;
/// Cold set-ups timed before each op.
const SETUP_REPS: usize = 16;
/// Rows synthesized per block when checking the KRSC file.
const VERIFY_BLOCK: u64 = 1024;

/// One input instance.
pub struct Inputs {
    /// Seed of the instance's factors.
    pub seed: u64,
    pub pair: KroneckerPair,
    /// `d_A ⊗ d_B`, the ground-truth degree of every product vertex.
    pub degrees: Vec<u64>,
    pub spill_root: PathBuf,
}

impl Inputs {
    fn new(seed: u64, spill_root: &Path) -> Inputs {
        let pair = factors(SCALE, seed);
        let degrees = kron_core::degree::degrees(&pair);
        Inputs {
            seed,
            pair,
            degrees,
            spill_root: spill_root.to_path_buf(),
        }
    }
}

/// What one op measured.
pub struct OpRecord {
    pub ok: bool,
    /// Product arcs of the op's instance.
    pub arcs: u64,
    pub secs: f64,
    /// Whole-op heap peak (untraced ops only).
    pub peak_heap: u64,
    pub generate_s: f64,
    pub generate_peak_heap: u64,
    pub build_s: f64,
    pub build_peak_heap: u64,
    pub gen: GenStats,
    pub build: Option<ExternalCsrStats>,
    pub spill_runs: usize,
    pub spill_bytes: u64,
}

/// One op: generate and spill into a fresh directory, build the external
/// CSR, then (untimed) check the KRSC file against the ground truth and
/// remove the directory. `tamper` sees the KRSC file before the check.
pub fn run_op(
    inputs: &Inputs,
    op: u64,
    tracer: &mut crate::trace::Tracer,
    tamper: &dyn Fn(&Path),
) -> OpRecord {
    let dir = inputs.spill_root.join(format!("op-{op}"));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = DistConfig::new(RANKS);
    cfg.scheme = PartitionScheme::TwoD;
    cfg.spill = Some(SpillConfig::new(&dir));
    let krsc = dir.join("product.krsc");
    let traced = tracer.enabled();

    let t0 = Instant::now();
    let ((dist, g, built, b, generate_s, build_s, runs), whole) = measure_when(!traced, || {
        let root_id = tracer.begin("gen.op", op, None);
        let root = Some(root_id);
        let ((dist, g), generate_s) = tracer.span("dist.generate_distributed", op, root, || {
            measure_when(traced, || generate_distributed(&inputs.pair, &cfg))
        });
        let runs: Vec<PathBuf> = dist.shard_runs.iter().flatten().cloned().collect();
        let ((built, b), build_s) = tracer.span("shard.build_external_csr", op, root, || {
            measure_when(traced, || build_external_csr(&runs, &krsc, MERGE_BUF))
        });
        tracer.end(root_id);
        (dist, g, built, b, generate_s, build_s, runs)
    });
    let secs = t0.elapsed().as_secs_f64();

    let spill_bytes = runs
        .iter()
        .map(|p| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    let (checked, _) = tracer.span("gen.verify", op, None, || match &built {
        Ok(stats) => {
            tamper(&krsc);
            verify(inputs, &dist.stats, stats, &krsc)
        }
        Err(e) => Err(format!("external build failed: {e}")),
    });
    if let Err(e) = &checked {
        eprintln!("gen_2d_spill: op {op} failed: {e}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    OpRecord {
        ok: checked.is_ok(),
        arcs: inputs.pair.nnz_c() as u64,
        secs,
        peak_heap: whole.peak_bytes,
        generate_s,
        generate_peak_heap: g.peak_bytes,
        build_s,
        build_peak_heap: b.peak_bytes,
        gen: dist.stats,
        build: built.ok(),
        spill_runs: runs.len(),
        spill_bytes,
    }
}

/// Bit-exact check of one op's output: arc accounting, every degree
/// against `d_A ⊗ d_B`, every row against `synthesize_row_block`.
pub fn verify(
    inputs: &Inputs,
    gen: &GenStats,
    built: &ExternalCsrStats,
    krsc: &Path,
) -> Result<(), String> {
    let pair = &inputs.pair;
    let m_c = pair.nnz_c() as u64;
    if gen.total_generated() != m_c || gen.total_stored() != m_c || built.arcs != m_c {
        return Err(format!(
            "arc counts: generated {} stored {} built {} expected {m_c}",
            gen.total_generated(),
            gen.total_stored(),
            built.arcs
        ));
    }
    let mut ext = ExternalCsr::open(krsc).map_err(|e| format!("open KRSC: {e}"))?;
    if ext.n() != pair.n_c() || ext.arc_count() != m_c {
        return Err(format!(
            "KRSC header n={} arcs={}",
            ext.n(),
            ext.arc_count()
        ));
    }
    let mut bad_degree = None;
    ext.for_each_degree(|p, d| {
        if bad_degree.is_none() && d != inputs.degrees[p as usize] {
            bad_degree = Some(p);
        }
    })
    .map_err(|e| format!("degree scan: {e}"))?;
    if let Some(p) = bad_degree {
        return Err(format!("degree of row {p} differs from d_A ⊗ d_B"));
    }
    let n = pair.n_c();
    let mut block_start = 0;
    let mut block = synthesize_row_block(pair, 0..VERIFY_BLOCK.min(n));
    ext.for_each_row(|p, row| {
        if p >= block_start + VERIFY_BLOCK {
            block_start = p - p % VERIFY_BLOCK;
            block = synthesize_row_block(pair, block_start..(block_start + VERIFY_BLOCK).min(n));
        }
        let (offsets, cols) = &block;
        let i = (p - block_start) as usize;
        if row != &cols[offsets[i]..offsets[i + 1]] {
            return Err(GraphError::Parse {
                line: p as usize,
                message: "row differs".into(),
            });
        }
        Ok(())
    })
    .map_err(|e| format!("row check: {e}"))
}

pub fn run(cfg: &mut RunConfig, spill_root: &Path) -> Outcome {
    let _ = std::fs::remove_dir_all(spill_root);
    let inputs: Vec<Inputs> = instance_seeds(cfg.seed, INSTANCES)
        .map(|s| Inputs::new(s, spill_root))
        .collect();
    eprintln!(
        "gen_2d_spill: {} instances, n_C {}, spill dir {}",
        inputs.len(),
        inputs[0].pair.n_c(),
        spill_root.display()
    );
    let (records, setup_s) = op_loop(
        cfg,
        inputs.len(),
        SETUP_REPS,
        |r: &OpRecord| r.secs,
        |slot| drop(factors(SCALE, inputs[slot].seed)),
        |slot, op, tracer| run_op(&inputs[slot], op, tracer, &|_| {}),
    );
    let _ = std::fs::remove_dir_all(spill_root);
    summarize(mean_f64(&setup_s), &records, cfg.tracer.enabled())
}

fn summarize(setup_s: f64, records: &[(bool, OpRecord)], traced: bool) -> Outcome {
    let attempted = records.len() as u64;
    let failed = records.iter().filter(|(_, r)| !r.ok).count() as u64;
    let mut m = std::collections::BTreeMap::new();
    let pick = |want: bool| {
        records
            .iter()
            .filter(move |(t, _)| *t == want)
            .map(|(_, r)| r)
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
    let t: Vec<&OpRecord> = pick(true).collect();
    let med =
        |f: &dyn Fn(&OpRecord) -> f64| median_f64(&t.iter().map(|r| f(r)).collect::<Vec<_>>());
    // Counts report the middle op's value rather than an average of two.
    let count = |f: &dyn Fn(&OpRecord) -> u64| {
        percentile(&mut t.iter().map(|r| f(r)).collect::<Vec<_>>(), 0.5) as f64
    };
    // Events that are 0 on most ops report the mean per op, which a
    // median would hide.
    let mean = |f: &dyn Fn(&OpRecord) -> u64| {
        t.iter().map(|r| f(r)).sum::<u64>() as f64 / t.len().max(1) as f64
    };
    m.insert("dist.generate_s", med(&|r| r.generate_s));
    m.insert(
        "dist.retransmissions",
        mean(&|r| r.gen.total_retransmissions()),
    );
    m.insert(
        "dist.redeliveries_discarded",
        mean(&|r| r.gen.total_redeliveries_discarded()),
    );
    m.insert(
        "dist.messages",
        mean(&|r| r.gen.per_rank.iter().map(|s| s.messages).sum::<u64>()),
    );
    m.insert("dist.remote_fraction", med(&|r| r.gen.remote_fraction()));
    m.insert(
        "dist.generate_peak_heap_bytes",
        count(&|r| r.generate_peak_heap),
    );
    m.insert("shard.spill_runs", count(&|r| r.spill_runs as u64));
    m.insert("shard.spill_bytes", count(&|r| r.spill_bytes));
    m.insert(
        "shard.krsc_bytes",
        count(&|r| r.build.map_or(0, |b| b.bytes)),
    );
    m.insert(
        "shard.merge_passes",
        count(&|r| r.build.map_or(0, |b| u64::from(b.merge_passes))),
    );
    m.insert(
        "shard.offsets_rewritten",
        mean(&|r| u64::from(r.build.is_some_and(|b| b.offsets_rewritten))),
    );
    m.insert("shard.build_s", med(&|r| r.build_s));
    m.insert("shard.build_peak_heap_bytes", count(&|r| r.build_peak_heap));
    let traced_s = med(&|r| r.secs);
    let untraced_s = median_f64(&pick(false).map(|r| r.secs).collect::<Vec<_>>());
    if untraced_s > 0.0 {
        m.insert(
            "obs.trace_overhead_pct",
            (traced_s / untraced_s - 1.0) * 100.0,
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
    use crate::trace::Tracer;

    fn small_inputs(dir: &Path) -> Inputs {
        let pair = factors(4, 11);
        let degrees = kron_core::degree::degrees(&pair);
        Inputs {
            seed: 11,
            pair,
            degrees,
            spill_root: dir.to_path_buf(),
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("kron_perfbench_{tag}_{}", std::process::id()))
    }

    #[test]
    fn clean_op_passes_the_check() {
        let dir = scratch("gen_clean");
        let inputs = small_inputs(&dir);
        let r = run_op(&inputs, 0, &mut Tracer::new(false), &|_| {});
        assert!(r.ok);
        assert!(r.spill_runs > 0 && r.build.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_krsc_row_fails_the_op() {
        let dir = scratch("gen_corrupt");
        let inputs = small_inputs(&dir);
        let n = inputs.pair.n_c();
        // Overwrite the last target of the file: same degrees, one wrong
        // column in the last row.
        let tamper = |krsc: &Path| {
            let mut bytes = std::fs::read(krsc).expect("read KRSC");
            let last = bytes.len() - 8;
            let v = u64::from_le_bytes(bytes[last..].try_into().expect("8 bytes"));
            bytes[last..].copy_from_slice(&((v + 1) % n).to_le_bytes());
            std::fs::write(krsc, bytes).expect("write KRSC");
        };
        let records: Vec<OpRecord> = (0..2)
            .map(|op| run_op(&inputs, op, &mut Tracer::new(false), &tamper))
            .collect();
        let summary = summarize(
            0.0,
            &records.into_iter().map(|r| (false, r)).collect::<Vec<_>>(),
            false,
        );
        assert_eq!((summary.attempted, summary.failed), (2, 2));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
