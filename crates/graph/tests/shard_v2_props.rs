//! Property tests for the KRSH v2 delta-varint codec and its pipeline:
//! LEB128 encode→decode identity with canonical-form (overlong)
//! rejection, v2 run roundtrips over random sorted streams, a corruption
//! corpus aimed at the v2-specific surfaces (truncation mid-varint,
//! forged payload/footer lengths, bit flips in the compressed region,
//! forged footers), and cross-version equivalence: v1, v2, and mixed run
//! sets must merge to identical streams, and the single-pass external
//! build must emit files byte-identical to the two-pass reference — for
//! every run shape its footer schedule meets (row-disjoint runs in one
//! lane, fully overlapping runs, mixed versions, cross-run duplicates,
//! runs straddling chunk starts) and for footers that lie about their
//! row span.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use kron_graph::shard::{
    build_external_csr, build_external_csr_two_pass, decode_varint, encode_varint, merge_shards,
    ExternalCsrStats, ShardReader, ShardVersion, ShardWriter, Varint, MAX_VARINT_BYTES,
};

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A fresh per-case scratch path (proptest shrinks rerun cases, so paths
/// must never be shared between runs of the same test).
fn scratch(tag: &str) -> PathBuf {
    let id = CASE.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("kron_shard_v2_props_{}_{tag}_{id}", std::process::id()))
}

/// Strategy: a sorted, possibly-duplicated arc list over `n` vertices.
fn sorted_run(n: u64, max: usize) -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0..n, 0..n), 0..max).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// Writes one finished shard in the given format and returns its path.
fn write_run(tag: &str, n: u64, arcs: &[(u64, u64)], version: ShardVersion) -> PathBuf {
    let path = scratch(tag);
    let mut w = ShardWriter::with_buffer_versioned(&path, n, 4096, version).expect("create shard");
    for &(u, v) in arcs {
        w.push(u, v).expect("sorted in-range push");
    }
    let info = w.finish().expect("finish shard");
    assert_eq!(info.arcs, arcs.len() as u64);
    path
}

/// Drains a reader to completion; any error is returned, not panicked.
fn drain(path: &PathBuf) -> kron_graph::Result<Vec<(u64, u64)>> {
    let mut reader = ShardReader::with_buffer(path, 256)?;
    let mut out = Vec::new();
    while let Some(arc) = reader.next_arc()? {
        out.push(arc);
    }
    Ok(out)
}

/// Builds `runs` with the single-pass and the two-pass builders, checks
/// the bytes match, removes every file, and returns the single-pass stats.
fn build_both(tag: &str, n: u64, runs: &[(Vec<(u64, u64)>, ShardVersion)]) -> ExternalCsrStats {
    let paths: Vec<PathBuf> =
        runs.iter().map(|(run, version)| write_run(tag, n, run, *version)).collect();
    let one = scratch("sched_one.krsc");
    let two = scratch("sched_two.krsc");
    let stats = build_external_csr(&paths, &one, 512).expect("single-pass build");
    build_external_csr_two_pass(&paths, &two, 512).expect("two-pass build");
    let (b1, b2) = (std::fs::read(&one).unwrap(), std::fs::read(&two).unwrap());
    for p in paths.iter().chain([&one, &two]) {
        std::fs::remove_file(p).ok();
    }
    assert!(b1 == b2, "{tag}: single-pass KRSC bytes differ from two-pass");
    stats
}

/// Cuts sorted `arcs` into row-contiguous runs at the given rows.
fn cut_by_rows(arcs: &[(u64, u64)], cuts: &[u64]) -> Vec<Vec<(u64, u64)>> {
    let mut bounds: Vec<u64> = cuts.to_vec();
    bounds.sort_unstable();
    let mut runs = vec![Vec::new(); bounds.len() + 1];
    for &arc in arcs {
        runs[bounds.partition_point(|&b| b <= arc.0)].push(arc);
    }
    runs
}

/// Rewrites a v2 run's footer to absolute `(row, count)` entries,
/// patching `footer_len` so the framing still validates.
fn forge_footer(path: &PathBuf, entries: &[(u64, u64)]) {
    let mut bytes = std::fs::read(path).unwrap();
    let payload_len = u64::from_le_bytes(bytes[24..32].try_into().unwrap());
    bytes.truncate(40 + payload_len as usize);
    let mut footer = Vec::new();
    let mut prev = 0u64;
    for &(row, count) in entries {
        encode_varint(row - prev, &mut footer);
        encode_varint(count, &mut footer);
        prev = row;
    }
    bytes[32..40].copy_from_slice(&(footer.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&footer);
    std::fs::write(path, &bytes).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// LEB128 identity: every u64 encodes to ≤ MAX_VARINT_BYTES bytes and
    /// decodes back exactly, with the declared length.
    #[test]
    fn varint_roundtrip(value in 0u64..=u64::MAX) {
        let mut buf = Vec::new();
        let len = encode_varint(value, &mut buf);
        prop_assert_eq!(len, buf.len());
        prop_assert!(len <= MAX_VARINT_BYTES);
        match decode_varint(&buf).expect("own encoding decodes") {
            Varint::Value { value: got, len: got_len } => {
                prop_assert_eq!(got, value);
                prop_assert_eq!(got_len, len);
            }
            Varint::NeedMore => prop_assert!(false, "complete encoding reported NeedMore"),
        }
    }

    /// A concatenated varint stream decodes value-for-value: the decoder
    /// never consumes into the next value.
    #[test]
    fn varint_stream_roundtrip(values in proptest::collection::vec(0u64..=u64::MAX, 0..50)) {
        let mut buf = Vec::new();
        for &v in &values {
            encode_varint(v, &mut buf);
        }
        let mut at = 0usize;
        let mut decoded = Vec::new();
        while at < buf.len() {
            match decode_varint(&buf[at..]).expect("stream decodes") {
                Varint::Value { value, len } => {
                    decoded.push(value);
                    at += len;
                }
                Varint::NeedMore => {
                    prop_assert!(false, "complete stream reported NeedMore at {at}");
                }
            }
        }
        prop_assert_eq!(decoded, values);
    }

    /// Non-canonical (overlong) encodings are rejected: padding a value
    /// with a redundant continuation group must fail, never silently
    /// decode to the same value.
    #[test]
    fn varint_overlong_rejected(value in 0u64..=u64::MAX) {
        let mut buf = Vec::new();
        let len = encode_varint(value, &mut buf);
        if len < MAX_VARINT_BYTES {
            // Set the continuation bit on the final group and append a
            // zero group — the classic overlong form of the same value.
            buf[len - 1] |= 0x80;
            buf.push(0x00);
            prop_assert!(decode_varint(&buf).is_err(), "overlong encoding accepted");
        }
    }

    /// A truncated varint inside an otherwise well-framed window reports
    /// NeedMore (short window) — while a 10-byte window with no
    /// terminator is an error, not a request for more input.
    #[test]
    fn varint_truncation_is_needmore(value in (1u64 << 14)..=u64::MAX) {
        let mut buf = Vec::new();
        let len = encode_varint(value, &mut buf);
        prop_assert!(len >= 3);
        for cut in 0..len.min(MAX_VARINT_BYTES - 1) {
            match decode_varint(&buf[..cut]) {
                Ok(Varint::NeedMore) => {}
                Ok(Varint::Value { .. }) => {
                    prop_assert!(false, "truncated to {cut}/{len} bytes yet decoded");
                }
                Err(_) => prop_assert!(false, "short window must be NeedMore, not error"),
            }
        }
        let no_terminator = [0x80u8; MAX_VARINT_BYTES];
        prop_assert!(decode_varint(&no_terminator).is_err());
    }

    /// v2 encode→decode identity, and the compressed payload beats v1's
    /// 16 bytes/arc on any non-trivial stream.
    #[test]
    fn v2_roundtrip_identity(arcs in sorted_run(64, 300)) {
        let p2 = write_run("rt2", 64, &arcs, ShardVersion::V2);
        let reader = ShardReader::open(&p2).expect("open v2 shard");
        prop_assert_eq!(reader.version(), ShardVersion::V2);
        prop_assert_eq!(reader.arcs_total(), arcs.len() as u64);
        drop(reader);
        prop_assert_eq!(drain(&p2).expect("drain v2 shard"), arcs.clone());
        if arcs.len() >= 16 {
            let p1 = write_run("rt1", 64, &arcs, ShardVersion::V1);
            let b1 = std::fs::metadata(&p1).unwrap().len();
            let b2 = std::fs::metadata(&p2).unwrap().len();
            prop_assert!(b2 < b1, "v2 file {b2}B not smaller than v1 {b1}B for {} arcs", arcs.len());
            std::fs::remove_file(&p1).ok();
        }
        std::fs::remove_file(&p2).ok();
    }

    /// Every strict truncation of a v2 file — including cuts landing
    /// mid-varint in the payload or footer — is a clean error.
    #[test]
    fn v2_truncation_rejected(arcs in sorted_run(32, 100), cut in 0usize..100_000) {
        let path = write_run("trunc", 32, &arcs, ShardVersion::V2);
        let full = std::fs::metadata(&path).unwrap().len();
        let keep = (cut as u64) % full;
        let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        file.set_len(keep).unwrap();
        drop(file);
        prop_assert!(drain(&path).is_err(), "truncated to {keep}/{full} bytes yet accepted");
        std::fs::remove_file(&path).ok();
    }

    /// Single-bit flips anywhere in a v2 file never panic and never
    /// over-allocate: either a clean error, or — when validity is
    /// preserved — a stream still satisfying every format invariant.
    #[test]
    fn v2_bit_flips_never_panic(arcs in sorted_run(32, 80), pos in 0usize..100_000, bit in 0u8..8) {
        let path = write_run("flip", 32, &arcs, ShardVersion::V2);
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        std::fs::write(&path, &bytes).unwrap();
        if let Ok(decoded) = drain(&path) {
            let reader = ShardReader::open(&path).expect("drain succeeded");
            prop_assert_eq!(decoded.len() as u64, reader.arcs_total());
            prop_assert!(decoded.windows(2).all(|w| w[0] <= w[1]));
            prop_assert!(decoded.iter().all(|&(u, v)| u < 32 && v < 32));
        }
        std::fs::remove_file(&path).ok();
    }

    /// Forged header lengths — arc count (bytes 16..24), payload_len
    /// (24..32), footer_len (32..40) — are rejected by the framing
    /// cross-check before any count-proportional allocation.
    #[test]
    fn v2_forged_lengths_rejected(
        arcs in sorted_run(32, 80),
        field in 0usize..3,
        forged in 0u64..=u64::MAX,
    ) {
        let path = write_run("forge", 32, &arcs, ShardVersion::V2);
        let mut bytes = std::fs::read(&path).unwrap();
        let off = 16 + field * 8;
        let original = u64::from_le_bytes(bytes[off..off + 8].try_into().unwrap());
        bytes[off..off + 8].copy_from_slice(&forged.to_le_bytes());
        std::fs::write(&path, &bytes).unwrap();
        let result = drain(&path);
        if forged == original {
            prop_assert!(result.is_ok());
        } else {
            prop_assert!(
                result.is_err(),
                "forged field {field} = {forged} (real {original}) accepted"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// v1, v2, and mixed run sets over the same arcs merge to identical
    /// streams — the merge is format-blind.
    #[test]
    fn cross_version_merge_equivalence(
        arcs in sorted_run(48, 200),
        assign in proptest::collection::vec(0usize..3, 200),
    ) {
        let mut runs: [Vec<(u64, u64)>; 3] = Default::default();
        for (i, &arc) in arcs.iter().enumerate() {
            runs[assign[i]].push(arc);
        }
        let merged = |versions: [ShardVersion; 3]| {
            let paths: Vec<PathBuf> = runs
                .iter()
                .zip(versions)
                .map(|(run, ver)| write_run("xver", 48, run, ver))
                .collect();
            let readers: Vec<ShardReader> =
                paths.iter().map(|p| ShardReader::with_buffer(p, 256).unwrap()).collect();
            let mut out = Vec::new();
            merge_shards(readers, |u, v| out.push((u, v))).expect("merge");
            for p in &paths {
                std::fs::remove_file(p).ok();
            }
            out
        };
        use ShardVersion::{V1, V2};
        let all_v1 = merged([V1, V1, V1]);
        let all_v2 = merged([V2, V2, V2]);
        let mixed = merged([V1, V2, V1]);
        let mut want = arcs;
        want.dedup();
        prop_assert_eq!(&all_v1, &want, "v1 merge differs from the deduplicated union");
        prop_assert_eq!(&all_v2, &want, "v2 merge differs from the deduplicated union");
        prop_assert_eq!(&mixed, &want, "mixed-version merge differs");
    }

    /// The single-pass external build writes files byte-identical to the
    /// two-pass reference, for pure-v1, pure-v2, and mixed run sets.
    #[test]
    fn one_pass_build_matches_two_pass(
        arcs in sorted_run(40, 150),
        assign in proptest::collection::vec(0usize..3, 150),
        dup_mask in proptest::collection::vec(proptest::bool::ANY, 150),
        versions in proptest::collection::vec(0usize..2, 3),
    ) {
        let mut runs: [Vec<(u64, u64)>; 3] = Default::default();
        for (i, &arc) in arcs.iter().enumerate() {
            runs[assign[i]].push(arc);
            if dup_mask[i] {
                runs[(assign[i] + 1) % 3].push(arc);
            }
        }
        let paths: Vec<PathBuf> = runs
            .iter()
            .enumerate()
            .map(|(i, run)| {
                let ver = if versions[i] == 0 { ShardVersion::V1 } else { ShardVersion::V2 };
                write_run("onep", 40, run, ver)
            })
            .collect();
        let one = scratch("one.krsc");
        let two = scratch("two.krsc");
        let s1 = build_external_csr(&paths, &one, 512).expect("single-pass build");
        let s2 = build_external_csr_two_pass(&paths, &two, 512).expect("two-pass build");
        prop_assert_eq!(s1.arcs, s2.arcs);
        prop_assert_eq!(s1.merge_passes, 1);
        prop_assert_eq!(s2.merge_passes, 2);
        let b1 = std::fs::read(&one).expect("read single-pass output");
        let b2 = std::fs::read(&two).expect("read two-pass output");
        prop_assert_eq!(b1, b2, "single-pass KRSC bytes differ from two-pass");
        for p in paths.iter().chain([&one, &two]) {
            std::fs::remove_file(p).ok();
        }
    }

    /// Row-disjoint runs chain into one lane (the VertexBlock spill
    /// shape) and, with chunk starts landing inside runs, still build
    /// byte-identical files with no rewrite.
    #[test]
    fn row_disjoint_runs_share_one_lane(
        arcs in sorted_run(200, 600),
        cuts in proptest::collection::vec(0u64..200, 0..12),
    ) {
        let mut arcs = arcs;
        arcs.dedup();
        let runs: Vec<_> =
            cut_by_rows(&arcs, &cuts).into_iter().map(|r| (r, ShardVersion::V2)).collect();
        let stats = build_both("disjoint", 200, &runs);
        prop_assert_eq!(stats.lanes, usize::from(!arcs.is_empty()));
        prop_assert!(!stats.offsets_rewritten);
        prop_assert_eq!(stats.arcs, arcs.len() as u64);
    }

    /// Runs dealt arc by arc (the Hash-owner shape) overlap fully; the
    /// schedule needs at most one lane per run and never rewrites.
    #[test]
    fn overlapping_runs_build_identically(
        arcs in sorted_run(64, 400),
        assign in proptest::collection::vec(0usize..6, 400),
    ) {
        let mut arcs = arcs;
        arcs.dedup();
        let mut runs = vec![Vec::new(); 6];
        for (i, &arc) in arcs.iter().enumerate() {
            runs[assign[i]].push(arc);
        }
        let nonempty = runs.iter().filter(|r| !r.is_empty()).count();
        let runs: Vec<_> = runs.into_iter().map(|r| (r, ShardVersion::V2)).collect();
        let stats = build_both("overlap", 64, &runs);
        prop_assert!(stats.lanes <= nonempty, "{} lanes for {nonempty} runs", stats.lanes);
        prop_assert!(!stats.offsets_rewritten);
    }

    /// Mixed v1/v2 run sets and cross-run duplicates diverge from any
    /// footer prediction; the repair path keeps the bytes identical.
    #[test]
    fn mixed_versions_and_duplicates_take_the_repair_path(
        arcs in sorted_run(80, 300),
        cuts in proptest::collection::vec(0u64..80, 1..6),
        v1_run in 0usize..6,
        dup in 0usize..300,
    ) {
        let mut arcs = arcs;
        arcs.dedup();
        prop_assume!(!arcs.is_empty());
        let pieces = cut_by_rows(&arcs, &cuts);
        let v1_run = v1_run % pieces.len();
        let mixed: Vec<_> = pieces
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let version = if i == v1_run { ShardVersion::V1 } else { ShardVersion::V2 };
                (r.clone(), version)
            })
            .collect();
        let stats = build_both("mixed", 80, &mixed);
        prop_assert!(stats.offsets_rewritten, "a v1 run cannot be predicted");

        // One arc repeated in a second, otherwise row-disjoint run.
        let mut dup_runs: Vec<_> = pieces.into_iter().map(|r| (r, ShardVersion::V2)).collect();
        dup_runs.push((vec![arcs[dup % arcs.len()]], ShardVersion::V2));
        let stats = build_both("dups", 80, &dup_runs);
        prop_assert!(stats.offsets_rewritten, "cross-run duplicate not repaired");
        prop_assert_eq!(stats.duplicates_discarded, 1);
    }

    /// A footer claiming a narrower row span than its payload holds (the
    /// last row's arcs booked to the row before, so counts still sum) is
    /// repaired or rejected, never written unsorted.
    #[test]
    fn narrow_forged_footer_is_repaired(
        arcs in sorted_run(50, 200),
        others in sorted_run(50, 200),
    ) {
        let mut arcs = arcs;
        arcs.dedup();
        let mut rows: Vec<(u64, u64)> = Vec::new();
        for &(u, _) in &arcs {
            match rows.last_mut() {
                Some((r, c)) if *r == u => *c += 1,
                _ => rows.push((u, 1)),
            }
        }
        prop_assume!(rows.len() >= 2);
        let (_, last_count) = rows.pop().unwrap();
        rows.last_mut().unwrap().1 += last_count;
        let forged = write_run("narrow", 50, &arcs, ShardVersion::V2);
        forge_footer(&forged, &rows);
        let honest = write_run("narrow_other", 50, &others, ShardVersion::V2);
        let one = scratch("narrow_one.krsc");
        let two = scratch("narrow_two.krsc");
        build_external_csr_two_pass(&[&forged, &honest], &two, 512).expect("two-pass build");
        match build_external_csr(&[&forged, &honest], &one, 512) {
            Ok(stats) => {
                prop_assert!(stats.offsets_rewritten);
                prop_assert!(
                    std::fs::read(&one).unwrap() == std::fs::read(&two).unwrap(),
                    "forged footer changed the KRSC bytes"
                );
            }
            Err(e) => prop_assert!(e.to_string().contains("footer"), "unexpected error {e}"),
        }
        for p in [&forged, &honest, &one, &two] {
            std::fs::remove_file(p).ok();
        }
    }
}
