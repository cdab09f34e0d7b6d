//! `kron-load` — seeded zipfian load harness with bit-exact validation.
//!
//! Two modes:
//!
//! * `kron-load --addr HOST:PORT [--scale S --seed-a A --seed-b B
//!   --root R] [--clients C --frames F --window W --batch Q --zipf-s Z
//!   --seed X] [--scrape-interval MS] [--scrape-out PATH] [--shutdown]`
//!   — drives an already-running `kron-serve` (the factor parameters
//!   must match the server's, or validation fails on the first
//!   response). Prints one stats line; exits nonzero if any response
//!   mismatched. `--shutdown` sends a Shutdown frame after the run.
//!
//!   `--scrape-interval MS` starts an admin sidecar on its own
//!   connection: it sends `ResetStats` before the load begins, polls
//!   `Stats` every `MS` milliseconds during the run (each reply must
//!   lint as JSON; one parseable `kron-load: scrape …` line per poll),
//!   and after the run takes a final `Stats` + `SlowQueries` scrape and
//!   cross-checks the server's exact `served_*` counters **bit for
//!   bit** against the client-side per-kind tallies — any difference is
//!   a failed run. The cross-check assumes this kron-load is the
//!   server's only client. `--scrape-out PATH` saves the final Stats
//!   JSON.
//!
//! * `kron-load --self [--scale S ...] [--out BENCH_PR7.json]` — hosts
//!   the server in-process (1 worker, loopback) and runs the three
//!   standard phases, writing a gate-compatible report:
//!
//!   | phase                   | shape                                  |
//!   |-------------------------|----------------------------------------|
//!   | `serve_closed_loop_mixed` | window 1, batch 1 — true per-query RTT |
//!   | `serve_pipelined_mixed`   | window 8, batch 16 — peak throughput   |
//!   | `serve_neighbors_hot`     | zipf 1.2, neighbors only — cache phase |
//!
//!   Each phase record carries `name` + `secs_threads_1` (wall seconds
//!   for its fixed query count) on their own lines, so `bench_smoke
//!   --compare --baseline BENCH_PR7.json` gates serve regressions with
//!   the same >15% machinery as the kernel benches.

use std::io::Write as _;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kron_obs::report::{ObsReport, SCHEMA_VERSION};
use kron_serve::engine::QueryEngine;
use kron_serve::load::{run_load, LoadConfig, LoadStats};
use kron_serve::protocol::{self, AdminRequest, Request, Response};
use kron_serve::server::{self, ServerConfig};
use serde::Serialize;

fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{flag} needs a value"))
            .clone()
    })
}

fn parsed<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    arg_value(args, flag)
        .map(|v| v.parse().unwrap_or_else(|e| panic!("{flag}: {e:?}")))
        .unwrap_or(default)
}

/// One phase record in `BENCH_PR7.json`. `secs_threads_1` is the field
/// `bench_smoke`'s baseline parser extracts for the regression gate.
#[derive(Serialize)]
struct ServePhase {
    name: String,
    secs_threads_1: f64,
    qps: f64,
    p50_us: f64,
    p90_us: f64,
    p99_us: f64,
    max_us: f64,
    queries: u64,
    frames: u64,
    mismatched_frames: u64,
    cache_hit_rate: f64,
}

#[derive(Serialize)]
struct ServeReport {
    schema_version: u32,
    tool: &'static str,
    factor_scale: u32,
    seed_a: u64,
    seed_b: u64,
    workers: usize,
    cache_capacity: usize,
    phases: Vec<ServePhase>,
    obs: ObsReport,
}

/// Prints one stats line; `hit_rate` is `None` when it is unknown (the
/// server could not be scraped, or its cache saw no lookups).
fn print_stats(label: &str, s: &LoadStats, hit_rate: Option<f64>) {
    let hit_rate = hit_rate.map_or_else(|| "n/a".to_string(), |r| format!("{:.1}%", r * 100.0));
    eprintln!(
        "kron-load: {label}: {} queries in {:.3}s = {:.0} q/s; RTT p50 {:.0}us p90 {:.0}us p99 {:.0}us; \
         {}/{} frames validated, {} mismatched; cache hit rate {hit_rate}",
        s.queries, s.secs, s.qps, s.p50_us, s.p90_us, s.p99_us,
        s.validated_frames, s.frames, s.mismatched_frames,
    );
}

/// One admin request/reply roundtrip on `stream`; `Err` describes the
/// transport or protocol failure.
fn try_admin_roundtrip(stream: &mut TcpStream, id: u64, req: &Request) -> Result<String, String> {
    let mut buf = Vec::new();
    protocol::encode_request(id, req, &mut buf);
    stream.write_all(&buf).map_err(|e| format!("send admin frame: {e}"))?;
    let mut payload = Vec::new();
    match protocol::read_frame(stream, &mut payload) {
        Ok(true) => {}
        Ok(false) => return Err("server closed during admin scrape".into()),
        Err(e) => return Err(format!("read admin reply: {e}")),
    }
    let (rid, resp) =
        protocol::decode_response(&payload).map_err(|e| format!("decode admin reply: {e:?}"))?;
    if rid != id {
        return Err(format!("admin reply id {rid} does not echo request id {id}"));
    }
    match resp {
        Response::AdminJson(json) => Ok(json),
        other => Err(format!("expected AdminJson reply, got {other:?}")),
    }
}

/// [`try_admin_roundtrip`] that panics on failure — a broken scrape
/// plane is a failed run.
fn admin_roundtrip(stream: &mut TcpStream, id: u64, req: &Request) -> String {
    try_admin_roundtrip(stream, id, req).unwrap_or_else(|e| panic!("{e}"))
}

/// Row-cache hit rate from a `Stats` reply: hits / (hits + misses), or
/// `None` when the counters are missing or the cache saw no lookups.
fn scraped_hit_rate(stats_json: &str) -> Option<f64> {
    let hits = json_u64(stats_json, "cache_hits")?;
    let misses = json_u64(stats_json, "cache_misses")?;
    let lookups = hits + misses;
    (lookups > 0).then(|| hits as f64 / lookups as f64)
}

/// One `Stats` scrape on a fresh connection, `None` if it fails.
fn scrape_stats(addr: SocketAddr) -> Option<String> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_nodelay(true).ok()?;
    try_admin_roundtrip(&mut stream, 1, &Request::Admin(AdminRequest::Stats)).ok()
}

/// Extracts `"key": N` from a pretty-printed admin reply — the same
/// line-oriented discipline `bench_smoke`'s baseline parser uses, so
/// the sidecar needs no JSON parser.
fn json_u64(json: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    json.lines().find_map(|l| {
        let rest = l.trim().strip_prefix(needle.as_str())?;
        let digits: String =
            rest.trim_start().chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    })
}

/// Polls `Stats` on its own connection every `interval_ms` until `stop`
/// flips; every reply must lint as JSON. Returns the poll count.
fn spawn_scraper(
    addr: SocketAddr,
    interval_ms: u64,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::Builder::new()
        .name("kron-load-scrape".to_string())
        .spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("scrape connect");
            stream.set_nodelay(true).expect("nodelay");
            let mut polls = 0u64;
            let mut id = 1u64 << 48;
            while !stop.load(Ordering::Relaxed) {
                let json =
                    admin_roundtrip(&mut stream, id, &Request::Admin(AdminRequest::Stats));
                id += 1;
                kron_obs::json_lint::validate(&json).expect("mid-run Stats reply lints");
                polls += 1;
                eprintln!(
                    "kron-load: scrape poll={polls} served_total={} queue_len={} flight_recorded={}",
                    json_u64(&json, "served_total").unwrap_or(0),
                    json_u64(&json, "queue_len").unwrap_or(0),
                    json_u64(&json, "flight_recorded").unwrap_or(0),
                );
                // Sleep in slices so the post-run join is prompt.
                let mut slept = 0;
                while slept < interval_ms && !stop.load(Ordering::Relaxed) {
                    let step = (interval_ms - slept).min(20);
                    std::thread::sleep(Duration::from_millis(step));
                    slept += step;
                }
            }
            polls
        })
        .expect("spawn scraper")
}

/// Final-scrape cross-check: the server's exact always-on `served_*`
/// counters must equal the client-side per-kind tallies **bit for
/// bit** (valid because the sidecar reset the stats before the load and
/// this kron-load is the server's only client). Returns mismatches.
fn cross_check(stats_json: &str, stats: &LoadStats) -> u64 {
    const KEYS: [&str; 6] = [
        "served_neighbors",
        "served_degree",
        "served_triangles",
        "served_closeness",
        "served_community",
        "served_hops",
    ];
    let mut bad = 0;
    for (i, key) in KEYS.iter().enumerate() {
        let server = json_u64(stats_json, key);
        let client = stats.queries_by_kind[i];
        if server != Some(client) {
            eprintln!(
                "kron-load: scrape MISMATCH {key}: server {server:?} != client {client}"
            );
            bad += 1;
        }
    }
    let total = json_u64(stats_json, "served_total");
    if total != Some(stats.queries) {
        eprintln!(
            "kron-load: scrape MISMATCH served_total: server {total:?} != client {}",
            stats.queries
        );
        bad += 1;
    }
    bad
}

/// Sends a Shutdown frame and waits for the acknowledgement.
fn send_shutdown(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    stream.set_nodelay(true).expect("nodelay");
    let mut buf = Vec::new();
    protocol::encode_request(u64::MAX, &Request::Shutdown, &mut buf);
    stream.write_all(&buf).expect("send shutdown frame");
    let mut payload = Vec::new();
    assert!(
        protocol::read_frame(&mut stream, &mut payload).expect("read shutdown ack"),
        "server closed before acknowledging shutdown"
    );
    let (_, resp) = protocol::decode_response(&payload).expect("decode shutdown ack");
    assert_eq!(resp, Response::ShuttingDown);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: u32 = parsed(&args, "--scale", 7);
    let seed_a: u64 = parsed(&args, "--seed-a", 12);
    let seed_b: u64 = parsed(&args, "--seed-b", 13);
    let root: u64 = parsed(&args, "--root", 0);
    let seed: u64 = parsed(&args, "--seed", 0xC0FFEE);

    if args.iter().any(|a| a == "--self") {
        return self_mode(&args, scale, seed_a, seed_b, root, seed);
    }

    let addr: SocketAddr = arg_value(&args, "--addr")
        .expect("kron-load needs --addr HOST:PORT or --self")
        .parse()
        .expect("valid socket address");
    let cfg = LoadConfig {
        clients: parsed(&args, "--clients", 2),
        frames_per_client: parsed(&args, "--frames", 1000),
        window: parsed(&args, "--window", 1),
        batch: parsed(&args, "--batch", 1),
        zipf_s: parsed(&args, "--zipf-s", 1.0),
        seed,
        weights: [1, 1, 1, 1, 1, 1],
    };
    let scrape_interval: u64 = parsed(&args, "--scrape-interval", 0);
    let scrape_out = arg_value(&args, "--scrape-out");

    kron_obs::set_enabled(true);
    let engine = QueryEngine::bench_with_root(scale, seed_a, seed_b, root);

    // The admin sidecar: reset the server's stats on a dedicated
    // connection before any query traffic, so the final cross-check
    // compares whole-run counts.
    let mut admin_conn = if scrape_interval > 0 || scrape_out.is_some() {
        let mut s = TcpStream::connect(addr).expect("admin connect");
        s.set_nodelay(true).expect("nodelay");
        let ack = admin_roundtrip(&mut s, 1, &Request::Admin(AdminRequest::ResetStats));
        assert!(ack.contains("\"reset\": true"), "unexpected ResetStats ack: {ack}");
        eprintln!("kron-load: scrape: server stats reset before load");
        Some(s)
    } else {
        None
    };
    let stop = Arc::new(AtomicBool::new(false));
    let scraper =
        (scrape_interval > 0).then(|| spawn_scraper(addr, scrape_interval, Arc::clone(&stop)));

    let stats = run_load(&engine, addr, &cfg);

    stop.store(true, Ordering::Relaxed);
    let polls = scraper.map(|h| h.join().expect("scraper panicked")).unwrap_or(0);
    // The cache lives in the server, so its hit rate comes from a scrape:
    // the sidecar's final Stats reply, or a one-off Stats request.
    let final_stats = admin_conn
        .as_mut()
        .map(|stream| admin_roundtrip(stream, 2, &Request::Admin(AdminRequest::Stats)));
    let hit_rate = match &final_stats {
        Some(json) => scraped_hit_rate(json),
        None => scrape_stats(addr).as_deref().and_then(scraped_hit_rate),
    };
    print_stats("run", &stats, hit_rate);
    let mut scrape_mismatches = 0;
    if let (Some(stream), Some(json)) = (admin_conn.as_mut(), final_stats) {
        kron_obs::json_lint::validate(&json).expect("final Stats reply lints");
        scrape_mismatches = cross_check(&json, &stats);
        eprintln!(
            "kron-load: scrape final: {polls} mid-run polls; server served_total={} vs client {} ({} mismatched keys)",
            json_u64(&json, "served_total").unwrap_or(0),
            stats.queries,
            scrape_mismatches,
        );
        let slow = admin_roundtrip(
            stream,
            3,
            &Request::Admin(AdminRequest::SlowQueries { threshold_ns: 0, limit: 5 }),
        );
        kron_obs::json_lint::validate(&slow).expect("SlowQueries reply lints");
        eprintln!(
            "kron-load: scrape slow-queries count={}",
            json_u64(&slow, "count").unwrap_or(0)
        );
        if let Some(path) = &scrape_out {
            std::fs::write(path, &json).expect("write --scrape-out");
            eprintln!("kron-load: scrape wrote {path}");
        }
    }

    if args.iter().any(|a| a == "--shutdown") {
        send_shutdown(addr);
        eprintln!("kron-load: server acknowledged shutdown");
    }
    if stats.mismatched_frames > 0 || scrape_mismatches > 0 {
        eprintln!(
            "kron-load: FAIL: {} mismatched responses, {} scrape count mismatches",
            stats.mismatched_frames, scrape_mismatches
        );
        std::process::exit(1);
    }
}

fn self_mode(args: &[String], scale: u32, seed_a: u64, seed_b: u64, root: u64, seed: u64) {
    let out_path = arg_value(args, "--out").unwrap_or_else(|| "BENCH_PR7.json".to_string());
    let workers: usize = parsed(args, "--workers", 1);
    let cache_capacity: usize = parsed(args, "--cache-capacity", 4096);

    kron_obs::set_enabled(true);
    kron_obs::reset();
    eprintln!("kron-load: building scale-{scale} engine (seeds {seed_a}/{seed_b}, root {root})");
    let engine = Arc::new(QueryEngine::bench_with_root(scale, seed_a, seed_b, root));
    let n_c = engine.n_c();
    let handle = server::spawn(
        Arc::clone(&engine),
        ServerConfig {
            workers,
            cache_capacity,
            ..ServerConfig::default()
        },
    )
    .expect("bind loopback");
    let addr = handle.addr();
    eprintln!("kron-load: self-hosted server on {addr} (n_c={n_c}, {workers} worker)");

    // (name, clients, frames/client, window, batch, zipf_s, weights)
    let shapes: [(&str, usize, usize, usize, usize, f64, [u32; 6]); 3] = [
        ("serve_closed_loop_mixed", 4, 2500, 1, 1, 1.0, [1, 1, 1, 1, 1, 1]),
        ("serve_pipelined_mixed", 2, 1000, 8, 16, 1.0, [1, 1, 1, 1, 1, 1]),
        ("serve_neighbors_hot", 2, 750, 4, 8, 1.2, [1, 0, 0, 0, 0, 0]),
    ];
    // Median-of-5 per phase: serve timings are wall-clock over a fixed
    // query count on a shared box, so a single run is too noisy for the
    // 15% regression gate (measured rep-to-rep spread on the reference
    // box reaches ~2× under background load; the median-of-3 of PR 7
    // still tripped the gate on noise). Every rep still validates every
    // response bit for bit.
    const REPS: usize = 5;
    let mut phases = Vec::new();
    let mut total_mismatches = 0;
    for (name, clients, frames, window, batch, zipf_s, weights) in shapes {
        let mut runs = Vec::with_capacity(REPS);
        for _ in 0..REPS {
            let before = handle.cache_stats();
            let stats = run_load(
                &engine,
                addr,
                &LoadConfig {
                    clients,
                    frames_per_client: frames,
                    window,
                    batch,
                    zipf_s,
                    seed,
                    weights,
                },
            );
            let after = handle.cache_stats();
            let lookups = (after.hits + after.misses) - (before.hits + before.misses);
            let hit_rate = if lookups == 0 {
                0.0
            } else {
                (after.hits - before.hits) as f64 / lookups as f64
            };
            total_mismatches += stats.mismatched_frames;
            runs.push((stats, hit_rate));
        }
        runs.sort_by(|a, b| a.0.secs.total_cmp(&b.0.secs));
        let (stats, hit_rate) = runs.swap_remove(REPS / 2);
        print_stats(name, &stats, Some(hit_rate));
        phases.push(ServePhase {
            name: name.to_string(),
            secs_threads_1: stats.secs,
            qps: stats.qps,
            p50_us: stats.p50_us,
            p90_us: stats.p90_us,
            p99_us: stats.p99_us,
            max_us: stats.max_us,
            queries: stats.queries,
            frames: stats.frames,
            mismatched_frames: stats.mismatched_frames,
            cache_hit_rate: hit_rate,
        });
    }

    send_shutdown(addr);
    handle.wait_shutdown_requested();
    let shutdown = handle.shutdown();
    eprintln!(
        "kron-load: server drained ({} workers, {} readers joined)",
        shutdown.workers_joined, shutdown.readers_joined
    );

    kron_obs::metrics::flush_thread();
    let report = ServeReport {
        schema_version: SCHEMA_VERSION,
        tool: "kron-load --self",
        factor_scale: scale,
        seed_a,
        seed_b,
        workers,
        cache_capacity,
        phases,
        obs: ObsReport::capture(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable");
    std::fs::write(&out_path, &json).expect("write report");
    let written = std::fs::read_to_string(&out_path).expect("reread report");
    kron_obs::json_lint::validate(&written).expect("emitted report is valid JSON");
    eprintln!("kron-load: wrote {out_path} (schema_version {SCHEMA_VERSION}, lint-clean)");

    if total_mismatches > 0 {
        eprintln!("kron-load: FAIL: {total_mismatches} mismatched responses");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_comes_from_the_scraped_counters() {
        let json =
            "{\n  \"cache_hits\": 1909,\n  \"cache_misses\": 1407,\n  \"cache_evictions\": 0\n}";
        let rate = scraped_hit_rate(json).expect("both counters present");
        assert!((rate - 1909.0 / 3316.0).abs() < 1e-12, "rate {rate}");
        assert_eq!(scraped_hit_rate("{\n  \"cache_hits\": 0,\n  \"cache_misses\": 0\n}"), None);
        assert_eq!(scraped_hit_rate("{\n  \"served_total\": 5\n}"), None);
    }
}
