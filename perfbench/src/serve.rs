//! `serve_lookup` and `serve_rows`: an in-process `kron-serve` server
//! (scale-7 `QueryEngine`, `ServerConfig` defaults: one worker, a
//! 4096-row cache) driven by one closed-loop connection from the
//! benchmark thread.
//!
//! The client is the benchmark's own: before timing it computes the
//! expected reply of every distinct (kind, vertex) in the query stream
//! with `Validator::expected_reply`; during the run it byte-compares every
//! reply against that table and times every frame exactly.

use std::collections::VecDeque;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use kron_core::KroneckerPair;
use kron_obs::alloc::{self, measure};
use kron_obs::ring::{self, ETYPE_QUERY};
use kron_serve::engine::QueryEngine;
use kron_serve::load::Validator;
use kron_serve::protocol::{self, Query, QueryKind, Request, HEADER_LEN, PROTO_VERSION};
use kron_serve::server::{self, ServerConfig, ServerHandle};
use rand::distributions::{Distribution, Zipf};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::stats::{mean_f64, median_f64, percentile};
use crate::trace::Tracer;
use crate::{derive_seed, factors, instance_seeds, Outcome, RunConfig};

/// Traffic shape of one serve workload.
pub struct Mix {
    /// Per-kind weights in `QueryKind::ALL` order.
    weights: [u32; 6],
    zipf_s: f64,
    /// Frames in flight on the connection.
    window: usize,
    /// Queries per frame.
    batch: usize,
}

/// The five O(1) kinds, zipf 1.0, one single-query frame in flight.
pub const LOOKUP: Mix = Mix {
    weights: [0, 1, 1, 1, 1, 1],
    zipf_s: 1.0,
    window: 1,
    batch: 1,
};
/// `Neighbors` only, zipf 1.2, four 8-query frames in flight.
pub const ROWS: Mix = Mix {
    weights: [1, 0, 0, 0, 0, 0],
    zipf_s: 1.2,
    window: 4,
    batch: 8,
};

/// Factor scale of the served pair: n_C = 2^14.
pub const SCALE: u32 = 7;
const ROOT: u64 = 0;
/// Queries in the pre-generated stream; the client cycles through it.
const STREAM_LEN: usize = 1 << 19;
/// Servers a run starts one after another, each on its own factor pair
/// and stream. The hottest vertices of a stream, and so the reply
/// lengths, differ from pair to pair; a run averages over all of them.
const INSTANCES: u64 = 8;
/// Queries sent to each server before timing starts, so the row cache is
/// warm.
const WARMUP_QUERIES: usize = 1 << 14;
/// Frames per block. Traced runs alternate traced and untraced blocks
/// and drain the flight recorder after each one; a block must stay
/// under the recorder's per-thread capacity so no event is lost.
const BLOCK_FRAMES: usize = 512;
/// Least time between two cold set-ups timed during an instance.
const SETUP_EVERY: Duration = Duration::from_millis(50);
/// Queries the engine answers directly, without the socket, in a traced
/// run.
const ENGINE_ONLY_QUERIES: usize = 1 << 15;
/// Response tags of single and batch replies on the wire.
const REPLY_SINGLE: u8 = 0;
const REPLY_BATCH: u8 = 1;

/// Expected wire reply of every distinct (kind, vertex) in a stream.
pub struct Expected {
    n_c: u64,
    /// `kind * n_c + vertex` → entry index, `u32::MAX` when absent.
    slot: Vec<u32>,
    /// Entry `e` is `bytes[starts[e]..starts[e + 1]]`.
    starts: Vec<usize>,
    bytes: Vec<u8>,
}

impl Expected {
    fn build(pair: &KroneckerPair, stream: &[Query]) -> Expected {
        let validator = Validator::new(pair, ROOT).expect("pair has full self loops");
        let n_c = pair.n_c();
        let mut e = Expected {
            n_c,
            slot: vec![u32::MAX; 6 * n_c as usize],
            starts: vec![0],
            bytes: Vec::new(),
        };
        for &q in stream {
            let s = e.index(q);
            if e.slot[s] == u32::MAX {
                e.slot[s] = u32::try_from(e.starts.len() - 1).expect("fewer than 2^32 entries");
                validator.expected_reply(q, &mut e.bytes);
                e.starts.push(e.bytes.len());
            }
        }
        e
    }

    fn index(&self, q: Query) -> usize {
        (q.kind.as_u8() as u64 * self.n_c + q.vertex) as usize
    }

    fn get(&self, q: Query) -> &[u8] {
        let entry = self.slot[self.index(q)] as usize;
        &self.bytes[self.starts[entry]..self.starts[entry + 1]]
    }

    /// Mutable bytes of `q`'s expected reply (tests corrupt it).
    #[cfg(test)]
    fn get_mut(&mut self, q: Query) -> &mut [u8] {
        let entry = self.slot[self.index(q)] as usize;
        &mut self.bytes[self.starts[entry]..self.starts[entry + 1]]
    }
}

pub struct Inputs {
    pub pair: KroneckerPair,
    pub stream: Vec<Query>,
    pub expected: Expected,
}

/// Benchmark-only preparation, outside `setup_s`: factors, the seeded
/// query stream and its expected replies.
pub fn prepare(seed: u64, mix: &Mix, scale: u32) -> Inputs {
    let pair = factors(scale, seed);
    let mut rng = SmallRng::seed_from_u64(derive_seed(seed, 4));
    let zipf = Zipf::new(pair.n_c(), mix.zipf_s).expect("n_C > 0 and s >= 0");
    let cumulative: Vec<u32> = mix
        .weights
        .iter()
        .scan(0, |acc, &w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = cumulative[5];
    let stream: Vec<Query> = (0..STREAM_LEN)
        .map(|_| {
            let x = rng.gen_range(0..total);
            let slot = cumulative.iter().position(|&c| x < c).expect("x < total");
            Query {
                kind: QueryKind::ALL[slot],
                vertex: zipf.sample(&mut rng),
            }
        })
        .collect();
    let expected = Expected::build(&pair, &stream);
    Inputs {
        pair,
        stream,
        expected,
    }
}

/// A running server and the benchmark's connection to it.
struct Live {
    engine: Arc<QueryEngine>,
    handle: ServerHandle,
    conn: TcpStream,
}

/// The program's set-up: engine, server, connection.
fn start(pair: KroneckerPair) -> std::io::Result<Live> {
    let engine = Arc::new(
        QueryEngine::from_pair(pair, ROOT).expect("pair satisfies the engine's preconditions"),
    );
    let handle = server::spawn(Arc::clone(&engine), ServerConfig::default())?;
    let conn = TcpStream::connect(handle.addr())?;
    conn.set_nodelay(true)?;
    Ok(Live {
        engine,
        handle,
        conn,
    })
}

fn stop(live: Live) {
    drop(live.conn);
    live.handle.shutdown();
}

/// Client side of one connection.
struct Client<'a> {
    inputs: &'a Inputs,
    mix: &'a Mix,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    req: Vec<u8>,
    payload: Vec<u8>,
    batch: Vec<Query>,
    next_id: u64,
    cursor: usize,
    /// Set by an I/O error; a broken connection sends nothing more.
    broken: bool,
}

/// Tallies of the frames a client ran.
#[derive(Default)]
struct Tally {
    frames: u64,
    queries: u64,
    failed: u64,
    reply_bytes: u64,
    /// Per-frame round trip, send to full reply, in ns, of the frames
    /// since it was last cleared.
    rtt_ns: Vec<u64>,
}

/// The `batch` queries of the frame starting at `start` in the cyclic
/// stream.
fn frame_queries(
    stream: &[Query],
    batch: usize,
    start: usize,
) -> impl ExactSizeIterator<Item = Query> + '_ {
    (0..batch).map(move |i| stream[(start + i) % stream.len()])
}

/// Whether `payload` is exactly the reply to frame `id` carrying
/// `queries`, byte for byte.
fn check_frame(
    payload: &[u8],
    id: u64,
    queries: impl ExactSizeIterator<Item = Query>,
    expected: &Expected,
) -> bool {
    if payload.len() < HEADER_LEN
        || payload[0] != PROTO_VERSION
        || payload[2..10] != id.to_le_bytes()
    {
        return false;
    }
    let n = queries.len();
    let mut pos = HEADER_LEN;
    if n == 1 {
        if payload[1] != REPLY_SINGLE {
            return false;
        }
    } else if payload[1] != REPLY_BATCH
        || payload.get(pos..pos + 4) != Some(&(n as u32).to_le_bytes()[..])
    {
        return false;
    } else {
        pos += 4;
    }
    for q in queries {
        let want = expected.get(q);
        if payload.get(pos..pos + want.len()) != Some(want) {
            return false;
        }
        pos += want.len();
    }
    pos == payload.len()
}

impl<'a> Client<'a> {
    fn new(inputs: &'a Inputs, mix: &'a Mix, conn: &TcpStream) -> std::io::Result<Client<'a>> {
        Ok(Client {
            inputs,
            mix,
            writer: conn.try_clone()?,
            reader: BufReader::with_capacity(1 << 16, conn.try_clone()?),
            req: Vec::new(),
            payload: Vec::new(),
            batch: Vec::with_capacity(mix.batch),
            next_id: 0,
            cursor: 0,
            broken: false,
        })
    }

    /// Sends `frames` frames with up to `window` in flight, checks every
    /// reply, and adds to `tally`. An I/O error marks the client broken;
    /// the frames it left unanswered count as failed.
    fn run(&mut self, frames: usize, tracer: &mut Tracer, tally: &mut Tally) {
        if self.broken {
            return;
        }
        let mut inflight: VecDeque<(u64, Instant, usize, crate::trace::SpanId)> = VecDeque::new();
        let mut sent = 0;
        while sent < frames || !inflight.is_empty() {
            while sent < frames && inflight.len() < self.mix.window {
                let id = self.next_id;
                self.next_id += 1;
                let start = self.cursor;
                self.cursor = (self.cursor + self.mix.batch) % self.inputs.stream.len();
                self.req.clear();
                if self.mix.batch == 1 {
                    protocol::encode_request(
                        id,
                        &Request::Single(self.inputs.stream[start]),
                        &mut self.req,
                    );
                } else {
                    self.batch.clear();
                    self.batch
                        .extend(frame_queries(&self.inputs.stream, self.mix.batch, start));
                    let req = Request::Batch(std::mem::take(&mut self.batch));
                    protocol::encode_request(id, &req, &mut self.req);
                    if let Request::Batch(v) = req {
                        self.batch = v;
                    }
                }
                let span = tracer.begin("serve.frame", id, None);
                let t = Instant::now();
                if let Err(e) = self.writer.write_all(&self.req) {
                    return self.abort(tally, inflight.len() + frames - sent, &e);
                }
                inflight.push_back((id, t, start, span));
                sent += 1;
            }
            match protocol::read_frame(&mut self.reader, &mut self.payload) {
                Ok(true) => {}
                Ok(false) => {
                    return self.abort(tally, inflight.len() + frames - sent, &"server closed")
                }
                Err(e) => return self.abort(tally, inflight.len() + frames - sent, &e),
            }
            let got = u64::from_le_bytes(
                self.payload
                    .get(2..10)
                    .and_then(|b| b.try_into().ok())
                    .unwrap_or([0xFF; 8]),
            );
            let Some(pos) = inflight.iter().position(|f| f.0 == got) else {
                return self.abort(
                    tally,
                    inflight.len() + frames - sent,
                    &"reply to an unknown request id",
                );
            };
            let (id, t, start, span) = inflight.remove(pos).expect("position is in range");
            tally.rtt_ns.push(t.elapsed().as_nanos() as u64);
            tally.frames += 1;
            tally.queries += self.mix.batch as u64;
            tally.reply_bytes += 4 + self.payload.len() as u64;
            let (ok, _) = tracer.span("serve.check_reply", id, Some(span), || {
                check_frame(
                    &self.payload,
                    id,
                    frame_queries(&self.inputs.stream, self.mix.batch, start),
                    &self.inputs.expected,
                )
            });
            tracer.end(span);
            if !ok {
                tally.failed += 1;
            }
        }
    }

    fn abort(&mut self, tally: &mut Tally, unanswered: usize, why: &dyn std::fmt::Display) {
        self.broken = true;
        eprintln!("serve: connection failed with {unanswered} frames unanswered: {why}");
        tally.frames += unanswered as u64;
        tally.failed += unanswered as u64;
    }
}

/// Per-stage nanoseconds of the frames a traced run drained from the
/// flight recorder.
#[derive(Default)]
struct Stages {
    queue: Vec<u64>,
    engine: Vec<u64>,
    cache: Vec<u64>,
    write: Vec<u64>,
    overflow: u64,
}

/// Waits until the flight recorder holds the event of the last frame in
/// `ids` (the one worker records frames in order, each just after writing
/// its reply), hands the events of frames in `ids` to `stages`, and
/// rewinds the recorder. Events of other frames are ignored, so a late
/// record from an earlier block cannot be mistaken for one of this block.
fn drain_ring(ids: std::ops::Range<u64>, stages: Option<&mut Stages>) {
    let give_up = Instant::now() + Duration::from_secs(1);
    let last = ids.end.saturating_sub(1);
    let snap = loop {
        let snap = ring::snapshot();
        let done = snap
            .rings
            .iter()
            .flat_map(|r| &r.events)
            .any(|e| e.etype == ETYPE_QUERY && e.id == last);
        if done || ids.is_empty() || Instant::now() >= give_up {
            break snap;
        }
        std::thread::yield_now();
    };
    ring::reset();
    if let Some(st) = stages {
        st.overflow += snap.total_overflow() + snap.dropped_threads;
        for e in snap.rings.iter().flat_map(|r| &r.events) {
            if e.etype == ETYPE_QUERY && ids.contains(&e.id) {
                st.queue.push(e.stages.queue_ns);
                st.engine.push(e.stages.engine_ns);
                st.cache.push(e.stages.cache_ns);
                st.write.push(e.stages.write_ns);
            }
        }
    }
}

/// What a run accumulates over its instances.
#[derive(Default)]
struct Acc {
    timed: Tally,
    warm: Tally,
    stages: Stages,
    /// Median cold set-up of each instance.
    setup_s: Vec<f64>,
    /// Median and 90th-percentile round trip of each block, in ns.
    block_p50: Vec<f64>,
    block_p90: Vec<f64>,
    peak_heap: Vec<u64>,
    /// Queries and seconds of the timed blocks, traced and untraced.
    traced: (u64, f64),
    untraced: (u64, f64),
    cache_hits: u64,
    cache_lookups: u64,
    engine_s: f64,
    engine_queries: u64,
}

/// Runs the instances one after another, each for an equal share of the
/// timed budget.
pub fn run(cfg: &mut RunConfig, mix: &Mix) -> Outcome {
    let mut acc = Acc::default();
    acc.timed.rtt_ns.reserve(BLOCK_FRAMES);
    for s in instance_seeds(cfg.seed, INSTANCES) {
        let inputs = prepare(s, mix, SCALE);
        run_instance(cfg, mix, &inputs, INSTANCES as f64, &mut acc);
    }
    summarize(acc, cfg.tracer.enabled())
}

/// One cold set-up of the program, timed, then torn down untimed.
fn cold_setup(pair: &KroneckerPair) -> f64 {
    let pair = pair.clone();
    let t = Instant::now();
    let live = start(pair).expect("start server");
    let secs = t.elapsed().as_secs_f64();
    stop(live);
    secs
}

/// Heap high-water mark of an instance's phases, above the live bytes
/// when the instance started. The cold set-ups sampled between blocks
/// run outside every phase, so the extra server each one starts is not
/// counted.
struct HeapWatch {
    base: u64,
    peak: u64,
}

impl HeapWatch {
    fn new() -> HeapWatch {
        HeapWatch {
            base: alloc::live_bytes(),
            peak: 0,
        }
    }

    fn phase<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let above = alloc::live_bytes().saturating_sub(self.base);
        let (out, m) = measure(f);
        self.peak = self.peak.max(above + m.peak_bytes);
        out
    }
}

/// One instance: start the server (a timed set-up), an untimed warm-up,
/// then blocks of frames for `1 / share` of the run's timed budget. Every
/// `SETUP_EVERY` of the run, between blocks and untimed for them, one
/// more cold set-up is timed, so `setup_s` samples the whole run rather
/// than one burst at its start.
fn run_instance(cfg: &mut RunConfig, mix: &Mix, inputs: &Inputs, share: f64, acc: &mut Acc) {
    // kron-serve ships with metrics and the flight recorder on.
    kron_obs::set_enabled(true);
    ring::set_enabled(true);
    let traced = cfg.tracer.enabled();
    let mut heap = HeapWatch::new();
    let pair = inputs.pair.clone();
    let t = Instant::now();
    let live = heap.phase(|| start(pair)).expect("start server");
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    let mut client = Client::new(inputs, mix, &live.conn).expect("clone connection");
    let mut off = Tracer::new(false);
    heap.phase(|| client.run(WARMUP_QUERIES / mix.batch, &mut off, &mut acc.warm));
    let before = live.handle.cache_stats();
    if traced {
        drain_ring(0..client.next_id, None);
    }
    let mut budget = cfg.budget_share(share);
    let mut block = 0u64;
    let mut last_setup = Instant::now();
    let (q_start, secs_start) = (acc.timed.queries, acc.untraced.1 + acc.traced.1);
    while (!budget.exhausted() || block == 0) && !client.broken {
        // Traced runs alternate traced and untraced blocks.
        let trace_this = traced && block.is_multiple_of(2);
        let tracer = if trace_this {
            &mut cfg.tracer
        } else {
            &mut off
        };
        let (q0, id0) = (acc.timed.queries, client.next_id);
        let t = Instant::now();
        heap.phase(|| client.run(BLOCK_FRAMES, tracer, &mut acc.timed));
        let ids = id0..client.next_id;
        if trace_this {
            let stages = &mut acc.stages;
            tracer.span("serve.drain_flight_ring", block, None, || {
                drain_ring(ids.clone(), Some(stages))
            });
        }
        let secs = t.elapsed();
        budget.charge(secs);
        if traced && !trace_this {
            drain_ring(ids, None);
        }
        let side = if trace_this {
            &mut acc.traced
        } else {
            &mut acc.untraced
        };
        side.0 += acc.timed.queries - q0;
        side.1 += secs.as_secs_f64();
        let rtt = &mut acc.timed.rtt_ns;
        acc.block_p50.push(percentile(rtt, 0.5) as f64);
        acc.block_p90.push(percentile(rtt, 0.9) as f64);
        rtt.clear();
        block += 1;
        if last_setup.elapsed() >= SETUP_EVERY {
            setup_s.push(cold_setup(&inputs.pair));
            last_setup = Instant::now();
        }
    }
    let after = live.handle.cache_stats();
    eprintln!(
        "serve: instance of {} arcs: {:.0} queries/s, set-up median {:.6} s over {}",
        inputs.pair.nnz_c(),
        (acc.timed.queries - q_start) as f64 / (acc.untraced.1 + acc.traced.1 - secs_start),
        median_f64(&setup_s),
        setup_s.len()
    );
    acc.setup_s.push(median_f64(&setup_s));
    acc.peak_heap.push(heap.peak);
    acc.cache_hits += after.hits - before.hits;
    acc.cache_lookups += (after.hits + after.misses) - (before.hits + before.misses);
    if traced {
        let (n, secs) = cfg.tracer.span("serve.engine_only", 0, None, || {
            engine_only(&live.engine, &inputs.stream)
        });
        acc.engine_s += secs;
        acc.engine_queries += n as u64;
    }
    stop(live);
}

fn summarize(mut acc: Acc, traced: bool) -> Outcome {
    let mut m = std::collections::BTreeMap::new();
    let timed = &mut acc.timed;
    if !traced {
        m.insert("setup_s", mean_f64(&acc.setup_s));
        m.insert("work_per_s", acc.untraced.0 as f64 / acc.untraced.1);
        m.insert("op_p50_us", mean_f64(&acc.block_p50) / 1e3);
        m.insert("op_p90_us", mean_f64(&acc.block_p90) / 1e3);
        m.insert(
            "peak_heap_bytes",
            mean_f64(&acc.peak_heap.iter().map(|&b| b as f64).collect::<Vec<_>>()),
        );
    } else {
        m.insert(
            "serve.engine_ns_per_query",
            acc.engine_s * 1e9 / acc.engine_queries as f64,
        );
        let st = &mut acc.stages;
        for ([p50, p90], v) in [
            (
                ["serve.stage.queue_ns_p50", "serve.stage.queue_ns_p90"],
                &mut st.queue,
            ),
            (
                ["serve.stage.engine_ns_p50", "serve.stage.engine_ns_p90"],
                &mut st.engine,
            ),
            (
                ["serve.stage.cache_ns_p50", "serve.stage.cache_ns_p90"],
                &mut st.cache,
            ),
            (
                ["serve.stage.write_ns_p50", "serve.stage.write_ns_p90"],
                &mut st.write,
            ),
        ] {
            m.insert(p50, percentile(v, 0.5) as f64);
            m.insert(p90, percentile(v, 0.9) as f64);
        }
        let lookups = acc.cache_lookups;
        m.insert("serve.cache_lookups", lookups as f64);
        m.insert(
            "serve.cache_hit_ratio",
            if lookups == 0 {
                0.0
            } else {
                acc.cache_hits as f64 / lookups as f64
            },
        );
        m.insert(
            "serve.reply_bytes_per_query",
            timed.reply_bytes as f64 / timed.queries as f64,
        );
        m.insert("serve.flight_overflow", st.overflow as f64);
        let ((tq, ts), (uq, us)) = (acc.traced, acc.untraced);
        if tq > 0 && uq > 0 {
            m.insert(
                "obs.trace_overhead_pct",
                ((uq as f64 / us) / (tq as f64 / ts) - 1.0) * 100.0,
            );
        }
    }
    let warm = &acc.warm;
    eprintln!(
        "serve: {} frames, {} queries timed, {} failed; {} warm-up frames, {} failed",
        timed.frames, timed.queries, timed.failed, warm.frames, warm.failed
    );
    Outcome {
        attempted: timed.frames + warm.frames,
        failed: timed.failed + warm.failed,
        metrics: m,
    }
}

/// `QueryEngine::reply_into` over the head of the stream, no socket, no
/// cache: the engine's own cost per query. Returns the queries answered.
fn engine_only(engine: &QueryEngine, stream: &[Query]) -> usize {
    let mut row = Vec::new();
    let mut out = Vec::new();
    for &q in stream.iter().cycle().take(ENGINE_ONLY_QUERIES) {
        out.clear();
        engine.reply_into(q, &mut row, &mut out);
        std::hint::black_box(&out);
    }
    ENGINE_ONLY_QUERIES
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The flight recorder and the obs registry are process-wide, so
    /// servers in concurrently running tests would share them.
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn short_run(inputs: &Inputs, mix: &Mix, traced: bool) -> Outcome {
        let _serial = SERIAL
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut cfg = RunConfig {
            seed: 0,
            seconds: 0.05,
            tracer: Tracer::new(traced),
            deadline: Instant::now() + Duration::from_secs(60),
        };
        let mut acc = Acc::default();
        run_instance(&mut cfg, mix, inputs, 1.0, &mut acc);
        summarize(acc, traced)
    }

    #[test]
    fn clean_runs_have_no_failures() {
        for mix in [&LOOKUP, &ROWS] {
            let inputs = prepare(3, mix, 4);
            let out = short_run(&inputs, mix, false);
            assert!(out.attempted > 0);
            assert_eq!(out.failed, 0);
        }
    }

    #[test]
    fn corrupted_expected_reply_fails_exactly_the_frames_that_carry_it() {
        for mix in [&LOOKUP, &ROWS] {
            let mut inputs = prepare(3, mix, 4);
            let hot = inputs.stream[0];
            let bytes = inputs.expected.get_mut(hot);
            let last = bytes.len() - 1;
            bytes[last] ^= 1;
            let out = short_run(&inputs, mix, false);
            // Frames cycle through the stream in order, so frame f
            // carries stream[f * batch ..][..batch].
            let len = inputs.stream.len();
            let carrying = (0..out.attempted as usize)
                .filter(|f| (0..mix.batch).any(|i| inputs.stream[(f * mix.batch + i) % len] == hot))
                .count() as u64;
            assert!(carrying > 0);
            assert_eq!(out.failed, carrying);
        }
    }

    #[test]
    fn traced_run_loses_no_flight_events() {
        let inputs = prepare(3, &LOOKUP, 4);
        let out = short_run(&inputs, &LOOKUP, true);
        assert_eq!(out.failed, 0);
        assert_eq!(out.metrics["serve.flight_overflow"], 0.0);
        assert!(out.metrics["serve.stage.engine_ns_p50"] > 0.0);
    }
}
