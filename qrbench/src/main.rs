//! End-to-end benchmark of the pulsar QR service.
//!
//! ```text
//! cargo run --release --manifest-path qrbench/Cargo.toml -- \
//!     --workload small-jobs --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process starts serve nodes (and, for `routed-jobs`, a router) on
//! loopback TCP through the public `serve` / `route` functions, drives
//! them with closed-loop `Client`s, verifies every answer against an
//! oracle computed before set-up, and prints one JSON object as its last
//! line. `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced variant and reports the per-layer ledger. The load is closed
//! loop because `Client` is synchronous and its callers block on each
//! answer. See `qrbench/README.md` for the workloads and predictions.

mod fleet;
mod layers;
mod spans;
mod stats;
mod work;

use fleet::{start_node, start_router, Fleet};
use pulsar_core::{tile_qr_seq, QrOptions, Tree};
use pulsar_linalg::{flops, Matrix};
use pulsar_server::{Client, Msg};
use stats::{
    figures, json_num, median, quantile, quietest, rss_hwm_kb, rss_kb_per_op, samples_beyond,
    steal_ticks, tail_percentile, window_steal, Tally,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use work::{
    rng_for, run_phase, Driver, FactorDriver, FactorInputs, InProcess, Lane, PhaseOut, StoreDriver,
    StoreInputs, RHS,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Equal time windows of the timed phase. The end-to-end figures pool the
/// half of them in which the hypervisor took the least CPU (steal), so a
/// burst of host contention in part of a run does not read as the
/// program's speed.
const WINDOWS: usize = 10;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Fire-and-forget factorizations of `m x n`.
    Factor,
    /// Keep / solve / apply-q / update / release on kept handles.
    Store,
}

/// A workload: its traffic and the topology it runs against.
struct Spec {
    name: &'static str,
    kind: Kind,
    m: usize,
    n: usize,
    nb: usize,
    ib: usize,
    tree: Tree,
    clients: usize,
    nodes: usize,
    threads: usize,
    routed: bool,
    /// Tail percentile, fixed so a run's kept windows hold at least ten
    /// samples beyond it.
    tail: u32,
}

fn spec(name: &str) -> Option<Spec> {
    let small = |name, routed: bool| Spec {
        name,
        kind: Kind::Factor,
        m: 128,
        n: 32,
        nb: 16,
        ib: 4,
        tree: Tree::Greedy,
        clients: 2,
        nodes: if routed { 2 } else { 1 },
        threads: if routed { 1 } else { 2 },
        routed,
        tail: 99,
    };
    Some(match name {
        "small-jobs" => small("small-jobs", false),
        "routed-jobs" => small("routed-jobs", true),
        "large-factor" => Spec {
            name: "large-factor",
            kind: Kind::Factor,
            m: 2048,
            n: 512,
            nb: 128,
            ib: 32,
            tree: Tree::BinaryOnFlat { h: 4 },
            clients: 1,
            nodes: 1,
            threads: 2,
            routed: false,
            tail: 90,
        },
        "factor-store" => Spec {
            name: "factor-store",
            kind: Kind::Store,
            m: 1024,
            n: 64,
            nb: 32,
            ib: 8,
            tree: Tree::Greedy,
            clients: 2,
            nodes: 1,
            threads: 2,
            routed: false,
            tail: 99,
        },
        _ => return None,
    })
}

impl Spec {
    fn opts(&self) -> QrOptions {
        QrOptions::new(self.nb, self.ib, self.tree.clone())
    }
}

enum Inputs {
    Factor(Arc<FactorInputs>),
    Store(Arc<StoreInputs>),
}

impl Inputs {
    fn build(spec: &Spec, seed: u64) -> Inputs {
        let mut rng = rng_for(seed, 1);
        match spec.kind {
            Kind::Factor => {
                // A few distinct large matrices bound oracle time and memory;
                // small jobs cycle through more so caches do not see one input.
                let count = if spec.m * spec.n > 1 << 18 { 4 } else { 64 };
                Inputs::Factor(Arc::new(FactorInputs::new(
                    &mut rng,
                    spec.m,
                    spec.n,
                    spec.opts(),
                    count,
                )))
            }
            // 8 base matrices; 16 handle lives, twice the handles two
            // connections hold at once, so a slot's next life differs.
            Kind::Store => Inputs::Store(Arc::new(StoreInputs::new(
                &mut rng,
                spec.m,
                spec.n,
                spec.opts(),
                8,
                16,
            ))),
        }
    }

    fn driver(&self, index: usize) -> Box<dyn Driver> {
        match self {
            Inputs::Factor(f) => Box::new(FactorDriver::new(f.clone(), index)),
            Inputs::Store(s) => Box::new(StoreDriver::new(s.clone(), index)),
        }
    }

    /// The workload's factorization jobs: its own, or the keeps' shape.
    fn factor_jobs(&self) -> Arc<FactorInputs> {
        match self {
            Inputs::Factor(f) => f.clone(),
            Inputs::Store(s) => {
                let (m, n) = (s.bases[0].nrows(), s.bases[0].ncols());
                Arc::new(FactorInputs {
                    opts: s.opts.clone(),
                    mats: s.bases.clone(),
                    oracle_r: s.base_r.clone(),
                    flops: flops::qr_flops(m, n),
                })
            }
        }
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    let mut c = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    c.ping().map_err(|e| format!("ping {addr}: {e}"))?;
    Ok(c)
}

/// Start the workload's fleet, connect its clients and preload. Returns
/// the set-up seconds, which exclude oracle computation (done before).
fn setup(spec: &Spec, inputs: &Inputs) -> Result<(Fleet, Vec<Lane>, f64), String> {
    let t0 = Instant::now();
    let fleet = Fleet::start(spec.nodes, spec.threads, spec.routed)?;
    let mut lanes: Vec<Lane> = Vec::new();
    let mut rec = spans::Recorder::new(t0, false);
    for i in 0..spec.clients {
        let mut c = connect(fleet.entry())?;
        let mut d = inputs.driver(i);
        d.preload(&mut c, &mut rec)
            .map_err(|e| format!("preload: {e}"))?;
        lanes.push((Box::new(c), d));
    }
    Ok((fleet, lanes, t0.elapsed().as_secs_f64()))
}

/// Set up [`SETUPS`] times, tearing down all but the last.
fn setup_repeated(spec: &Spec, inputs: &Inputs) -> Result<(Fleet, Vec<Lane>, Vec<f64>), String> {
    let mut times = Vec::new();
    loop {
        let (fleet, lanes, secs) = setup(spec, inputs)?;
        times.push(secs);
        if times.len() == SETUPS {
            return Ok((fleet, lanes, times));
        }
        drop(lanes);
        fleet.drain()?;
    }
}

/// Metrics keyed by name, each with its unit.
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

fn p50_us(p: &PhaseOut) -> f64 {
    if p.lat_us.is_empty() {
        f64::NAN
    } else {
        quantile(&p.lat_us, 0.5)
    }
}

/// Running verdict of a run: every phase's counts and failure messages.
#[derive(Default)]
struct Verdict {
    tally: Tally,
    messages: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, what: &str, p: &PhaseOut) {
        self.tally.add(&p.tally);
        for f in &p.failures {
            if self.messages.len() < 8 {
                self.messages.push(format!("{what}: {f}"));
            }
        }
    }
}

fn warmup_duration(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds * 0.1).max(0.5))
}

/// The untraced run: end-to-end metrics.
fn run_e2e(spec: &Spec, inputs: &Inputs, seconds: f64, v: &mut Verdict) -> Result<Metrics, String> {
    let (fleet, mut lanes, setups) = setup_repeated(spec, inputs)?;
    let warm = run_phase(&mut lanes, warmup_duration(seconds), None);
    v.absorb("warm-up", &warm);
    let (rss0, _) = rss_hwm_kb();
    let stop = AtomicBool::new(false);
    let (timed, steal_at) = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut at = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                at.push((Instant::now(), steal_ticks()));
                std::thread::sleep(Duration::from_millis(50));
            }
            at.push((Instant::now(), steal_ticks()));
            at
        });
        let timed = run_phase(&mut lanes, Duration::from_secs_f64(seconds), None);
        stop.store(true, Ordering::Relaxed);
        (timed, sampler.join().expect("steal sampler panicked"))
    });
    let (rss1, hwm) = rss_hwm_kb();
    v.absorb("timed", &timed);
    drop(lanes);
    let drained = fleet.drain()?;

    let samples: Vec<(f64, u64)> = steal_at
        .iter()
        .map(|(t, s)| (t.saturating_duration_since(timed.start).as_secs_f64(), *s))
        .collect();
    let steal = window_steal(&samples, timed.elapsed_s, WINDOWS);
    let kept = quietest(&steal, WINDOWS / 2);
    let tail_q = f64::from(spec.tail) / 100.0;
    let fig = figures(&timed.done, timed.elapsed_s, &kept, tail_q);
    let completed = timed.tally.completed();
    let mut m = Metrics::new();
    put(&mut m, "throughput_ops_s", fig.ops_per_s, "ops/s");
    put(&mut m, "latency_p50_ms", fig.p50 / 1e3, "ms");
    put(&mut m, "latency_tail_ms", fig.tail / 1e3, "ms");
    put(&mut m, "gflops", fig.flops_per_s / 1e9, "GFLOP/s");
    put(
        &mut m,
        "rss_kb_per_op",
        rss_kb_per_op(rss0, rss1, completed),
        "KB",
    );
    put(&mut m, "setup_s", median(&setups), "s");

    println!(
        "# {}: {} ops in {:.3} s over {} client(s); figures from the {} quietest of {} \
         windows ({} samples, {} beyond p{})",
        spec.name,
        completed,
        timed.elapsed_s,
        spec.clients,
        WINDOWS / 2,
        WINDOWS,
        fig.samples,
        samples_beyond(fig.samples, spec.tail),
        spec.tail
    );
    if tail_percentile(fig.samples).is_none_or(|p| p < spec.tail) {
        println!("# warning: fewer than 10 samples beyond p{}", spec.tail);
    }
    println!(
        "# steal ticks per window {steal:?}, kept {:?}",
        kept.iter()
            .enumerate()
            .filter(|(_, k)| **k)
            .map(|(w, _)| w)
            .collect::<Vec<_>>()
    );
    println!(
        "# whole run: {} ops/s, p50 {} ms, p{} {} ms",
        timed.ops_per_s(),
        p50_us(&timed) / 1e3,
        spec.tail,
        quantile(&timed.lat_us, tail_q) / 1e3
    );
    println!(
        "# failed_frac {} ({} of {} attempted: {} errors, {} refused, {} wrong)",
        timed.tally.failed_frac(),
        timed.tally.failed(),
        timed.tally.attempted,
        timed.tally.errors,
        timed.tally.refused,
        timed.tally.wrong
    );
    println!(
        "# rss {} -> {} KB (hwm {} KB); set-ups {:?} s",
        rss0, rss1, hwm, setups
    );
    println!(
        "# drain: {}",
        drained
            .lines()
            .next()
            .unwrap_or("")
            .chars()
            .take(400)
            .collect::<String>()
    );
    Ok(m)
}

/// Sum a numeric field over every node section of drain stats. Node
/// sections are the lines of a direct drain, or the `"stats":{...}`
/// objects a router rollup embeds.
fn node_sum(drained: &str, key: &str) -> f64 {
    let mut starts: Vec<usize> = drained
        .match_indices("\"stats\":{")
        .map(|(i, _)| i)
        .collect();
    if starts.is_empty() {
        let mut off = 0;
        for line in drained.lines() {
            starts.push(off);
            off += line.len() + 1;
        }
    }
    starts
        .iter()
        .filter_map(|&s| json_num(drained, key, s))
        .sum()
}

fn jobs_done(fleet: &Fleet) -> f64 {
    fleet
        .nodes
        .iter()
        .filter_map(|n| json_num(&n.svc.stats_json(), "jobs_done", 0))
        .sum()
}

fn self_time_median(p: &PhaseOut, name: &str) -> f64 {
    let mut all = Vec::new();
    for s in &p.spans {
        if let Some(v) = spans::self_times_by_name(s).remove(name) {
            all.extend(v);
        }
    }
    if all.is_empty() {
        f64::NAN
    } else {
        median(&all)
    }
}

fn factor_lanes(addrs: &[&str], jobs: &Arc<FactorInputs>) -> Result<Vec<Lane>, String> {
    addrs
        .iter()
        .enumerate()
        .map(|(i, a)| -> Result<Lane, String> {
            let c = connect(a)?;
            Ok((Box::new(c), Box::new(FactorDriver::new(jobs.clone(), i))))
        })
        .collect()
}

/// The traced run: per-layer metrics and the ledger.
fn run_layers(
    spec: &Spec,
    inputs: &Inputs,
    seconds: f64,
    seed: u64,
    v: &mut Verdict,
) -> Result<Metrics, String> {
    let s = |share: f64| Duration::from_secs_f64(seconds * share);
    let opts = spec.opts();
    let jobs = inputs.factor_jobs();
    let (a, r) = (&jobs.mats[0], &jobs.oracle_r[0]);
    let mut m = Metrics::new();
    // Every span of the run shares one epoch; layer loops keep the first
    // 256 calls of each name.
    let epoch = Instant::now();
    let mut lrec = spans::Recorder::capped(epoch, 256);
    let mut all_spans: Vec<(&str, Vec<spans::Span>)> = Vec::new();

    // End to end, untraced then traced, on the workload's own fleet.
    let (mut fleet, mut lanes, _) = setup(spec, inputs)?;
    v.absorb(
        "warm-up",
        &run_phase(&mut lanes, warmup_duration(seconds), None),
    );
    let plain = run_phase(&mut lanes, s(0.2), None);
    v.absorb("untraced", &plain);
    let before = jobs_done(&fleet);
    let traced = run_phase(&mut lanes, s(0.2), Some(epoch));
    v.absorb("traced", &traced);
    let traced_dispatches = (jobs_done(&fleet) - before) / traced.tally.completed().max(1) as f64;
    drop(lanes);
    let e2e_us = p50_us(&traced);
    put(&mut m, "ledger.traced_p50_ms", e2e_us / 1e3, "ms");
    put(&mut m, "ledger.untraced_p50_ms", p50_us(&plain) / 1e3, "ms");
    put(
        &mut m,
        "ledger.tracing_overhead_ms",
        (e2e_us - p50_us(&plain)) / 1e3,
        "ms",
    );
    put(
        &mut m,
        "client.submit_us",
        self_time_median(&traced, "client.submit"),
        "us",
    );
    put(
        &mut m,
        "client.result_us",
        self_time_median(&traced, "client.result"),
        "us",
    );
    all_spans.extend(traced.spans.into_iter().map(|s| ("e2e", s)));

    // Transport: an empty round trip on a node connection.
    let mut c = connect(&fleet.nodes[0].addr)?;
    let rtt_us = layers::time_us(&mut lrec, "client.ping", s(0.03), 50, || {
        c.ping().expect("ping on a live node");
    });
    drop(c);
    let round_trips = if spec.kind == Kind::Factor { 2.0 } else { 1.0 };
    let tcp_us = rtt_us * round_trips;

    // Router: the same job routed and sent straight to a node.
    let (router_us, dispatches) = if spec.routed {
        let addrs: Vec<&str> = (0..spec.clients)
            .map(|i| fleet.nodes[i % fleet.nodes.len()].addr.as_str())
            .collect();
        let mut direct = factor_lanes(&addrs, &jobs)?;
        let d = run_phase(&mut direct, s(0.1), Some(epoch));
        v.absorb("direct", &d);
        let direct_us = p50_us(&d);
        all_spans.extend(d.spans.into_iter().map(|s| ("direct", s)));
        (e2e_us - direct_us, traced_dispatches)
    } else {
        let front = start_router(&fleet.nodes)?;
        let mut direct = factor_lanes(&[fleet.nodes[0].addr.as_str()], &jobs)?;
        let d = run_phase(&mut direct, s(0.08), Some(epoch));
        v.absorb("direct", &d);
        let mut routed = factor_lanes(&[front.addr.as_str()], &jobs)?;
        let before = jobs_done(&fleet);
        let rt = run_phase(&mut routed, s(0.08), Some(epoch));
        v.absorb("routed", &rt);
        let dispatches = (jobs_done(&fleet) - before) / rt.tally.completed().max(1) as f64;
        fleet.router = Some(front);
        let overhead = p50_us(&rt) - p50_us(&d);
        all_spans.extend(d.spans.into_iter().map(|s| ("direct", s)));
        all_spans.extend(rt.spans.into_iter().map(|s| ("routed", s)));
        (overhead, dispatches)
    };
    put(&mut m, "server.router.overhead_us", router_us, "us");
    put(
        &mut m,
        "server.router.dispatches_per_job",
        dispatches,
        "ratio",
    );
    let drained = fleet.drain()?;
    let placed: Vec<f64> = drained
        .match_indices("\"placed\":")
        .filter_map(|(i, _)| json_num(&drained, "placed", i))
        .collect();
    let placed_total: f64 = placed.iter().sum();
    put(
        &mut m,
        "server.router.placed_max_share",
        placed.iter().cloned().fold(0.0, f64::max) / placed_total.max(1.0),
        "ratio",
    );
    let batches = node_sum(&drained, "batches");
    put(
        &mut m,
        "server.service.jobs_per_batch",
        node_sum(&drained, "jobs_done") / batches.max(1.0),
        "jobs",
    );
    put(
        &mut m,
        "server.service.rejected",
        node_sum(&drained, "jobs_rejected"),
        "count",
    );
    put(
        &mut m,
        "server.service.redispatched",
        node_sum(&drained, "jobs_redispatched"),
        "count",
    );
    put(
        &mut m,
        "server.store.hits",
        node_sum(&drained, "hits"),
        "count",
    );
    put(
        &mut m,
        "server.store.bytes",
        node_sum(&drained, "bytes"),
        "bytes",
    );

    // In-process service: the same drivers calling `Service` directly.
    let per_node = (spec.clients / spec.nodes).max(1);
    let node = start_node(spec.threads);
    let mut inproc: Vec<Lane> = Vec::new();
    let mut rec = spans::Recorder::new(Instant::now(), false);
    for i in 0..per_node {
        let mut ep = InProcess(node.svc.clone());
        let mut d = inputs.driver(i);
        d.preload(&mut ep, &mut rec)
            .map_err(|e| format!("in-process preload: {e}"))?;
        inproc.push((Box::new(ep), d));
    }
    run_phase(&mut inproc, warmup_duration(seconds) / 2, None);
    let svc = run_phase(&mut inproc, s(0.1), Some(epoch));
    v.absorb("in-process", &svc);
    drop(inproc);
    Fleet {
        nodes: vec![node],
        router: None,
    }
    .drain()?;
    let op_us = p50_us(&svc);
    put(&mut m, "server.service.op_us", op_us, "us");
    put(
        &mut m,
        "server.service.submit_us",
        self_time_median(&svc, "service.submit"),
        "us",
    );
    all_spans.extend(svc.spans.into_iter().map(|s| ("in-process", s)));

    // Executors and kernels on one job of the workload's shape.
    let (kernel_us, calls) = layers::kernels(&mut lrec, a, &opts, s(0.04));
    put(&mut m, "linalg.kernel_us", kernel_us, "us");
    put(
        &mut m,
        "linalg.kernel_gflops",
        jobs.flops / kernel_us / 1e3,
        "GFLOP/s",
    );
    put(&mut m, "linalg.kernel_calls", calls as f64, "count");
    let (seq_us, tsqr_us) = layers::engines(&mut lrec, a, &opts, s(0.04));
    put(&mut m, "core.seq_us", seq_us, "us");
    put(&mut m, "core.tsqr_us", tsqr_us, "us");
    let batch_max = pulsar_server::ServeConfig::default().batch_max;
    let (vsa_us, vsa_batch_us, run) =
        layers::vsa3d(&mut lrec, a, &opts, spec.threads, batch_max, s(0.05));
    put(&mut m, "core.vsa3d_us", vsa_us, "us");
    put(&mut m, "core.vsa3d_batch_us", vsa_batch_us, "us");
    put(&mut m, "runtime.overhead_us", vsa_us - seq_us, "us");
    put(&mut m, "runtime.fired", run.fired as f64, "count");
    put(
        &mut m,
        "runtime.peak_channel_depth",
        run.peak_channel_depth as f64,
        "count",
    );
    put(
        &mut m,
        "runtime.wire_bytes",
        run.wire_bytes_sent as f64,
        "bytes",
    );

    let factors = tile_qr_seq(a, &opts);
    let mut rng = rng_for(seed, 2);
    let b = Matrix::random(a.nrows(), RHS, &mut rng);
    let e = Matrix::random(opts.nb, a.ncols(), &mut rng);
    let (solve_us, apply_us, append_us) = layers::factor_ops(&mut lrec, &factors, &b, &e, s(0.04));
    put(&mut m, "core.factors.solve_us", solve_us, "us");
    put(&mut m, "core.factors.apply_q_us", apply_us, "us");
    put(&mut m, "core.update.append_rows_us", append_us, "us");
    let (ins, get, rel) = layers::store(&mut lrec, &factors, s(0.02));
    put(&mut m, "server.store.insert_us", ins, "us");
    put(&mut m, "server.store.get_us", get, "us");
    put(&mut m, "server.store.release_us", rel, "us");
    put(
        &mut m,
        "server.router.ledger_us",
        layers::ledger(&mut lrec, a, r, &opts, s(0.02)),
        "us",
    );

    // The operation's frames: a factor job is submit + result; the
    // factor-store median operation is a solve.
    let (requests, replies, compute_us, op_flops, fired) = match spec.kind {
        Kind::Factor => (
            vec![
                Msg::Submit {
                    nb: opts.nb as u32,
                    ib: opts.ib as u32,
                    deadline_ms: 0,
                    keep: false,
                    idem: 0,
                    tree: opts.tree.to_string(),
                    a: a.clone(),
                },
                Msg::Result { job: 1 },
            ],
            vec![
                Msg::SubmitOk { job: 1 },
                Msg::RFactor {
                    job: 1,
                    r: r.clone(),
                },
            ],
            vsa_us,
            jobs.flops,
            run.fired,
        ),
        Kind::Store => {
            let x = factors.solve_ls(&b);
            let f =
                flops::unmqr_flops(b.nrows(), RHS, a.ncols()) + flops::trsm_flops(RHS, a.ncols());
            (
                vec![Msg::Solve {
                    handle: 1,
                    b: b.clone(),
                }],
                vec![Msg::Solution { handle: 1, x }],
                solve_us,
                f,
                0,
            )
        }
    };
    let codec = layers::codec(&mut lrec, &requests, &replies, s(0.03));
    put(&mut m, "server.proto.encode_us", codec.encode_us, "us");
    put(&mut m, "server.proto.decode_us", codec.decode_us, "us");
    put(
        &mut m,
        "server.proto.request_bytes",
        codec.request_bytes as f64,
        "bytes",
    );
    put(
        &mut m,
        "server.proto.reply_bytes",
        codec.reply_bytes as f64,
        "bytes",
    );
    put(&mut m, "server.service.queue_us", op_us - compute_us, "us");
    put(&mut m, "server.server.tcp_us", tcp_us, "us");
    let wire = (codec.request_bytes + codec.reply_bytes) as f64 + run.wire_bytes_sent as f64;
    put(
        &mut m,
        "comm.messages_per_op",
        (fired + codec.frames) as f64,
        "count",
    );
    put(&mut m, "comm.bytes_per_op", wire, "bytes");
    put(&mut m, "comm.flops_per_op", op_flops, "flop");

    // The ledger: layers on the operation's blocking path.
    let codec_us = codec.encode_us + codec.decode_us;
    let routed_us = if spec.routed { router_us } else { 0.0 };
    let mut rows: Vec<(&str, f64)> = match spec.kind {
        Kind::Factor => vec![
            ("linalg.kernel_us", kernel_us),
            ("core.seq_us - linalg.kernel_us", seq_us - kernel_us),
            ("runtime.overhead_us", vsa_us - seq_us),
            ("server.service.queue_us", op_us - vsa_us),
        ],
        Kind::Store => vec![
            ("core.factors.solve_us", solve_us),
            ("server.service.queue_us", op_us - solve_us),
        ],
    };
    rows.push(("server.proto encode+decode", codec_us));
    rows.push(("server.server.tcp_us", tcp_us));
    rows.push(("server.router.overhead_us", routed_us));
    let covered: f64 = rows.iter().map(|(_, us)| us).sum();
    let unexplained = (e2e_us - covered) / e2e_us;
    put(&mut m, "ledger.unexplained_frac", unexplained, "ratio");
    let (_, hwm) = rss_hwm_kb();
    put(&mut m, "mem.vm_hwm_kb", hwm as f64, "KB");

    println!("# ledger of {} (traced p50 {:.1} us):", spec.name, e2e_us);
    for (name, us) in &rows {
        println!("#   {name:<34} {us:>12.1} us {:>7.1}%", 100.0 * us / e2e_us);
    }
    println!(
        "#   {:<34} {:>12.1} us {:>7.1}%",
        "unexplained",
        e2e_us - covered,
        100.0 * unexplained
    );
    all_spans.push(("layers", lrec.into_spans()));
    let span_path = format!("qrbench/out/spans-{}-{}.jsonl", spec.name, seed);
    match spans::write_jsonl(std::path::Path::new(&span_path), &all_spans) {
        Ok(()) => println!("# spans written to {span_path}"),
        Err(e) => println!("# warning: spans not written to {span_path}: {e}"),
    }
    Ok(m)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: qrbench --workload small-jobs|large-factor|factor-store|routed-jobs \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = spec(&args.workload) else {
        eprintln!("error: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let inputs = Inputs::build(&spec, args.seed);
    let mut verdict = Verdict::default();
    let result = if args.trace {
        run_layers(&spec, &inputs, args.seconds, args.seed, &mut verdict)
    } else {
        run_e2e(&spec, &inputs, args.seconds, &mut verdict)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(1);
        }
    };
    for msg in &verdict.messages {
        println!("# failure: {msg}");
    }
    let t = verdict.tally;
    let finite = metrics.values().all(|(v, _)| v.is_finite());
    let correct = t.wrong == 0 && t.failed() == 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            let v = if value.is_finite() { *value } else { 0.0 };
            println!("# {name} = {v} {unit}");
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.attempted,
        t.failed(),
        body.join(",")
    );
    ExitCode::SUCCESS
}
