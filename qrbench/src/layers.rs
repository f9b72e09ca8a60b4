//! Warm calls into each layer's public functions, timed on the workload's
//! own job shape. Every figure is the median over repetitions; every call
//! is also recorded as a span (up to the recorder's cap per name).

use crate::spans::Recorder;
use crate::stats::median;
use pulsar_core::vsa3d::tile_qr_vsa_batch_pooled;
use pulsar_core::{append_rows, tile_qr_seq, tile_qr_tsqr, PanelOp, QrOptions, TileQrFactors};
use pulsar_linalg::kernels::ApplyTrans;
use pulsar_linalg::{
    geqrt_ws, tsmqr_ws, tsqrt_ws, ttmqr_ws, ttqrt_ws, unmqr_ws, Matrix, TileMatrix, Workspace,
};
use pulsar_runtime::{RunConfig, RunStats, VsaPool};
use pulsar_server::router::ledger::{Assignment, Entry, Ledger};
use pulsar_server::{decode_msg, encode_msg, FactorHandle, FactorStore, Msg};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Call `f` once untimed, then at least `min` times and until `budget`
/// is spent, each call in a span named `name`; the median microseconds
/// of one call.
pub fn time_us(
    rec: &mut Recorder,
    name: &'static str,
    budget: Duration,
    min: usize,
    mut f: impl FnMut(),
) -> f64 {
    f();
    let t_end = Instant::now() + budget;
    let mut samples = Vec::new();
    while samples.len() < min || Instant::now() < t_end {
        let span = rec.open(name, samples.len() as u64, None);
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        rec.close(span);
    }
    median(&samples)
}

fn kernel_span(op: &PanelOp, update: bool) -> &'static str {
    match (op, update) {
        (PanelOp::Geqrt { .. }, false) => "linalg.geqrt",
        (PanelOp::Tsqrt { .. }, false) => "linalg.tsqrt",
        (PanelOp::Ttqrt { .. }, false) => "linalg.ttqrt",
        (PanelOp::Geqrt { .. }, true) => "linalg.unmqr",
        (PanelOp::Tsqrt { .. }, true) => "linalg.tsmqr",
        (PanelOp::Ttqrt { .. }, true) => "linalg.ttmqr",
    }
}

/// Replay the plan's panel ops through the six `*_ws` tile kernels on
/// one thread, exactly as `tile_qr_seq` orders them, each call a child
/// span of `parent`. Returns the seconds spent inside kernel calls and
/// the number of calls.
fn kernel_replay(
    a: &Matrix,
    opts: &QrOptions,
    ws: &mut Workspace,
    rec: &mut Recorder,
    rep: u64,
    parent: Option<usize>,
) -> (f64, usize) {
    let mut tiles = TileMatrix::from_matrix(a, opts.nb);
    let plan = opts.plan(tiles.mt(), tiles.nt());
    let ib = opts.ib;
    let (mut secs, mut calls) = (0.0, 0usize);
    let t_for = |nc: usize| Matrix::zeros(ib.min(nc).max(1), nc.max(1));
    for j in 0..plan.panels() {
        for op in plan.panel_ops(j) {
            let nc = tiles.tile(0, j).ncols();
            let mut t = t_for(nc);
            let span = rec.open(kernel_span(&op, false), rep, parent);
            let t0 = Instant::now();
            match op {
                PanelOp::Geqrt { row } => geqrt_ws(tiles.tile_mut(row, j), &mut t, ib, ws),
                PanelOp::Tsqrt { head, row } => {
                    let (a1, a2) = tiles.two_tiles_mut((head, j), (row, j));
                    tsqrt_ws(a1, a2, &mut t, ib, ws);
                }
                PanelOp::Ttqrt { top, bot } => {
                    let (a1, a2) = tiles.two_tiles_mut((top, j), (bot, j));
                    ttqrt_ws(a1, a2, &mut t, ib, ws);
                }
            }
            secs += t0.elapsed().as_secs_f64();
            rec.close(span);
            calls += 1;
            let (_, second) = op.rows();
            let v = tiles.tile(second.unwrap_or(op.rows().0), j).clone();
            for l in j + 1..tiles.nt() {
                let span = rec.open(kernel_span(&op, true), rep, parent);
                let t0 = Instant::now();
                match op {
                    PanelOp::Geqrt { row } => {
                        unmqr_ws(&v, &t, ApplyTrans::Trans, tiles.tile_mut(row, l), ib, ws)
                    }
                    PanelOp::Tsqrt { head, row } => {
                        let (c1, c2) = tiles.two_tiles_mut((head, l), (row, l));
                        tsmqr_ws(c1, c2, &v, &t, ApplyTrans::Trans, ib, ws);
                    }
                    PanelOp::Ttqrt { top, bot } => {
                        let (c1, c2) = tiles.two_tiles_mut((top, l), (bot, l));
                        ttmqr_ws(c1, c2, &v, &t, ApplyTrans::Trans, ib, ws);
                    }
                }
                secs += t0.elapsed().as_secs_f64();
                rec.close(span);
                calls += 1;
            }
        }
    }
    black_box(&tiles);
    (secs, calls)
}

/// Kernel time (µs, median over repetitions) and calls of one job.
pub fn kernels(rec: &mut Recorder, a: &Matrix, opts: &QrOptions, budget: Duration) -> (f64, usize) {
    let mut ws = Workspace::new();
    let mut calls = 0;
    let mut samples = Vec::new();
    let mut off = Recorder::new(Instant::now(), false);
    kernel_replay(a, opts, &mut ws, &mut off, 0, None);
    let t_end = Instant::now() + budget;
    while samples.len() < 3 || Instant::now() < t_end {
        let rep = samples.len() as u64;
        let replay = rec.open("linalg.replay", rep, None);
        let (s, c) = kernel_replay(a, opts, &mut ws, rec, rep, replay);
        rec.close(replay);
        samples.push(s * 1e6);
        calls = c;
    }
    (median(&samples), calls)
}

/// Per-job µs of `tile_qr_vsa_batch_pooled` on a warm pool, for a batch
/// of one and of `batch`, plus the stats of a batch-of-one run.
pub fn vsa3d(
    rec: &mut Recorder,
    a: &Matrix,
    opts: &QrOptions,
    threads: usize,
    batch: usize,
    budget: Duration,
) -> (f64, f64, RunStats) {
    let pool = VsaPool::new(threads);
    let cfg = RunConfig::smp(threads);
    let one = [(a, opts)];
    let many: Vec<(&Matrix, &QrOptions)> = (0..batch).map(|_| (a, opts)).collect();
    let run = |jobs: &[(&Matrix, &QrOptions)]| {
        tile_qr_vsa_batch_pooled(jobs, &cfg, &pool).expect("VSA run on a healthy pool")
    };
    let stats = run(&one).stats;
    let single = time_us(rec, "core.vsa3d", budget / 2, 3, || {
        black_box(run(&one));
    });
    let batched = time_us(rec, "core.vsa3d_batch", budget / 2, 3, || {
        black_box(run(&many));
    }) / batch as f64;
    (single, batched, stats)
}

/// Sequential and TSQR executor µs of one job.
pub fn engines(rec: &mut Recorder, a: &Matrix, opts: &QrOptions, budget: Duration) -> (f64, f64) {
    let seq = time_us(rec, "core.tile_qr_seq", budget / 2, 3, || {
        black_box(tile_qr_seq(a, opts));
    });
    let tsqr = time_us(rec, "core.tile_qr_tsqr", budget / 2, 3, || {
        black_box(tile_qr_tsqr(a, opts, 2));
    });
    (seq, tsqr)
}

/// Codec cost of one operation's frames.
pub struct Codec {
    pub encode_us: f64,
    pub decode_us: f64,
    pub request_bytes: usize,
    pub reply_bytes: usize,
    pub frames: usize,
}

/// Encode and decode every request and reply frame of one operation.
pub fn codec(rec: &mut Recorder, requests: &[Msg], replies: &[Msg], budget: Duration) -> Codec {
    let each = budget / (requests.len() + replies.len()).max(1) as u32;
    let mut c = Codec {
        encode_us: 0.0,
        decode_us: 0.0,
        request_bytes: 0,
        reply_bytes: 0,
        frames: requests.len() + replies.len(),
    };
    for (msg, is_request) in requests
        .iter()
        .map(|m| (m, true))
        .chain(replies.iter().map(|m| (m, false)))
    {
        let frame = encode_msg(msg, 1);
        if is_request {
            c.request_bytes += frame.len();
        } else {
            c.reply_bytes += frame.len();
        }
        c.encode_us += time_us(rec, "server.proto.encode_msg", each / 2, 3, || {
            black_box(encode_msg(msg, 1));
        });
        c.decode_us += time_us(rec, "server.proto.decode_msg", each / 2, 3, || {
            black_box(decode_msg(&frame).expect("own frame decodes"));
        });
    }
    c
}

/// `FactorStore` insert / get / release µs on factors of this shape.
pub fn store(rec: &mut Recorder, factors: &TileQrFactors, budget: Duration) -> (f64, f64, f64) {
    let f = Arc::new(factors.clone());
    let mut st = FactorStore::new(256 << 20);
    let (mut ins, mut get, mut rel) = (Vec::new(), Vec::new(), Vec::new());
    let t_end = Instant::now() + budget;
    let mut id = 1u64;
    while ins.len() < 3 || Instant::now() < t_end {
        let h = FactorHandle::from_raw(id);
        id += 1;
        let f2 = f.clone();
        let t0 = Instant::now();
        rec.span("server.store.insert", id, None, || {
            st.insert(h, f2).expect("one entry fits the budget")
        });
        let t1 = Instant::now();
        rec.span("server.store.get", id, None, || {
            black_box(st.get(h).expect("just inserted"))
        });
        let t2 = Instant::now();
        assert!(rec.span("server.store.release", id, None, || st.release(h)));
        let t3 = Instant::now();
        ins.push((t1 - t0).as_secs_f64() * 1e6);
        get.push((t2 - t1).as_secs_f64() * 1e6);
        rel.push((t3 - t2).as_secs_f64() * 1e6);
    }
    (median(&ins), median(&get), median(&rel))
}

/// `try_solve_ls`, `apply_qt` and `append_rows` µs on factors of this
/// shape, with `rhs` right-hand sides and `rows` appended rows.
pub fn factor_ops(
    rec: &mut Recorder,
    factors: &TileQrFactors,
    b: &Matrix,
    e: &Matrix,
    budget: Duration,
) -> (f64, f64, f64) {
    let solve = time_us(rec, "core.factors.try_solve_ls", budget / 3, 3, || {
        black_box(factors.try_solve_ls(b).expect("full-rank factors"));
    });
    let apply = time_us(rec, "core.factors.apply_qt", budget / 3, 3, || {
        black_box(factors.apply_qt(b));
    });
    let append = time_us(rec, "core.update.append_rows", budget / 3, 3, || {
        black_box(append_rows(factors, e).expect("tiled rows"));
    });
    (solve, apply, append)
}

/// Router ledger admit + resolve µs of one job carrying `a`.
pub fn ledger(
    rec: &mut Recorder,
    a: &Matrix,
    r: &Matrix,
    opts: &QrOptions,
    budget: Duration,
) -> f64 {
    let mut samples = Vec::new();
    let mut ledger = Ledger::new(256);
    let mut id = 1u64;
    let t_end = Instant::now() + budget;
    while samples.len() < 3 || Instant::now() < t_end {
        let entry = Entry {
            a: Some(a.clone()),
            opts: opts.clone(),
            deadline_ms: 0,
            keep: false,
            idem: id,
            admitted: Instant::now(),
            assignments: vec![Assignment {
                node: 1,
                remote_job: id,
                abandoned: false,
            }],
            outcome: None,
            redispatches: 0,
        };
        let outcome = Ok(r.clone());
        let span = rec.open("server.router.ledger", id, None);
        let t0 = Instant::now();
        assert!(ledger.admit(id, entry), "ledger has room");
        assert!(ledger.resolve(id, outcome));
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
        rec.close(span);
        id += 1;
    }
    median(&samples)
}
