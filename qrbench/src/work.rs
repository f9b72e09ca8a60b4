//! Seeded inputs with their oracles, the two ways of reaching a service
//! (TCP `Client` or the in-process `Service`), the per-workload operation
//! drivers, and the closed-loop phase runner.

use crate::spans::{Recorder, Span};
use crate::stats::Tally;
use pulsar_core::{append_rows, tile_qr_seq, QrOptions, TileQrFactors};
use pulsar_linalg::{flops, reference, Matrix};
use pulsar_server::{Client, ClientError, Service, SubmitError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Right-hand sides per solve and apply-q operand.
pub const RHS: usize = 2;
/// Rows appended by one update.
pub const UPDATE_ROWS: usize = 32;
/// Handles each factor-store connection owns.
pub const HANDLES_PER_CONN: usize = 4;
/// Operations on a kept handle between its keep and its release.
const CYCLE_SOLVES: usize = 16;
const CYCLE_APPLIES: usize = 4;
const CYCLE_UPDATES: usize = 4;

/// Why an operation produced no verified answer.
#[derive(Debug)]
pub enum Fail {
    /// Typed backpressure: the server refused the work.
    Refused(String),
    /// A typed error or a transport failure.
    Error(String),
    /// An answer the oracle rejected.
    Wrong(String),
}

impl Fail {
    /// Count this failure in `t`.
    pub fn tally(&self, t: &mut Tally) {
        match self {
            Fail::Refused(_) => t.refused += 1,
            Fail::Error(_) => t.errors += 1,
            Fail::Wrong(_) => t.wrong += 1,
        }
    }
}

impl std::fmt::Display for Fail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fail::Refused(m) => write!(f, "refused: {m}"),
            Fail::Error(m) => write!(f, "error: {m}"),
            Fail::Wrong(m) => write!(f, "wrong answer: {m}"),
        }
    }
}

fn client_fail(e: ClientError) -> Fail {
    match e {
        ClientError::Backpressure { .. } => Fail::Refused(e.to_string()),
        other => Fail::Error(other.to_string()),
    }
}

// --- inputs and oracles -------------------------------------------------

/// Fire-and-forget factorization jobs: a pool of matrices, each with the
/// `R` of a `tile_qr_seq` run of the same plan (engines are bit-identical).
pub struct FactorInputs {
    /// Plan of every job.
    pub opts: QrOptions,
    /// The matrices, cycled through by the clients.
    pub mats: Vec<Matrix>,
    /// `tile_qr_seq(mats[i]).r`.
    pub oracle_r: Vec<Matrix>,
    /// Useful QR flops of one job.
    pub flops: f64,
}

impl FactorInputs {
    /// `count` seeded `m x n` matrices and their oracles.
    pub fn new(rng: &mut StdRng, m: usize, n: usize, opts: QrOptions, count: usize) -> Self {
        let mats: Vec<Matrix> = (0..count).map(|_| Matrix::random(m, n, rng)).collect();
        let oracle_r = mats.iter().map(|a| tile_qr_seq(a, &opts).r).collect();
        FactorInputs {
            opts,
            mats,
            oracle_r,
            flops: flops::qr_flops(m, n),
        }
    }
}

/// One operation of a kept handle's cycle, with its expected answer.
pub enum Step {
    /// Least-squares solve; `x` is the reference `geqrf` solution of the
    /// stacked matrix the handle holds at this point.
    Solve { b: Matrix, x: Matrix },
    /// `Q^T b` (transpose apply); `c` from the sequential factors.
    ApplyQt { b: Matrix, c: Matrix },
    /// Append `e`; the handle then holds `rows` rows.
    Update { e: Matrix, rows: u64 },
}

impl Step {
    /// Useful flops of this step on a factorization with `n` columns.
    fn flops(&self, n: usize) -> f64 {
        match self {
            Step::Solve { b, .. } => {
                flops::unmqr_flops(b.nrows(), RHS, n) + flops::trsm_flops(RHS, n)
            }
            Step::ApplyQt { b, .. } => flops::unmqr_flops(b.nrows(), RHS, n),
            Step::Update { e, .. } => flops::tsqrt_flops(e.nrows(), n),
        }
    }
}

/// The seeded life of one kept handle: keep `bases[base]`, run `steps`,
/// release.
pub struct Script {
    /// Index into [`StoreInputs::bases`].
    pub base: usize,
    /// The 24 operations between keep and release, in seeded order.
    pub steps: Vec<Step>,
}

/// Inputs of the factor-store workload.
pub struct StoreInputs {
    /// Plan of every keep.
    pub opts: QrOptions,
    /// Matrices handles are kept from.
    pub bases: Vec<Matrix>,
    /// `tile_qr_seq(bases[i]).r`.
    pub base_r: Vec<Matrix>,
    /// Handle lives, cycled through by the clients.
    pub scripts: Vec<Script>,
}

fn stack(a: &Matrix, e: &Matrix) -> Matrix {
    let mut s = Matrix::zeros(a.nrows() + e.nrows(), a.ncols());
    s.set_submatrix(0, 0, a);
    s.set_submatrix(a.nrows(), 0, e);
    s
}

impl StoreInputs {
    /// `bases` seeded `m x n` matrices and `scripts` seeded handle lives.
    pub fn new(
        rng: &mut StdRng,
        m: usize,
        n: usize,
        opts: QrOptions,
        bases: usize,
        scripts: usize,
    ) -> Self {
        let mats: Vec<Matrix> = (0..bases).map(|_| Matrix::random(m, n, rng)).collect();
        let factors: Vec<TileQrFactors> = mats.iter().map(|a| tile_qr_seq(a, &opts)).collect();
        let base_r = factors.iter().map(|f| f.r.clone()).collect();
        let scripts = (0..scripts)
            .map(|s| {
                let base = s % bases;
                let mut kinds: Vec<u8> = [
                    vec![0u8; CYCLE_SOLVES],
                    vec![1u8; CYCLE_APPLIES],
                    vec![2u8; CYCLE_UPDATES],
                ]
                .concat();
                for i in (1..kinds.len()).rev() {
                    let j = rng.random_below(i as u64 + 1) as usize;
                    kinds.swap(i, j);
                }
                let mut a = mats[base].clone();
                let mut f = factors[base].clone();
                let mut reference = reference::geqrf(a.clone());
                let steps = kinds
                    .into_iter()
                    .map(|k| match k {
                        0 => {
                            let b = Matrix::random(a.nrows(), RHS, rng);
                            let x = reference.solve_ls(&b);
                            Step::Solve { b, x }
                        }
                        1 => {
                            let b = Matrix::random(a.nrows(), RHS, rng);
                            let c = f.apply_qt(&b);
                            Step::ApplyQt { b, c }
                        }
                        _ => {
                            let e = Matrix::random(UPDATE_ROWS, n, rng);
                            f = append_rows(&f, &e).expect("seeded update is well formed");
                            a = stack(&a, &e);
                            reference = reference::geqrf(a.clone());
                            Step::Update {
                                e,
                                rows: a.nrows() as u64,
                            }
                        }
                    })
                    .collect();
                Script { base, steps }
            })
            .collect();
        StoreInputs {
            opts,
            bases: mats,
            base_r,
            scripts,
        }
    }
}

// --- endpoints ------------------------------------------------------------

/// Span names of one endpoint's calls.
pub struct Names {
    pub submit: &'static str,
    pub result: &'static str,
    pub solve: &'static str,
    pub apply: &'static str,
    pub update: &'static str,
    pub release: &'static str,
}

const CLIENT_NAMES: Names = Names {
    submit: "client.submit",
    result: "client.result",
    solve: "client.solve",
    apply: "client.apply_q",
    update: "client.update",
    release: "client.release",
};

const SERVICE_NAMES: Names = Names {
    submit: "service.submit",
    result: "service.wait_result",
    solve: "service.solve",
    apply: "service.apply_q",
    update: "service.update",
    release: "service.release",
};

/// A way of reaching a QR service.
pub trait Endpoint: Send {
    fn names(&self) -> &'static Names;
    fn submit(&mut self, a: &Matrix, opts: &QrOptions, keep: bool) -> Result<u64, Fail>;
    fn result(&mut self, job: u64) -> Result<Matrix, Fail>;
    fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, Fail>;
    fn apply_qt(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, Fail>;
    fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, Fail>;
    fn release(&mut self, handle: u64) -> Result<bool, Fail>;
}

impl Endpoint for Client {
    fn names(&self) -> &'static Names {
        &CLIENT_NAMES
    }
    fn submit(&mut self, a: &Matrix, opts: &QrOptions, keep: bool) -> Result<u64, Fail> {
        if keep {
            self.submit_keep(a, opts, 0)
        } else {
            Client::submit(self, a, opts, 0)
        }
        .map_err(client_fail)
    }
    fn result(&mut self, job: u64) -> Result<Matrix, Fail> {
        Client::result(self, job).map_err(client_fail)
    }
    fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, Fail> {
        Client::solve(self, handle, b).map_err(client_fail)
    }
    fn apply_qt(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, Fail> {
        self.apply_q(handle, b, true).map_err(client_fail)
    }
    fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, Fail> {
        Client::update(self, handle, e).map_err(client_fail)
    }
    fn release(&mut self, handle: u64) -> Result<bool, Fail> {
        Client::release(self, handle).map_err(client_fail)
    }
}

/// The in-process service, called directly. `submit` copies the input
/// once, as the TCP front end's decode does.
pub struct InProcess(pub Arc<Service>);

impl Endpoint for InProcess {
    fn names(&self) -> &'static Names {
        &SERVICE_NAMES
    }
    fn submit(&mut self, a: &Matrix, opts: &QrOptions, keep: bool) -> Result<u64, Fail> {
        self.0
            .submit(a.clone(), opts.clone(), None, keep)
            .map_err(|e| match e {
                SubmitError::Backpressure { .. } => Fail::Refused(e.to_string()),
                other => Fail::Error(other.to_string()),
            })
    }
    fn result(&mut self, job: u64) -> Result<Matrix, Fail> {
        self.0
            .wait_result(job)
            .map_err(|e| Fail::Error(e.to_string()))
    }
    fn solve(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, Fail> {
        self.0
            .solve(handle, b)
            .map_err(|e| Fail::Error(e.to_string()))
    }
    fn apply_qt(&mut self, handle: u64, b: &Matrix) -> Result<Matrix, Fail> {
        self.0
            .apply_q(handle, b, true)
            .map_err(|e| Fail::Error(e.to_string()))
    }
    fn update(&mut self, handle: u64, e: &Matrix) -> Result<u64, Fail> {
        self.0
            .update(handle, e)
            .map_err(|e| Fail::Error(e.to_string()))
    }
    fn release(&mut self, handle: u64) -> Result<bool, Fail> {
        Ok(self.0.release(handle))
    }
}

// --- drivers ----------------------------------------------------------------

/// One client's stream of operations.
pub trait Driver: Send {
    /// Work that must be done before the first timed operation.
    fn preload(&mut self, ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<(), Fail>;
    /// One verified operation; returns its useful flops.
    fn op(
        &mut self,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
        req: u64,
        root: Option<usize>,
    ) -> Result<f64, Fail>;
}

fn same_bits(got: &Matrix, want: &Matrix) -> bool {
    got.nrows() == want.nrows() && got.ncols() == want.ncols() && got.data() == want.data()
}

fn within(got: &Matrix, want: &Matrix, rel: f64, scale: f64) -> bool {
    got.nrows() == want.nrows()
        && got.ncols() == want.ncols()
        && got.sub(want).norm_fro() <= rel * scale.max(1.0)
}

/// Submit `a`, long-poll the result, and check `R` bit for bit against
/// `oracle`.
fn factor_op(
    ep: &mut dyn Endpoint,
    rec: &mut Recorder,
    req: u64,
    root: Option<usize>,
    (a, oracle): (&Matrix, &Matrix),
    opts: &QrOptions,
    keep: bool,
) -> Result<u64, Fail> {
    let names = ep.names();
    let job = rec.span(names.submit, req, root, || ep.submit(a, opts, keep))?;
    let r = rec.span(names.result, req, root, || ep.result(job))?;
    if !same_bits(&r, oracle) {
        return Err(Fail::Wrong(format!(
            "job {job}: R differs from tile_qr_seq"
        )));
    }
    Ok(job)
}

/// Fire-and-forget factorizations, cycling through a seeded pool.
pub struct FactorDriver {
    inputs: Arc<FactorInputs>,
    next: usize,
}

impl FactorDriver {
    /// Client `index` starts at its own offset in the pool.
    pub fn new(inputs: Arc<FactorInputs>, index: usize) -> Self {
        let next = index * 7 % inputs.mats.len();
        FactorDriver { inputs, next }
    }
}

impl Driver for FactorDriver {
    fn preload(&mut self, _: &mut dyn Endpoint, _: &mut Recorder) -> Result<(), Fail> {
        Ok(())
    }
    fn op(
        &mut self,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
        req: u64,
        root: Option<usize>,
    ) -> Result<f64, Fail> {
        let i = self.next;
        self.next = (self.next + 1) % self.inputs.mats.len();
        let inp = &self.inputs;
        factor_op(
            ep,
            rec,
            req,
            root,
            (&inp.mats[i], &inp.oracle_r[i]),
            &inp.opts,
            false,
        )?;
        Ok(inp.flops)
    }
}

/// A kept handle moving through its script: position 0 is the keep,
/// 1..=24 the steps, 25 the release.
struct Slot {
    handle: u64,
    script: usize,
    pos: usize,
}

/// Keep / solve / apply-q / update / release on handles this client owns.
pub struct StoreDriver {
    inputs: Arc<StoreInputs>,
    slots: Vec<Slot>,
    turn: usize,
    next_script: usize,
    keep_flops: f64,
}

impl StoreDriver {
    /// Client `index` owns [`HANDLES_PER_CONN`] handle slots.
    pub fn new(inputs: Arc<StoreInputs>, index: usize) -> Self {
        let total = inputs.scripts.len();
        let first = index * HANDLES_PER_CONN;
        let slots = (0..HANDLES_PER_CONN)
            .map(|s| Slot {
                handle: 0,
                script: (first + s) % total,
                pos: 0,
            })
            .collect();
        let (m, n) = (inputs.bases[0].nrows(), inputs.bases[0].ncols());
        StoreDriver {
            inputs,
            slots,
            turn: 0,
            next_script: first + HANDLES_PER_CONN,
            keep_flops: flops::qr_flops(m, n),
        }
    }

    fn keep(
        &mut self,
        s: usize,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
        req: u64,
        root: Option<usize>,
    ) -> Result<(), Fail> {
        let inp = &self.inputs;
        let base = inp.scripts[self.slots[s].script].base;
        let handle = factor_op(
            ep,
            rec,
            req,
            root,
            (&inp.bases[base], &inp.base_r[base]),
            &inp.opts,
            true,
        )?;
        self.slots[s].handle = handle;
        self.slots[s].pos = 1;
        Ok(())
    }
}

impl Driver for StoreDriver {
    fn preload(&mut self, ep: &mut dyn Endpoint, rec: &mut Recorder) -> Result<(), Fail> {
        for s in 0..self.slots.len() {
            self.keep(s, ep, rec, 0, None)?;
        }
        Ok(())
    }

    fn op(
        &mut self,
        ep: &mut dyn Endpoint,
        rec: &mut Recorder,
        req: u64,
        root: Option<usize>,
    ) -> Result<f64, Fail> {
        let s = self.turn;
        self.turn = (self.turn + 1) % self.slots.len();
        let names = ep.names();
        let inputs = self.inputs.clone();
        let slot = &self.slots[s];
        let script = &inputs.scripts[slot.script];
        let n = inputs.bases[script.base].ncols();
        let (handle, pos) = (slot.handle, slot.pos);
        if pos == 0 {
            self.keep(s, ep, rec, req, root)?;
            return Ok(self.keep_flops);
        }
        if pos > script.steps.len() {
            let released = rec.span(names.release, req, root, || ep.release(handle))?;
            if !released {
                return Err(Fail::Wrong(format!("handle {handle} was not resident")));
            }
            let slot = &mut self.slots[s];
            slot.script = self.next_script % inputs.scripts.len();
            slot.pos = 0;
            self.next_script += 1;
            return Ok(0.0);
        }
        let step = &script.steps[pos - 1];
        match step {
            Step::Solve { b, x } => {
                let got = rec.span(names.solve, req, root, || ep.solve(handle, b))?;
                if !within(&got, x, 1e-9, x.norm_fro()) {
                    return Err(Fail::Wrong(format!(
                        "handle {handle}: solve off the oracle"
                    )));
                }
            }
            Step::ApplyQt { b, c } => {
                let got = rec.span(names.apply, req, root, || ep.apply_qt(handle, b))?;
                if !within(&got, c, 1e-12, b.norm_fro()) {
                    return Err(Fail::Wrong(format!(
                        "handle {handle}: Q^T b off the oracle"
                    )));
                }
            }
            Step::Update { e, rows } => {
                let got = rec.span(names.update, req, root, || ep.update(handle, e))?;
                if got != *rows {
                    return Err(Fail::Wrong(format!(
                        "handle {handle}: {got} rows after update, expected {rows}"
                    )));
                }
            }
        }
        self.slots[s].pos += 1;
        Ok(step.flops(n))
    }
}

// --- the closed loop --------------------------------------------------------

/// What one closed-loop phase measured.
pub struct PhaseOut {
    /// Latency of every verified operation, microseconds, ascending.
    pub lat_us: Vec<f64>,
    /// `(completion second since the phase began, latency µs, flops)` of
    /// every verified operation, in completion order.
    pub done: Vec<(f64, f64, f64)>,
    pub tally: Tally,
    /// Useful flops of the verified operations.
    pub flops: f64,
    /// When the phase began; `done` times count from here.
    pub start: Instant,
    /// Phase wall time, seconds.
    pub elapsed_s: f64,
    /// One span list per client thread (empty when untraced).
    pub spans: Vec<Vec<Span>>,
    /// First few failure messages.
    pub failures: Vec<String>,
}

impl PhaseOut {
    /// Verified operations per second.
    pub fn ops_per_s(&self) -> f64 {
        self.tally.completed() as f64 / self.elapsed_s.max(1e-9)
    }
}

/// A client connection paired with its operation stream.
pub type Lane = (Box<dyn Endpoint>, Box<dyn Driver>);

/// Run every lane in its own thread, each sending its next operation only
/// after the previous one completed, until `dur` has passed. With
/// `trace`, every lane records spans timed against that epoch.
pub fn run_phase(lanes: &mut [Lane], dur: Duration, trace: Option<Instant>) -> PhaseOut {
    let start = Instant::now();
    let deadline = start + dur;
    type LaneOut = (Vec<(f64, f64, f64)>, Tally, f64, Vec<Span>, Vec<String>);
    let per_lane: Vec<LaneOut> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .enumerate()
            .map(|(li, (ep, driver))| {
                scope.spawn(move || {
                    let mut rec = Recorder::new(trace.unwrap_or(start), trace.is_some());
                    let mut lat = Vec::with_capacity(1 << 14);
                    let mut tally = Tally::default();
                    let mut flops = 0.0;
                    let mut failures = Vec::new();
                    let mut req = (li as u64) << 40;
                    while Instant::now() < deadline {
                        req += 1;
                        tally.attempted += 1;
                        let t0 = Instant::now();
                        let root = rec.open("op", req, None);
                        let out = driver.op(ep.as_mut(), &mut rec, req, root);
                        rec.close(root);
                        let us = t0.elapsed().as_secs_f64() * 1e6;
                        match out {
                            Ok(f) => {
                                lat.push((start.elapsed().as_secs_f64(), us, f));
                                flops += f;
                            }
                            Err(e) => {
                                e.tally(&mut tally);
                                if failures.len() < 4 {
                                    failures.push(e.to_string());
                                }
                            }
                        }
                    }
                    (lat, tally, flops, rec.into_spans(), failures)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut out = PhaseOut {
        lat_us: Vec::new(),
        done: Vec::new(),
        tally: Tally::default(),
        flops: 0.0,
        start,
        elapsed_s,
        spans: Vec::new(),
        failures: Vec::new(),
    };
    for (lat, tally, flops, spans, failures) in per_lane {
        out.done.extend(lat);
        out.tally.add(&tally);
        out.flops += flops;
        out.spans.push(spans);
        out.failures.extend(failures);
    }
    out.done.sort_by(|a, b| a.0.total_cmp(&b.0));
    out.lat_us = out.done.iter().map(|d| d.1).collect();
    out.lat_us.sort_by(f64::total_cmp);
    out
}

/// A seeded generator for one purpose of one run.
pub fn rng_for(seed: u64, purpose: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ purpose)
}
