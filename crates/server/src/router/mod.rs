//! `pulsar-route`: one logical QR service over a fleet of worker nodes.
//!
//! The router speaks the same wire protocol as a single worker, so any
//! existing client works unchanged. Behind the front end it keeps a
//! [`Membership`] table with probed health (healthy → suspect → dead,
//! with hysteresis), places jobs by a pluggable [`PlacementPolicy`]
//! (least-loaded, small jobs replicated: first answer wins, loser
//! cancelled), and journals every accepted job in a bounded in-flight
//! [`Ledger`] so a node death mid-job triggers re-dispatch to survivors
//! under the job's original idempotency key — exactly-once outcomes,
//! bit-identical results.
//!
//! Factor handles minted here are *routed handles*: the owning node's id
//! rides in the top [`NODE_SHIFT`] bits, so `solve`/`apply-q`/`update`/
//! `release` follow the factor to its node statelessly — no table to
//! evict — and an unreplicated dead node surfaces as a typed
//! [`ErrCode::NodeLost`].

pub mod ledger;
pub mod membership;
pub mod placement;

use crate::client::{Client, ClientError};
use crate::proto::{self, ErrCode, JobState, Msg};
use crate::server::{shutdown_reads, ConnSlot, Conns};
use crate::service::ensure_finite;
use ledger::{Assignment, Entry, Ledger, Outcome};
use membership::{Caps, Health, Membership};
use parking_lot::{Condvar, Mutex};
use placement::{LeastLoaded, Placement, PlacementPolicy};
use pulsar_core::QrOptions;
use pulsar_linalg::Matrix;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bits of a routed handle reserved for the remote job id; the node id
/// lives above them. Worker job ids never reach 2^48, so the node bits
/// of a purely local handle are always zero.
pub const NODE_SHIFT: u32 = 48;
const REMOTE_MASK: u64 = (1 << NODE_SHIFT) - 1;

/// Pack a node id and that node's local job id into one routed handle.
pub fn routed_handle(node: u32, remote: u64) -> u64 {
    debug_assert!(remote <= REMOTE_MASK);
    (u64::from(node) << NODE_SHIFT) | (remote & REMOTE_MASK)
}

/// Split a handle into `(node, remote)`. Node 0 means the handle was
/// never routed (a plain single-node handle).
pub fn split_handle(handle: u64) -> (u32, u64) {
    ((handle >> NODE_SHIFT) as u32, handle & REMOTE_MASK)
}

/// Tuning knobs of a [`Router`].
#[derive(Clone, Debug)]
pub struct RouteConfig {
    /// Prober beat interval.
    pub heartbeat_ms: u64,
    /// Per-probe dial/read deadline.
    pub probe_timeout_ms: u64,
    /// Fire-and-forget jobs under this many matrix bytes are
    /// dual-dispatched (0 disables replication).
    pub replicate_under: usize,
    /// In-flight ledger bound; admission past it is typed backpressure.
    pub ledger_cap: usize,
    /// Re-dispatches per job before it fails with `NodeLost`.
    pub redispatch_max: u32,
    /// Dial deadline for synchronous worker calls (handle verbs, joins,
    /// cascaded drains).
    pub dial_timeout: Duration,
    /// Client idempotency keys remembered (FIFO), as on a single node.
    pub idem_cap: usize,
    /// Linger after the drained reply before severing connections,
    /// mirroring the worker's `--drain-grace-ms`.
    pub drain_grace: Duration,
}

impl Default for RouteConfig {
    fn default() -> Self {
        RouteConfig {
            heartbeat_ms: 50,
            probe_timeout_ms: 250,
            replicate_under: 32 << 10,
            ledger_cap: 256,
            redispatch_max: 3,
            dial_timeout: Duration::from_secs(1),
            idem_cap: 1024,
            drain_grace: Duration::from_millis(250),
        }
    }
}

/// Why the router refused or failed a submit.
pub enum RouteError {
    /// The ledger is full or the router is draining.
    Backpressure {
        /// Suggested back-off.
        retry_after_ms: u32,
        /// In-flight depth at rejection.
        queued: u32,
        /// True when the router is shutting down.
        draining: bool,
    },
    /// Typed failure (invalid job, no live nodes, worker refusal).
    Typed(ErrCode, String),
}

#[derive(Default)]
struct Counters {
    done: u64,
    failed: u64,
    rejected: u64,
    cancelled: u64,
    expired: u64,
    node_lost: u64,
    redispatched: u64,
    replicated: u64,
    idem_hits: u64,
    joins: u64,
    leaves: u64,
}

struct RState {
    members: Membership,
    ledger: Ledger,
    draining: bool,
    /// Router-local ids for fire-and-forget entries. These stay far below
    /// 2^48, so their node bits are zero and they can never collide with
    /// a routed keep handle.
    next_id: u64,
    counters: Counters,
    /// Router-admission-to-outcome, one sample per resolved entry.
    latencies_ms: Vec<f64>,
    /// Client idempotency key → ledger id, bounded FIFO.
    idem: HashMap<u64, u64>,
    idem_order: VecDeque<u64>,
}

/// The router core: membership + placement + ledger behind one lock,
/// shared by the front end's connection threads, the waiters, and the
/// prober. Cheap to share behind an [`Arc`].
pub struct Router {
    cfg: RouteConfig,
    policy: Box<dyn PlacementPolicy>,
    started: Instant,
    state: Mutex<RState>,
    /// Signals waiters-of-outcomes (result long-polls, drain).
    done: Condvar,
}

/// What a locked re-dispatch decision concluded.
enum Redispatch {
    /// Nothing to do (resolved already, or a live replica still racing).
    Covered,
    /// Spawn a waiter for this node.
    Spawn(u32),
    /// The entry was resolved (NodeLost or budget exhausted).
    Resolved,
}

impl Router {
    /// A router with the default least-loaded/replicating policy.
    pub fn new(cfg: RouteConfig) -> Arc<Router> {
        let policy = Box::new(LeastLoaded {
            replicate_under: cfg.replicate_under,
        });
        Self::with_policy(cfg, policy)
    }

    /// A router with a caller-supplied placement policy.
    pub fn with_policy(cfg: RouteConfig, policy: Box<dyn PlacementPolicy>) -> Arc<Router> {
        Arc::new(Router {
            state: Mutex::new(RState {
                members: Membership::new(),
                ledger: Ledger::new(cfg.ledger_cap),
                draining: false,
                next_id: 1,
                counters: Counters::default(),
                latencies_ms: Vec::new(),
                idem: HashMap::new(),
                idem_order: VecDeque::new(),
            }),
            cfg,
            policy,
            started: Instant::now(),
            done: Condvar::new(),
        })
    }

    /// The configuration this router was started with.
    pub fn config(&self) -> &RouteConfig {
        &self.cfg
    }

    /// Register a worker node after probing it once (an unreachable
    /// worker is refused — a join must mean the router can dispatch).
    pub fn join(&self, addr: &str, caps: Caps) -> Result<u32, (ErrCode, String)> {
        let probe = Client::connect_timeout(addr, self.cfg.dial_timeout)
            .and_then(|mut c| c.ping())
            .map_err(|e| {
                (
                    ErrCode::Invalid,
                    format!("worker at {addr} failed its join probe: {e}"),
                )
            })?;
        let mut st = self.state.lock();
        let id = st.members.join(addr, caps);
        st.members.record_beat(id, probe.0, probe.1);
        st.counters.joins += 1;
        Ok(id)
    }

    /// Stop placing new jobs on `node_id`. In-flight dispatches finish
    /// and resident factors keep routing until the node really goes away.
    pub fn leave(&self, node_id: u32) -> bool {
        let mut st = self.state.lock();
        let left = st.members.leave(node_id);
        if left {
            st.counters.leaves += 1;
        }
        left
    }

    /// Number of member nodes currently placeable.
    pub fn placeable_nodes(&self) -> usize {
        self.state.lock().members.placeable().len()
    }

    /// In-flight entries journaled right now.
    pub fn inflight(&self) -> usize {
        self.state.lock().ledger.inflight()
    }

    /// Admit a job, shard it, and return the id result polls use. Keep
    /// jobs return a routed handle (node bits set) after a synchronous
    /// dispatch; fire-and-forget jobs return a router-local id and are
    /// dispatched (possibly twice) in the background.
    pub fn submit(
        self: &Arc<Self>,
        a: Matrix,
        opts: QrOptions,
        deadline_ms: u32,
        keep: bool,
        client_idem: u64,
    ) -> Result<u64, RouteError> {
        if let Err(m) = validate_job(&a, &opts) {
            return Err(RouteError::Typed(ErrCode::Invalid, m));
        }
        let job_bytes = a.nrows() * a.ncols() * 8;
        let idem = crate::client::fresh_idem();
        let placement;
        {
            let mut st = self.state.lock();
            if client_idem != 0 {
                if let Some(&known) = st.idem.get(&client_idem) {
                    st.counters.idem_hits += 1;
                    return Ok(known);
                }
            }
            if st.draining {
                st.counters.rejected += 1;
                return Err(RouteError::Backpressure {
                    retry_after_ms: 0,
                    queued: st.ledger.inflight() as u32,
                    draining: true,
                });
            }
            if st.ledger.inflight() >= st.ledger.cap() {
                st.counters.rejected += 1;
                return Err(RouteError::Backpressure {
                    retry_after_ms: 50,
                    queued: st.ledger.inflight() as u32,
                    draining: false,
                });
            }
            placement = self.policy.place(&st.members, job_bytes, keep);
            if matches!(placement, Placement::None) {
                st.counters.rejected += 1;
                return Err(RouteError::Typed(
                    ErrCode::NodeLost,
                    "no live worker node to place on".into(),
                ));
            }
            if !keep {
                let nodes: Vec<u32> = match placement {
                    Placement::One(n) => vec![n],
                    Placement::Two(x, y) => vec![x, y],
                    Placement::None => unreachable!(),
                };
                if nodes.len() == 2 {
                    st.counters.replicated += 1;
                }
                let id = st.next_id;
                st.next_id += 1;
                let entry = Entry {
                    a: Some(a),
                    opts,
                    deadline_ms,
                    keep: false,
                    idem,
                    admitted: Instant::now(),
                    assignments: nodes
                        .iter()
                        .map(|&n| Assignment {
                            node: n,
                            remote_job: 0,
                            abandoned: false,
                        })
                        .collect(),
                    outcome: None,
                    redispatches: 0,
                };
                assert!(st.ledger.admit(id, entry), "inflight bound checked above");
                for &n in &nodes {
                    if let Some(node) = st.members.get_mut(n) {
                        node.inflight += 1;
                        node.placed += 1;
                    }
                }
                remember_idem(&mut st, self.cfg.idem_cap, client_idem, id);
                drop(st);
                for n in nodes {
                    self.spawn_waiter(id, n, None);
                }
                return Ok(id);
            }
        }
        // Keep: dispatch synchronously to one node so the reply already
        // carries the routed handle the client will solve against.
        let node = match placement {
            Placement::One(n) => n,
            _ => unreachable!("keep jobs place on exactly one node"),
        };
        let addr = {
            let mut st = self.state.lock();
            let Some(m) = st.members.get_mut(node) else {
                return Err(RouteError::Typed(
                    ErrCode::NodeLost,
                    format!("node {node} vanished before dispatch"),
                ));
            };
            m.inflight += 1;
            m.placed += 1;
            m.addr.clone()
        };
        let admitted = Instant::now();
        let remote = Client::connect_timeout(&addr, self.cfg.dial_timeout)
            .and_then(|mut c| c.submit_with_idem(&a, &opts, deadline_ms, true, idem));
        let remote = match remote {
            Ok(r) => r,
            Err(e) => {
                if let Some(m) = self.state.lock().members.get_mut(node) {
                    m.inflight = m.inflight.saturating_sub(1);
                }
                return Err(match e {
                    ClientError::Backpressure {
                        retry_after_ms,
                        queued,
                        draining,
                    } => RouteError::Backpressure {
                        retry_after_ms,
                        queued,
                        draining,
                    },
                    ClientError::Job { code, msg, .. } => RouteError::Typed(code, msg),
                    other => {
                        self.note_node_failure(node);
                        RouteError::Typed(
                            ErrCode::NodeLost,
                            format!("node {node} failed mid-dispatch: {other}"),
                        )
                    }
                });
            }
        };
        let handle = routed_handle(node, remote);
        {
            let mut st = self.state.lock();
            let entry = Entry {
                a: None, // keep jobs are never re-dispatched: the handle is the node
                opts,
                deadline_ms,
                keep: true,
                idem,
                admitted,
                assignments: vec![Assignment {
                    node,
                    remote_job: remote,
                    abandoned: false,
                }],
                outcome: None,
                redispatches: 0,
            };
            // The bound was checked at entry; a concurrent overshoot past
            // cap is tolerated rather than orphaning the remote job.
            if !st.ledger.admit(handle, entry) {
                st.counters.rejected += 1;
            }
            remember_idem(&mut st, self.cfg.idem_cap, client_idem, handle);
        }
        self.spawn_waiter(handle, node, Some(remote));
        Ok(handle)
    }

    /// Block until `id` resolves; the outcome is exactly the one the
    /// first successful dispatch posted.
    pub fn wait_result(&self, id: u64) -> Outcome {
        let mut st = self.state.lock();
        loop {
            match st.ledger.get(id) {
                None => return Err((ErrCode::UnknownJob, format!("unknown job {id}"))),
                Some(e) => {
                    if let Some(o) = &e.outcome {
                        return o.clone();
                    }
                }
            }
            self.done.wait(&mut st);
        }
    }

    /// A journaled job's state as the router sees it.
    pub fn status(&self, id: u64) -> Option<(JobState, u32)> {
        let st = self.state.lock();
        let e = st.ledger.get(id)?;
        let state = match &e.outcome {
            None => JobState::Running,
            Some(Ok(_)) => JobState::Done,
            Some(Err((ErrCode::Cancelled, _))) => JobState::Cancelled,
            Some(Err((ErrCode::DeadlineExpired, _))) => JobState::Expired,
            Some(Err(_)) => JobState::Failed,
        };
        Some((state, 0))
    }

    /// Best-effort cancel: forwarded to every live dispatch; the entry
    /// resolves cancelled if any node still had it queued.
    pub fn cancel(self: &Arc<Self>, id: u64) -> bool {
        let targets: Vec<(String, u64)> = {
            let st = self.state.lock();
            match st.ledger.get(id) {
                Some(e) if e.outcome.is_none() => e
                    .assignments
                    .iter()
                    .filter(|a| !a.abandoned && a.remote_job != 0)
                    .filter_map(|a| {
                        st.members
                            .get(a.node)
                            .map(|n| (n.addr.clone(), a.remote_job))
                    })
                    .collect(),
                _ => return false,
            }
        };
        let mut any = false;
        for (addr, rj) in targets {
            if let Ok(mut c) = Client::connect_timeout(&addr, self.cfg.dial_timeout) {
                any |= c.cancel(rj).unwrap_or(false);
            }
        }
        if any {
            self.post_outcome(id, None, Err((ErrCode::Cancelled, "cancelled".into())));
        }
        any
    }

    /// Proxy a handle verb to the owning node. `handle` is routed; the
    /// worker sees only its local part.
    pub fn with_owner<T>(
        &self,
        handle: u64,
        call: impl FnOnce(&mut Client, u64) -> Result<T, ClientError>,
    ) -> Result<T, (ErrCode, String)> {
        let (node, remote) = split_handle(handle);
        if node == 0 {
            return Err((
                ErrCode::Invalid,
                format!("handle {handle} carries no node id (not a routed handle)"),
            ));
        }
        let addr = {
            let st = self.state.lock();
            match st.members.get(node) {
                None => {
                    return Err((
                        ErrCode::NodeLost,
                        format!("handle {node}:{remote}: node {node} is not a member"),
                    ))
                }
                Some(n) if n.health == Health::Dead => {
                    return Err((
                        ErrCode::NodeLost,
                        format!(
                            "handle {node}:{remote}: node {node} is dead (factor unreplicated)"
                        ),
                    ))
                }
                Some(n) => n.addr.clone(),
            }
        };
        let mut client = Client::connect_timeout(&addr, self.cfg.dial_timeout).map_err(|e| {
            (
                ErrCode::NodeLost,
                format!("handle {node}:{remote}: node {node} unreachable: {e}"),
            )
        })?;
        match call(&mut client, remote) {
            Ok(t) => Ok(t),
            Err(ClientError::Job { code, msg, .. }) => Err((code, msg)),
            Err(e) => Err((
                ErrCode::NodeLost,
                format!("handle {node}:{remote}: node {node} failed mid-call: {e}"),
            )),
        }
    }

    /// One probe round: ping every non-dead member, applying beats and
    /// misses. Public so tests can drive health deterministically without
    /// a live prober thread.
    pub fn probe_once(self: &Arc<Self>) {
        let targets = self.state.lock().members.probe_targets();
        let timeout = Duration::from_millis(self.cfg.probe_timeout_ms.max(10));
        for (id, addr) in targets {
            match Client::connect_timeout(&addr, timeout).and_then(|mut c| c.ping()) {
                Ok((queued, running)) => {
                    self.state.lock().members.record_beat(id, queued, running);
                }
                Err(_) => self.note_probe_miss(id),
            }
        }
    }

    /// Drain the fleet: stop admission, wait for the ledger to empty,
    /// then cascade a drain to every live member and return the combined
    /// stats (router rollup + per-node sections).
    pub fn drain(&self) -> String {
        {
            let mut st = self.state.lock();
            st.draining = true;
            while st.ledger.inflight() > 0 {
                self.done.wait(&mut st);
            }
        }
        let nodes: Vec<(u32, String, Health, u64)> = {
            let st = self.state.lock();
            st.members
                .all()
                .iter()
                .map(|n| (n.id, n.addr.clone(), n.health, n.placed))
                .collect()
        };
        let mut node_sections = Vec::new();
        for (id, addr, health, placed) in nodes {
            let stats = if health == Health::Dead {
                "null".to_string()
            } else {
                match Client::connect_timeout(&addr, self.cfg.dial_timeout)
                    .and_then(|mut c| c.drain())
                {
                    Ok(s) => s,
                    Err(_) => "null".to_string(),
                }
            };
            node_sections.push(format!(
                "{{\"node\":{id},\"addr\":\"{addr}\",\"health\":\"{}\",\
                 \"placed\":{placed},\"stats\":{stats}}}",
                health.name()
            ));
        }
        self.stats_json(&node_sections.join(","))
    }

    /// Stats rollup without dialing any worker (per-node sections carry
    /// membership health but `"stats":null`). The route daemon prints
    /// this after its front end returns; the drained client got the full
    /// cascade from [`Self::drain`].
    pub fn stats_json_standalone(&self) -> String {
        let sections: Vec<String> = {
            let st = self.state.lock();
            st.members
                .all()
                .iter()
                .map(|n| {
                    format!(
                        "{{\"node\":{},\"addr\":\"{}\",\"health\":\"{}\",\
                         \"placed\":{},\"stats\":null}}",
                        n.id,
                        n.addr,
                        n.health.name(),
                        n.placed
                    )
                })
                .collect()
        };
        self.stats_json(&sections.join(","))
    }

    /// One-line JSON rollup. Latencies measure router-admission-to-
    /// outcome — a job re-dispatched after a node death carries its full
    /// wait, not just its final node's service time.
    pub fn stats_json(&self, nodes_json: &str) -> String {
        let st = self.state.lock();
        let uptime = self.started.elapsed().as_secs_f64().max(1e-9);
        let mut lat = st.latencies_ms.clone();
        lat.sort_by(|a, b| a.total_cmp(b));
        let pct = |p: f64| -> f64 {
            if lat.is_empty() {
                0.0
            } else {
                lat[((lat.len() - 1) as f64 * p).round() as usize]
            }
        };
        let c = &st.counters;
        format!(
            "{{\"router\":true,\"jobs_done\":{},\"jobs_failed\":{},\
             \"jobs_cancelled\":{},\"jobs_expired\":{},\"jobs_rejected\":{},\
             \"node_lost\":{},\"redispatched\":{},\"replicated\":{},\
             \"idem_hits\":{},\"joins\":{},\"leaves\":{},\
             \"p50_ms\":{:.3},\"p90_ms\":{:.3},\"p99_ms\":{:.3},\
             \"jobs_per_s\":{:.3},\"inflight\":{},\"uptime_s\":{:.3},\
             \"nodes\":[{}]}}",
            c.done,
            c.failed,
            c.cancelled,
            c.expired,
            c.rejected,
            c.node_lost,
            c.redispatched,
            c.replicated,
            c.idem_hits,
            c.joins,
            c.leaves,
            pct(0.50),
            pct(0.90),
            pct(0.99),
            c.done as f64 / uptime,
            st.ledger.inflight(),
            uptime,
            nodes_json,
        )
    }

    // --- dispatch machinery ------------------------------------------

    fn spawn_waiter(self: &Arc<Self>, id: u64, node: u32, remote: Option<u64>) {
        let router = self.clone();
        std::thread::Builder::new()
            .name("qr-route-waiter".into())
            .spawn(move || router.waiter(id, node, remote))
            .expect("failed to spawn dispatch waiter");
    }

    /// One dispatch: submit (unless already submitted), long-poll the
    /// result, post the outcome. Transport failure feeds the failure
    /// path: node marked missing, entry re-homed or resolved `NodeLost`.
    fn waiter(self: Arc<Self>, id: u64, node: u32, known_remote: Option<u64>) {
        let (addr, payload, deadline_ms) = {
            let mut st = self.state.lock();
            let Some(entry) = st.ledger.get(id) else {
                return;
            };
            if entry.outcome.is_some() {
                return;
            }
            // Deadline rebasing: the clock started at *router* admission,
            // so a re-dispatched job forwards only its remaining budget —
            // and one that already overstayed expires here, undipatched.
            let mut remaining = entry.deadline_ms;
            if entry.deadline_ms > 0 {
                let elapsed = entry.admitted.elapsed().as_millis() as u64;
                if elapsed >= u64::from(entry.deadline_ms) {
                    resolve_locked(
                        &mut st,
                        id,
                        Err((
                            ErrCode::DeadlineExpired,
                            "deadline expired at the router".into(),
                        )),
                    );
                    self.done.notify_all();
                    return;
                }
                remaining = (u64::from(entry.deadline_ms) - elapsed).max(1) as u32;
            }
            let payload = if known_remote.is_none() {
                let Some(a) = entry.a.clone() else { return };
                Some((a, entry.opts.clone(), entry.keep, entry.idem))
            } else {
                None
            };
            let Some(m) = st.members.get(node) else {
                drop(st);
                self.on_dispatch_failed(id, node);
                return;
            };
            (m.addr.clone(), payload, remaining)
        };
        let result = dispatch_remote(&addr, payload, deadline_ms, known_remote, |rj| {
            self.record_remote_job(id, node, rj)
        });
        match result {
            Ok(outcome) => self.post_outcome(id, Some(node), outcome),
            Err(_transport) => self.on_dispatch_failed(id, node),
        }
    }

    fn record_remote_job(&self, id: u64, node: u32, remote: u64) {
        let mut st = self.state.lock();
        if let Some(e) = st.ledger.get_mut(id) {
            for a in &mut e.assignments {
                if a.node == node && !a.abandoned && a.remote_job == 0 {
                    a.remote_job = remote;
                    break;
                }
            }
        }
    }

    /// Post a terminal outcome (first one wins), cancel losing replicas,
    /// and wake result polls.
    fn post_outcome(self: &Arc<Self>, id: u64, winner: Option<u32>, outcome: Outcome) {
        let mut cancels: Vec<(String, u64)> = Vec::new();
        {
            let mut st = self.state.lock();
            let Some(entry) = st.ledger.get(id) else {
                return;
            };
            if entry.outcome.is_some() {
                return; // a replica answered first; drop the duplicate
            }
            let live: Vec<(u32, u64)> = entry
                .assignments
                .iter()
                .filter(|a| !a.abandoned)
                .map(|a| (a.node, a.remote_job))
                .collect();
            if let Some(e) = st.ledger.get_mut(id) {
                for a in &mut e.assignments {
                    a.abandoned = true;
                }
            }
            for (n, rj) in &live {
                if let Some(m) = st.members.get_mut(*n) {
                    m.inflight = m.inflight.saturating_sub(1);
                }
                if winner != Some(*n) && *rj != 0 {
                    if let Some(m) = st.members.get(*n) {
                        cancels.push((m.addr.clone(), *rj));
                    }
                }
            }
            resolve_locked(&mut st, id, outcome);
            self.done.notify_all();
        }
        // The race is settled; losers are cancelled off-lock, best effort
        // (a loser that already ran just produced the same bits).
        let dial = self.cfg.dial_timeout;
        for (addr, rj) in cancels {
            std::thread::spawn(move || {
                if let Ok(mut c) = Client::connect_timeout(&addr, dial) {
                    let _ = c.cancel(rj);
                }
            });
        }
    }

    /// A dispatch-side transport failure: write off the assignment, count
    /// a miss against the node, and re-home the entry (plus everything
    /// else stranded, if this miss was the dead transition).
    fn on_dispatch_failed(self: &Arc<Self>, id: u64, node: u32) {
        let spawns = {
            let mut st = self.state.lock();
            abandon_on_node(&mut st, id, node);
            let (_, became_dead) = st.members.record_miss(node);
            let mut ids = vec![id];
            if became_dead {
                for sid in st.ledger.stranded_on(node) {
                    abandon_on_node(&mut st, sid, node);
                    ids.push(sid);
                }
            }
            self.redispatch_ids(&mut st, &ids)
        };
        for (eid, n) in spawns {
            self.spawn_waiter(eid, n, None);
        }
    }

    /// A probe miss; on the dead transition every stranded entry is
    /// re-homed exactly once.
    fn note_probe_miss(self: &Arc<Self>, node: u32) {
        let spawns = {
            let mut st = self.state.lock();
            let (_, became_dead) = st.members.record_miss(node);
            if !became_dead {
                return;
            }
            let ids = st.ledger.stranded_on(node);
            for &sid in &ids {
                abandon_on_node(&mut st, sid, node);
            }
            self.redispatch_ids(&mut st, &ids)
        };
        for (eid, n) in spawns {
            self.spawn_waiter(eid, n, None);
        }
    }

    /// Declare a node failed outright (used by [`Self::submit`] when a
    /// synchronous dispatch severs).
    fn note_node_failure(&self, node: u32) {
        let mut st = self.state.lock();
        let _ = st.members.record_miss(node);
    }

    fn redispatch_ids(self: &Arc<Self>, st: &mut RState, ids: &[u64]) -> Vec<(u64, u32)> {
        let mut spawns = Vec::new();
        let mut resolved_any = false;
        for &eid in ids {
            match redispatch_entry(st, &self.cfg, &*self.policy, eid) {
                Redispatch::Spawn(n) => spawns.push((eid, n)),
                Redispatch::Resolved => resolved_any = true,
                Redispatch::Covered => {}
            }
        }
        if resolved_any {
            self.done.notify_all();
        }
        spawns
    }
}

/// Mark `id`'s live assignment on `node` abandoned and return the
/// node's in-flight credit.
fn abandon_on_node(st: &mut RState, id: u64, node: u32) {
    let mut hit = false;
    if let Some(e) = st.ledger.get_mut(id) {
        for a in &mut e.assignments {
            if a.node == node && !a.abandoned {
                a.abandoned = true;
                hit = true;
            }
        }
    }
    if hit {
        if let Some(m) = st.members.get_mut(node) {
            m.inflight = m.inflight.saturating_sub(1);
        }
    }
}

/// Decide what happens to an entry that just lost a dispatch.
fn redispatch_entry(
    st: &mut RState,
    cfg: &RouteConfig,
    policy: &dyn PlacementPolicy,
    id: u64,
) -> Redispatch {
    let Some(entry) = st.ledger.get(id) else {
        return Redispatch::Covered;
    };
    if entry.outcome.is_some() || !entry.live_nodes().is_empty() {
        return Redispatch::Covered; // settled, or a replica still racing
    }
    // A keep job is pinned: its routed handle names the dead node, so a
    // re-home would mint a different handle than the one the client holds.
    if entry.keep {
        resolve_locked(
            st,
            id,
            Err((
                ErrCode::NodeLost,
                "the node owning this keep job died before completing it".into(),
            )),
        );
        return Redispatch::Resolved;
    }
    if entry.redispatches >= cfg.redispatch_max {
        resolve_locked(
            st,
            id,
            Err((
                ErrCode::NodeLost,
                format!("re-dispatch budget ({}) exhausted", cfg.redispatch_max),
            )),
        );
        return Redispatch::Resolved;
    }
    let tried: Vec<u32> = entry.assignments.iter().map(|a| a.node).collect();
    let job_bytes = entry.a.as_ref().map_or(0, |a| a.nrows() * a.ncols() * 8);
    let keep = entry.keep;
    // Prefer an untried survivor; failing that, any placeable node (the
    // idempotency key makes a same-node retry safe).
    let target = match policy.place(&st.members, job_bytes, keep) {
        Placement::None => None,
        Placement::One(n) | Placement::Two(n, _) if !tried.contains(&n) => Some(n),
        _ => st
            .members
            .placeable()
            .iter()
            .map(|n| n.id)
            .find(|n| !tried.contains(n))
            .or_else(|| st.members.placeable().first().map(|n| n.id)),
    };
    let Some(target) = target else {
        resolve_locked(
            st,
            id,
            Err((
                ErrCode::NodeLost,
                "no surviving node to re-dispatch to".into(),
            )),
        );
        return Redispatch::Resolved;
    };
    if let Some(e) = st.ledger.get_mut(id) {
        e.redispatches += 1;
        e.assignments.push(Assignment {
            node: target,
            remote_job: 0,
            abandoned: false,
        });
    }
    if let Some(m) = st.members.get_mut(target) {
        m.inflight += 1;
        m.placed += 1;
    }
    st.counters.redispatched += 1;
    Redispatch::Spawn(target)
}

/// Resolve an entry and do the outcome bookkeeping (latency sample,
/// counters). Caller notifies the condvar.
fn resolve_locked(st: &mut RState, id: u64, outcome: Outcome) {
    let Some(entry) = st.ledger.get(id) else {
        return;
    };
    if entry.outcome.is_some() {
        return;
    }
    let latency_ms = entry.admitted.elapsed().as_secs_f64() * 1e3;
    match &outcome {
        Ok(_) => st.counters.done += 1,
        Err((ErrCode::DeadlineExpired, _)) => st.counters.expired += 1,
        Err((ErrCode::Cancelled, _)) => st.counters.cancelled += 1,
        Err((ErrCode::NodeLost, _)) => st.counters.node_lost += 1,
        Err(_) => st.counters.failed += 1,
    }
    if st.ledger.resolve(id, outcome) {
        st.latencies_ms.push(latency_ms);
    }
}

fn remember_idem(st: &mut RState, cap: usize, client_idem: u64, id: u64) {
    if client_idem == 0 {
        return;
    }
    if st.idem_order.len() >= cap.max(1) {
        if let Some(old) = st.idem_order.pop_front() {
            st.idem.remove(&old);
        }
    }
    st.idem.insert(client_idem, id);
    st.idem_order.push_back(client_idem);
}

fn validate_job(a: &Matrix, opts: &QrOptions) -> Result<(), String> {
    if a.nrows() == 0 || a.ncols() == 0 {
        return Err("matrix must be non-empty".into());
    }
    if opts.nb == 0 || opts.ib == 0 || opts.ib > opts.nb {
        return Err(format!(
            "need 0 < ib <= nb, got nb={} ib={}",
            opts.nb, opts.ib
        ));
    }
    if !a.nrows().is_multiple_of(opts.nb) || !a.ncols().is_multiple_of(opts.nb) {
        return Err(format!(
            "matrix {}x{} is not tiled by nb={}",
            a.nrows(),
            a.ncols(),
            opts.nb
        ));
    }
    ensure_finite("matrix", a)
}

/// The handle verbs' operand check, run before the hop to the owner.
fn finite(what: &str, m: &Matrix) -> Result<(), (ErrCode, String)> {
    ensure_finite(what, m).map_err(|msg| (ErrCode::Invalid, msg))
}

/// Run one dispatch against a worker: submit under the ledger's idem key
/// (unless the remote id is already known), then long-poll the result.
/// `Ok` carries the semantic outcome; `Err` is a transport failure the
/// caller turns into a node-failure signal.
fn dispatch_remote(
    addr: &str,
    payload: Option<(Matrix, QrOptions, bool, u64)>,
    deadline_ms: u32,
    known_remote: Option<u64>,
    record_remote: impl FnOnce(u64),
) -> Result<Outcome, ClientError> {
    // No read deadline: the result call parks server-side for as long as
    // the job takes. A killed node surfaces as EOF/reset, which is
    // exactly the failure signal wanted here.
    let mut client = Client::connect(addr)?;
    let remote = match known_remote {
        Some(r) => r,
        None => {
            let (a, opts, keep, idem) = payload.expect("fresh dispatch carries its payload");
            // Bounded backpressure courtesy: honor a busy worker's hint a
            // few times before giving up with a typed error (the router
            // already bounded admission; this only smooths bursts).
            let mut attempts = 0u32;
            loop {
                match client.submit_with_idem(&a, &opts, deadline_ms, keep, idem) {
                    Ok(r) => break r,
                    Err(ClientError::Backpressure {
                        draining: false,
                        retry_after_ms,
                        ..
                    }) if attempts < 20 => {
                        attempts += 1;
                        std::thread::sleep(Duration::from_millis(
                            u64::from(retry_after_ms).clamp(1, 100),
                        ));
                    }
                    Err(ClientError::Backpressure { .. }) => {
                        return Ok(Err((
                            ErrCode::Failed,
                            "worker backpressure never cleared".into(),
                        )))
                    }
                    Err(ClientError::Job { code, msg, .. }) => return Ok(Err((code, msg))),
                    Err(e) => return Err(e),
                }
            }
        }
    };
    record_remote(remote);
    match client.result(remote) {
        Ok(r) => Ok(Ok(r)),
        Err(ClientError::Job { code, msg, .. }) => Ok(Err((code, msg))),
        Err(e) => Err(e),
    }
}

// --- TCP front end ------------------------------------------------------

/// Serve the router on `listener` until a client sends [`Msg::Drain`].
/// Speaks the worker protocol verbatim (plus join/leave/ping), spawns the
/// health prober, and cascades the final drain to every member node.
pub fn route(listener: TcpListener, router: Arc<Router>) -> std::io::Result<()> {
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let prober_stop = Arc::new(AtomicBool::new(false));
    let prober = {
        let router = router.clone();
        let stop = prober_stop.clone();
        let beat = Duration::from_millis(router.cfg.heartbeat_ms.max(5));
        std::thread::Builder::new()
            .name("qr-route-prober".into())
            .spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(beat);
                    router.probe_once();
                }
            })
            .expect("failed to spawn router prober")
    };
    let conns = Conns::default();
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    for index in 0u64.. {
        let (stream, _) = listener.accept()?;
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        // As the node does: reap finished handlers, and hold a duplicate
        // stream only while its connection is open.
        handlers.retain(|h| !h.is_finished());
        let slot = ConnSlot::register(&conns, index, &stream);
        let router = router.clone();
        let shutdown = shutdown.clone();
        handlers.push(
            std::thread::Builder::new()
                .name("qr-route-conn".into())
                .spawn(move || {
                    let _slot = slot;
                    handle_route_conn(stream, &router, &shutdown, local)
                })
                .expect("failed to spawn router connection handler"),
        );
    }
    // Mirror the worker's drain choreography: a short grace so clients
    // mid-flight between ACK and result-poll still get their reply.
    std::thread::sleep(router.cfg.drain_grace);
    prober_stop.store(true, Ordering::Release);
    shutdown_reads(&conns);
    for h in handlers {
        let _ = h.join();
    }
    let _ = prober.join();
    Ok(())
}

fn handle_route_conn(
    mut stream: TcpStream,
    router: &Arc<Router>,
    shutdown: &AtomicBool,
    local: SocketAddr,
) {
    loop {
        let (msg, seq) = match proto::read_msg(&mut stream) {
            Ok(x) => x,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                let reply = Msg::Error {
                    job: 0,
                    code: ErrCode::Invalid,
                    msg: e.to_string(),
                };
                let _ = proto::write_msg(&mut stream, &reply, 0);
                return;
            }
            Err(_) => return,
        };
        let draining = matches!(msg, Msg::Drain);
        let reply = dispatch_route(router, msg);
        let frame = proto::encode_msg(&reply, seq);
        let delivered = stream.write_all(&frame).is_ok();
        if draining {
            shutdown.store(true, Ordering::Release);
            let _ = TcpStream::connect_timeout(&local, Duration::from_secs(5));
            return;
        }
        if !delivered {
            return;
        }
    }
}

fn typed_err(job: u64, (code, msg): (ErrCode, String)) -> Msg {
    Msg::Error { job, code, msg }
}

fn dispatch_route(router: &Arc<Router>, msg: Msg) -> Msg {
    match msg {
        Msg::Submit {
            nb,
            ib,
            deadline_ms,
            keep,
            idem,
            tree,
            a,
        } => {
            let tree: pulsar_core::Tree = match tree.parse() {
                Ok(t) => t,
                Err(e) => {
                    return Msg::Error {
                        job: 0,
                        code: ErrCode::Invalid,
                        msg: e,
                    }
                }
            };
            if nb == 0 || ib == 0 {
                return Msg::Error {
                    job: 0,
                    code: ErrCode::Invalid,
                    msg: "nb and ib must be positive".into(),
                };
            }
            let opts = QrOptions::new(nb as usize, ib as usize, tree);
            match router.submit(a, opts, deadline_ms, keep, idem) {
                Ok(job) => Msg::SubmitOk { job },
                Err(RouteError::Backpressure {
                    retry_after_ms,
                    queued,
                    draining,
                }) => Msg::Reject {
                    draining,
                    retry_after_ms,
                    queued,
                },
                Err(RouteError::Typed(code, msg)) => Msg::Error { job: 0, code, msg },
            }
        }
        Msg::Status { job } => match router.status(job) {
            Some((state, queue_pos)) => Msg::State {
                job,
                state,
                queue_pos,
            },
            None => Msg::Error {
                job,
                code: ErrCode::UnknownJob,
                msg: format!("unknown job {job}"),
            },
        },
        Msg::Result { job } => match router.wait_result(job) {
            Ok(r) => Msg::RFactor { job, r },
            Err((code, msg)) => Msg::Error { job, code, msg },
        },
        Msg::Cancel { job } => Msg::CancelOk {
            job,
            cancelled: router.cancel(job),
        },
        Msg::Solve { handle, b } => {
            match finite("rhs", &b)
                .and_then(|()| router.with_owner(handle, |c, remote| c.solve(remote, &b)))
            {
                Ok(x) => Msg::Solution { handle, x },
                Err(e) => typed_err(handle, e),
            }
        }
        Msg::ApplyQ {
            handle,
            transpose,
            b,
        } => match finite("operand", &b)
            .and_then(|()| router.with_owner(handle, |c, remote| c.apply_q(remote, &b, transpose)))
        {
            Ok(c) => Msg::QApplied { handle, c },
            Err(e) => typed_err(handle, e),
        },
        Msg::Update { handle, e } => {
            match finite("appended rows", &e)
                .and_then(|()| router.with_owner(handle, |c, remote| c.update(remote, &e)))
            {
                Ok(rows) => Msg::Updated { handle, rows },
                Err(err) => typed_err(handle, err),
            }
        }
        Msg::Release { handle } => match router.with_owner(handle, |c, remote| c.release(remote)) {
            Ok(released) => Msg::Released { handle, released },
            Err(e) => typed_err(handle, e),
        },
        Msg::Join {
            addr,
            threads,
            store_bytes,
            gemm_tier,
        } => {
            let caps = Caps {
                threads,
                store_bytes,
                gemm_tier,
            };
            match router.join(&addr, caps) {
                Ok(node_id) => Msg::JoinOk { node_id },
                Err(e) => typed_err(0, e),
            }
        }
        Msg::Leave { node_id } => Msg::LeaveOk {
            node_id,
            left: router.leave(node_id),
        },
        Msg::Ping { nonce } => Msg::Pong {
            nonce,
            queued: router.inflight() as u32,
            running: 0,
        },
        Msg::Drain => Msg::Drained {
            stats: router.drain(),
        },
        other => Msg::Error {
            job: 0,
            code: ErrCode::Invalid,
            msg: format!("verb {} is a reply, not a request", other.verb()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routed_handles_pack_and_split() {
        let h = routed_handle(3, 7);
        assert_eq!(split_handle(h), (3, 7));
        assert_eq!(split_handle(42), (0, 42), "local handles carry node 0");
        let max = routed_handle(u16::MAX as u32, REMOTE_MASK);
        assert_eq!(split_handle(max), (u16::MAX as u32, REMOTE_MASK));
    }
}
