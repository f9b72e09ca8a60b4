//! TCP front end of the QR service: accept loop, one handler thread per
//! connection, and the request → [`Service`] dispatch table.

use crate::fault::{ConnFaults, ReplyFate, ServeFaultPlan};
use crate::proto::{self, ErrCode, Msg};
use crate::service::{JobError, Service, SubmitError};
use parking_lot::Mutex;
use pulsar_core::{QrOptions, Tree};
use std::collections::HashMap;
use std::io::{ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

impl JobError {
    fn code(&self) -> ErrCode {
        match self {
            JobError::Failed(_) => ErrCode::Failed,
            JobError::DeadlineExpired => ErrCode::DeadlineExpired,
            JobError::Cancelled => ErrCode::Cancelled,
            JobError::Unknown => ErrCode::UnknownJob,
            JobError::HandleExpired(_) => ErrCode::HandleExpired,
            JobError::StoreFull { .. } => ErrCode::StoreFull,
            JobError::Invalid(_) => ErrCode::Invalid,
            JobError::Panicked(_) => ErrCode::Panicked,
        }
    }
}

/// A duplicate of every open connection's stream, by connection index, so
/// the drain and die paths can unblock handlers sitting in a read. Shared
/// by the node's and the router's accept loops.
pub(crate) type Conns = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// A connection's entry in [`Conns`], removed when its handler exits (on
/// any path, a panic included), so a long-running node holds one
/// duplicate descriptor per *open* connection, not per connection ever
/// accepted.
pub(crate) struct ConnSlot {
    conns: Conns,
    index: u64,
}

impl ConnSlot {
    /// Register a duplicate of `stream` under `index` (a connection whose
    /// duplicate cannot be made is simply not registered).
    pub(crate) fn register(conns: &Conns, index: u64, stream: &TcpStream) -> ConnSlot {
        if let Ok(dup) = stream.try_clone() {
            conns.lock().insert(index, dup);
        }
        ConnSlot {
            conns: conns.clone(),
            index,
        }
    }
}

impl Drop for ConnSlot {
    fn drop(&mut self) {
        self.conns.lock().remove(&self.index);
    }
}

/// Close the read half of every open connection, so handlers blocked in a
/// read see EOF and return while in-flight replies still flush.
pub(crate) fn shutdown_reads(conns: &Conns) {
    for (_, conn) in conns.lock().drain() {
        let _ = conn.shutdown(Shutdown::Read);
    }
}

/// Shared trigger for the `die=N` chaos directive: one reply counter
/// across every connection, firing exactly once.
struct DieSwitch {
    after: u64,
    replies: AtomicU64,
    fired: AtomicBool,
    conns: Conns,
}

/// Typed error reply for a handle-verb failure.
fn handle_err(handle: u64, e: &JobError) -> Msg {
    Msg::Error {
        job: handle,
        code: e.code(),
        msg: e.to_string(),
    }
}

/// Serve `service` on `listener` until a client sends [`Msg::Drain`].
///
/// Each connection gets its own handler thread; requests on one
/// connection are processed in order ([`Msg::Result`] long-polls, so
/// interleave slow and fast requests on separate connections). The call
/// returns after a drain completed: the queue was run dry, the drained
/// reply was sent, and every handler thread was joined.
pub fn serve(listener: TcpListener, service: Arc<Service>) -> std::io::Result<()> {
    serve_with_faults(listener, service, None)
}

/// [`serve`] under a seeded [`ServeFaultPlan`]: every reply frame rolls
/// for drop / delay / corrupt / disconnect before the write, and a
/// `panic-job` directive detonates inside that job's first VDP firing.
/// Chaos tests use this to prove accepted jobs survive dropped ACKs,
/// poisoned batches, and severed connections with typed errors — never a
/// hang or a silently wrong answer.
pub fn serve_with_faults(
    listener: TcpListener,
    service: Arc<Service>,
    faults: Option<ServeFaultPlan>,
) -> std::io::Result<()> {
    if let Some(job) = faults.as_ref().and_then(|f| f.panic_job) {
        service.inject_panic_job(job);
    }
    if let Some(ms) = faults.as_ref().and_then(|f| f.sched_delay_ms) {
        service.inject_sched_delay(Duration::from_millis(ms));
    }
    let local = listener.local_addr()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let conns: Conns = Arc::new(Mutex::new(HashMap::new()));
    let die = faults.as_ref().and_then(|f| f.die).map(|after| {
        Arc::new(DieSwitch {
            after,
            replies: AtomicU64::new(0),
            fired: AtomicBool::new(false),
            conns: conns.clone(),
        })
    });
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let mut conn_index = 0u64;
    loop {
        let (stream, _) = listener.accept()?;
        if shutdown.load(Ordering::Acquire) {
            break;
        }
        // Reap handlers of connections that already closed: their threads
        // are gone, so dropping the handle just releases it.
        handlers.retain(|h| !h.is_finished());
        // Keep a duplicate handle so the drain path can unblock handlers
        // that sit in a read on a connection the client left open; the
        // handler removes it again when it exits.
        let slot = ConnSlot::register(&conns, conn_index, &stream);
        let service = service.clone();
        let shutdown = shutdown.clone();
        let conn_faults = faults.as_ref().map(|p| ConnFaults::new(p, conn_index));
        let die = die.clone();
        conn_index += 1;
        handlers.push(
            std::thread::Builder::new()
                .name("qr-conn".into())
                .spawn(move || {
                    let _slot = slot;
                    handle_conn(stream, &service, &shutdown, local, conn_faults, die)
                })
                .expect("failed to spawn connection handler"),
        );
    }
    // A fired die directive is a crash, not a drain: connections are
    // already severed, so skip the grace window and surface an error.
    if die
        .as_ref()
        .is_some_and(|d| d.fired.load(Ordering::Acquire))
    {
        for h in handlers {
            let _ = h.join();
        }
        return Err(std::io::Error::other(
            "chaos: die directive severed the node",
        ));
    }
    // Drained: every queued job has resolved, but a result delivered to
    // the service moments ago may not have been *collected* yet — a
    // client can be mid-flight between its submit ACK and its result
    // call. Give those outcomes a short grace window before hanging up,
    // so drain never races result collection. Only then close the read
    // half of each connection (dead ones error, which is fine) so
    // handlers blocked in a read see EOF and return, while in-flight
    // replies still flush.
    let grace = Instant::now();
    let drain_grace = service.config().drain_grace;
    while service.unclaimed_outcomes() > 0 && grace.elapsed() < drain_grace {
        std::thread::sleep(Duration::from_millis(5));
    }
    shutdown_reads(&conns);
    for h in handlers {
        let _ = h.join();
    }
    Ok(())
}

fn handle_conn(
    mut stream: TcpStream,
    service: &Service,
    shutdown: &AtomicBool,
    local: SocketAddr,
    mut faults: Option<ConnFaults>,
    die: Option<Arc<DieSwitch>>,
) {
    loop {
        let (msg, seq) = match proto::read_msg(&mut stream) {
            Ok(x) => x,
            Err(e) if e.kind() == ErrorKind::InvalidData => {
                // Garbage on the wire: after a bad frame the stream offset
                // is unreliable, so reply once and hang up.
                let reply = Msg::Error {
                    job: 0,
                    code: ErrCode::Invalid,
                    msg: e.to_string(),
                };
                let _ = proto::write_msg(&mut stream, &reply, 0);
                return;
            }
            // Clean disconnect (or any other io failure): drop the
            // connection silently.
            Err(_) => return,
        };
        let draining = matches!(msg, Msg::Drain);
        let reply = dispatch(service, msg);
        let mut frame = proto::encode_msg(&reply, seq);
        let fate = faults
            .as_mut()
            .map_or(ReplyFate::Deliver, |f| f.apply(&mut frame));
        let delivered = match fate {
            ReplyFate::Deliver => stream.write_all(&frame).is_ok(),
            ReplyFate::DeliverAfter(d) => {
                std::thread::sleep(d);
                stream.write_all(&frame).is_ok()
            }
            // A dropped ACK: the request took effect but the client hears
            // nothing. The connection stays usable for its retry.
            ReplyFate::Drop => true,
            ReplyFate::Disconnect => {
                let _ = stream.shutdown(Shutdown::Both);
                false
            }
        };
        // Probe replies don't advance the die counter: a router's prober
        // pings continuously, and `die=N` must mean "after N *job*
        // replies", deterministic regardless of heartbeat cadence.
        let counts_toward_die = !matches!(reply, Msg::Pong { .. });
        if let Some(d) = die.as_ref().filter(|_| counts_toward_die) {
            // The crash lands *after* this reply went out: the client saw
            // the ACK, then the node vanished mid-conversation.
            if d.replies.fetch_add(1, Ordering::AcqRel) + 1 >= d.after
                && !d.fired.swap(true, Ordering::AcqRel)
            {
                shutdown.store(true, Ordering::Release);
                for (_, conn) in d.conns.lock().drain() {
                    let _ = conn.shutdown(Shutdown::Both);
                }
                let _ = TcpStream::connect_timeout(&local, Duration::from_secs(5));
                return;
            }
        }
        if draining {
            // The drained reply is out (or chaos ate it — the drain still
            // happened); wake the acceptor so `serve` returns. The
            // self-connection is accepted and discarded.
            shutdown.store(true, Ordering::Release);
            let _ = TcpStream::connect_timeout(&local, Duration::from_secs(5));
            return;
        }
        if !delivered {
            return;
        }
    }
}

fn dispatch(service: &Service, msg: Msg) -> Msg {
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
            let tree: Tree = match tree.parse() {
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
            let deadline = (deadline_ms > 0).then(|| Duration::from_millis(u64::from(deadline_ms)));
            match service.submit_idem(a, opts, deadline, keep, idem) {
                Ok(job) => Msg::SubmitOk { job },
                Err(SubmitError::Backpressure {
                    retry_after_ms,
                    queued,
                    draining,
                }) => Msg::Reject {
                    draining,
                    retry_after_ms,
                    queued,
                },
                Err(SubmitError::Invalid(m)) => Msg::Error {
                    job: 0,
                    code: ErrCode::Invalid,
                    msg: m,
                },
            }
        }
        Msg::Status { job } => match service.status(job) {
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
        Msg::Result { job } => match service.wait_result(job) {
            Ok(r) => Msg::RFactor { job, r },
            Err(e) => Msg::Error {
                job,
                code: e.code(),
                msg: e.to_string(),
            },
        },
        Msg::Cancel { job } => Msg::CancelOk {
            job,
            cancelled: service.cancel(job),
        },
        Msg::Drain => Msg::Drained {
            stats: service.drain(),
        },
        // Handle verbs run inline on this connection thread: they are
        // pure reads of stored factors (plus a short store commit for
        // update), so they never queue behind factorization batches.
        Msg::Solve { handle, b } => match service.solve(handle, &b) {
            Ok(x) => Msg::Solution { handle, x },
            Err(e) => handle_err(handle, &e),
        },
        Msg::ApplyQ {
            handle,
            transpose,
            b,
        } => match service.apply_q(handle, &b, transpose) {
            Ok(c) => Msg::QApplied { handle, c },
            Err(e) => handle_err(handle, &e),
        },
        Msg::Update { handle, e } => match service.update(handle, &e) {
            Ok(rows) => Msg::Updated { handle, rows },
            Err(err) => handle_err(handle, &err),
        },
        Msg::Release { handle } => Msg::Released {
            handle,
            released: service.release(handle),
        },
        // Liveness probe from a router's health prober: answer with the
        // queue/pool load snapshot placement feeds on.
        Msg::Ping { nonce } => {
            let (queued, running) = service.load();
            Msg::Pong {
                nonce,
                queued,
                running,
            }
        }
        // A client sending reply verbs is confused; tell it so.
        other => Msg::Error {
            job: 0,
            code: ErrCode::Invalid,
            msg: format!("verb {} is a reply, not a request", other.verb()),
        },
    }
}
