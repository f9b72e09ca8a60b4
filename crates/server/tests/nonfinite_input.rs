//! Non-finite input is refused at admission over TCP, one test per verb
//! that carries a matrix: a NaN or Inf entry yields the typed `Invalid`
//! error, nothing is admitted or stored, and a kept handle is left
//! exactly as it was. The router front end refuses the same input before
//! it places or forwards anything.

use pulsar_core::{QrOptions, Tree};
use pulsar_linalg::Matrix;
use pulsar_server::{
    route, Client, ClientError, ErrCode, RouteConfig, Router, ServeConfig, Service,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;

fn matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::random(rows, cols, &mut StdRng::seed_from_u64(seed))
}

/// `m` with entry (i, j) replaced by `v`.
fn poisoned(mut m: Matrix, i: usize, j: usize, v: f64) -> Matrix {
    m[(i, j)] = v;
    m
}

fn opts() -> QrOptions {
    QrOptions::new(8, 4, Tree::Greedy)
}

type Server = JoinHandle<std::io::Result<()>>;

/// A service on a loopback port, its address, and its server thread.
fn serve_local() -> (Arc<Service>, String, Server) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = Service::start(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let server = {
        let svc = svc.clone();
        std::thread::spawn(move || pulsar_server::serve(listener, svc))
    };
    (svc, addr, server)
}

/// A service on a loopback port, its server thread, and a connected
/// client.
fn start() -> (Arc<Service>, Server, Client) {
    let (svc, addr, server) = serve_local();
    let client = Client::connect(&addr).unwrap();
    (svc, server, client)
}

fn stop(mut client: Client, server: Server) {
    client.drain().expect("drain succeeds");
    server.join().unwrap().unwrap();
}

fn assert_invalid<T: std::fmt::Debug>(r: Result<T, ClientError>, what: &str) {
    match r {
        Err(ClientError::Job {
            code: ErrCode::Invalid,
            msg,
            ..
        }) => assert!(msg.contains("non-finite"), "{what}: {msg}"),
        other => panic!("{what}: expected a typed Invalid error, got {other:?}"),
    }
}

/// Keep a 96 x 32 factorization and return its handle.
fn keep(client: &mut Client) -> u64 {
    let h = client.submit_keep(&matrix(96, 32, 5), &opts(), 0).unwrap();
    client.result(h).expect("finite job factors");
    h
}

#[test]
fn submit_rejects_nan_and_inf() {
    let (svc, server, mut client) = start();
    for (v, what) in [(f64::NAN, "NaN"), (f64::INFINITY, "+Inf")] {
        let a = poisoned(matrix(64, 32, 1), 17, 9, v);
        assert_invalid(client.submit(&a, &opts(), 0), what);
        assert_invalid(client.submit_keep(&a, &opts(), 0), what);
    }
    // Nothing was admitted, so nothing ran and nothing was stored.
    let stats = svc.stats_json();
    assert!(stats.contains("\"jobs_done\":0,"), "{stats}");
    assert!(stats.contains("\"entries\":0,\"bytes\":0"), "{stats}");
    stop(client, server);
}

#[test]
fn solve_rejects_non_finite_rhs() {
    let (_svc, server, mut client) = start();
    let h = keep(&mut client);
    let b = matrix(96, 2, 6);
    assert_invalid(
        client.solve(h, &poisoned(b.clone(), 95, 1, f64::NAN)),
        "NaN",
    );
    assert_invalid(
        client.solve(h, &poisoned(b.clone(), 0, 0, f64::NEG_INFINITY)),
        "-Inf",
    );
    // The handle still serves a finite right-hand side.
    let x = client.solve(h, &b).expect("finite solve");
    assert!(x.data().iter().all(|v| v.is_finite()));
    stop(client, server);
}

#[test]
fn apply_q_rejects_non_finite_operand() {
    let (_svc, server, mut client) = start();
    let h = keep(&mut client);
    let b = matrix(96, 3, 7);
    for transpose in [false, true] {
        assert_invalid(
            client.apply_q(h, &poisoned(b.clone(), 40, 2, f64::NAN), transpose),
            "NaN",
        );
        assert_invalid(
            client.apply_q(h, &poisoned(b.clone(), 3, 0, f64::INFINITY), transpose),
            "+Inf",
        );
    }
    client.apply_q(h, &b, true).expect("finite apply-q");
    stop(client, server);
}

#[test]
fn update_rejects_non_finite_rows() {
    let (_svc, server, mut client) = start();
    let h = keep(&mut client);
    let e = matrix(16, 32, 8);
    assert_invalid(
        client.update(h, &poisoned(e.clone(), 15, 31, f64::NAN)),
        "NaN",
    );
    assert_invalid(
        client.update(h, &poisoned(e.clone(), 0, 4, f64::INFINITY)),
        "+Inf",
    );
    // The refused updates absorbed nothing: the next one grows 96 -> 112.
    assert_eq!(client.update(h, &e).expect("finite update"), 112);
    stop(client, server);
}

/// One worker node joined behind a router, both on loopback ports, and a
/// client connected to the router.
fn start_routed() -> (Arc<Service>, Arc<Router>, [Server; 2], Client) {
    let (svc, waddr, worker) = serve_local();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let raddr = listener.local_addr().unwrap().to_string();
    let router = Router::new(RouteConfig {
        replicate_under: 0,
        ..RouteConfig::default()
    });
    let front = {
        let router = router.clone();
        std::thread::spawn(move || route(listener, router))
    };
    let mut client = Client::connect(&raddr).unwrap();
    client.join(&waddr, 2, 1 << 20, "scalar").unwrap();
    (svc, router, [front, worker], client)
}

/// Drain the router (which cascades to its worker) and join both.
fn stop_routed(mut client: Client, servers: [Server; 2]) {
    client.drain().expect("drain succeeds");
    for s in servers {
        s.join().unwrap().unwrap();
    }
}

#[test]
fn router_refuses_non_finite_submit_before_placing() {
    let (svc, router, servers, mut client) = start_routed();
    for (v, what) in [(f64::NAN, "NaN"), (f64::NEG_INFINITY, "-Inf")] {
        let a = poisoned(matrix(64, 32, 2), 63, 0, v);
        assert_invalid(client.submit(&a, &opts(), 0), what);
        assert_invalid(client.submit_keep(&a, &opts(), 0), what);
    }
    // Nothing was placed on the node, so nothing reached it.
    let stats = router.stats_json_standalone();
    assert!(stats.contains("\"placed\":0,"), "{stats}");
    assert_eq!(router.inflight(), 0);
    let node = svc.stats_json();
    assert!(node.contains("\"jobs_done\":0,"), "{node}");
    assert!(node.contains("\"entries\":0,\"bytes\":0"), "{node}");
    stop_routed(client, servers);
}

#[test]
fn routed_handle_verbs_reject_non_finite_operands() {
    let (_svc, _router, servers, mut client) = start_routed();
    let h = keep(&mut client);
    let b = matrix(96, 2, 9);
    assert_invalid(
        client.solve(h, &poisoned(b.clone(), 7, 1, f64::NAN)),
        "solve NaN",
    );
    for transpose in [false, true] {
        assert_invalid(
            client.apply_q(h, &poisoned(b.clone(), 95, 0, f64::INFINITY), transpose),
            "apply-q +Inf",
        );
    }
    let e = matrix(16, 32, 10);
    assert_invalid(
        client.update(h, &poisoned(e.clone(), 3, 3, f64::NAN)),
        "update NaN",
    );
    // The handle is untouched: finite verbs still work, and the refused
    // update absorbed nothing (96 -> 112).
    client.solve(h, &b).expect("finite solve");
    client.apply_q(h, &b, true).expect("finite apply-q");
    assert_eq!(client.update(h, &e).expect("finite update"), 112);
    stop_routed(client, servers);
}
