//! Non-finite input is refused at admission over TCP, one test per verb
//! that carries a matrix: a NaN or Inf entry yields the typed `Invalid`
//! error, nothing is admitted or stored, and a kept handle is left
//! exactly as it was.

use pulsar_core::{QrOptions, Tree};
use pulsar_linalg::Matrix;
use pulsar_server::{Client, ClientError, ErrCode, ServeConfig, Service};
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

/// A service on a loopback port, its server thread, and a connected
/// client.
fn start() -> (Arc<Service>, JoinHandle<std::io::Result<()>>, Client) {
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
    let client = Client::connect(&addr).unwrap();
    (svc, server, client)
}

fn stop(mut client: Client, server: JoinHandle<std::io::Result<()>>) {
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
