//! A serve node holds resources only for its open connections: a closed
//! connection's duplicate stream (kept so a drain can unblock its reader)
//! is released when its handler exits, and finished handler threads are
//! reaped by the accept loop. Thousands of short connections one after
//! another must leave the process's descriptor count where it started,
//! and a drain must still unblock a reader whose client stays idle.

use pulsar_server::{Client, ServeConfig, Service};
use std::net::TcpListener;
use std::path::Path;
use std::time::{Duration, Instant};

const CYCLES: usize = 2000;
/// Descriptors allowed above the starting count: handlers of the last few
/// connections may still be on their way out when the count is taken.
const SLACK: usize = 16;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("list /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_descriptors() {
    if !Path::new("/proc/self/fd").is_dir() {
        eprintln!("skipping: no /proc/self/fd on this platform");
        return;
    }
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let svc = Service::start(ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    });
    let server = std::thread::spawn(move || pulsar_server::serve(listener, svc));

    // One cycle first, so descriptors opened lazily on the first
    // connection are part of the baseline.
    Client::connect(&addr).unwrap().ping().unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let start = open_fds();
    for _ in 0..CYCLES {
        let mut client = Client::connect(&addr).unwrap();
        client.ping().unwrap();
    }
    let settle = Instant::now() + Duration::from_secs(10);
    let mut now = open_fds();
    while now > start + SLACK && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(10));
        now = open_fds();
    }
    assert!(
        now <= start + SLACK,
        "{CYCLES} closed connections left {} descriptors open ({start} -> {now})",
        now - start
    );

    // An idle open connection must not hold the drain up.
    let mut idle = Client::connect(&addr).unwrap();
    idle.ping().unwrap();
    Client::connect(&addr)
        .unwrap()
        .drain()
        .expect("drain succeeds");
    server.join().unwrap().unwrap();
    drop(idle);
}
