//! Serve nodes and an optional router, started in-process on loopback TCP
//! through the public `serve` / `route` functions, and drained at the end.

use pulsar_server::{route, serve, Client, RouteConfig, Router, ServeConfig, Service};
use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

type Daemon = JoinHandle<std::io::Result<()>>;

/// One serve node.
pub struct Node {
    pub addr: String,
    pub svc: Arc<Service>,
    daemon: Daemon,
}

/// A router fronting some nodes.
pub struct RouterFront {
    pub addr: String,
    pub router: Arc<Router>,
    daemon: Daemon,
}

/// The nodes and router of one set-up.
pub struct Fleet {
    pub nodes: Vec<Node>,
    pub router: Option<RouterFront>,
}

fn listener() -> (TcpListener, String) {
    let l = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = l
        .local_addr()
        .expect("bound socket has an address")
        .to_string();
    (l, addr)
}

/// Start a serve node with `threads` pool threads.
pub fn start_node(threads: usize) -> Node {
    let (l, addr) = listener();
    let svc = Service::start(ServeConfig {
        threads,
        ..ServeConfig::default()
    });
    let s2 = svc.clone();
    let daemon = std::thread::spawn(move || serve(l, s2));
    Node { addr, svc, daemon }
}

/// Start a default router, join `nodes` through its front end, and wait
/// until every node is placeable.
pub fn start_router(nodes: &[Node]) -> Result<RouterFront, String> {
    let (l, addr) = listener();
    let router = Router::new(RouteConfig::default());
    let r2 = router.clone();
    let daemon = std::thread::spawn(move || route(l, r2));
    let front = RouterFront {
        addr,
        router,
        daemon,
    };
    let mut c = Client::connect(&front.addr).map_err(|e| e.to_string())?;
    for n in nodes {
        let threads = n.svc.config().threads as u32;
        let store = n.svc.config().store_bytes as u64;
        c.join(&n.addr, threads, store, "auto")
            .map_err(|e| format!("join {}: {e}", n.addr))?;
    }
    let t0 = Instant::now();
    while front.router.placeable_nodes() < nodes.len() {
        if t0.elapsed() > Duration::from_secs(10) {
            return Err("router never saw every node healthy".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(front)
}

impl Fleet {
    /// `nodes` nodes of `threads` pool threads, fronted by a router when
    /// `routed`.
    pub fn start(nodes: usize, threads: usize, routed: bool) -> Result<Fleet, String> {
        let nodes: Vec<Node> = (0..nodes).map(|_| start_node(threads)).collect();
        let router = if routed {
            Some(start_router(&nodes)?)
        } else {
            None
        };
        Ok(Fleet { nodes, router })
    }

    /// Where clients of this fleet connect.
    pub fn entry(&self) -> &str {
        match &self.router {
            Some(r) => &r.addr,
            None => &self.nodes[0].addr,
        }
    }

    /// Drain everything and join every daemon thread. Returns the final
    /// STATS-JSON: the router's rollup (which embeds each node's drain
    /// stats) when routed, else the nodes' drain stats, one per line.
    pub fn drain(self) -> Result<String, String> {
        let mut out = String::new();
        let joined = |d: Daemon, what: &str| -> Result<(), String> {
            d.join()
                .map_err(|_| format!("{what} daemon panicked"))?
                .map_err(|e| format!("{what} daemon: {e}"))
        };
        if let Some(r) = self.router {
            let stats = Client::connect(&r.addr)
                .and_then(|mut c| c.drain())
                .map_err(|e| format!("router drain: {e}"))?;
            out.push_str(&stats);
            joined(r.daemon, "router")?;
            for n in self.nodes {
                joined(n.daemon, "node")?;
            }
        } else {
            for n in self.nodes {
                let stats = Client::connect(&n.addr)
                    .and_then(|mut c| c.drain())
                    .map_err(|e| format!("node drain: {e}"))?;
                out.push_str(&stats);
                out.push('\n');
                joined(n.daemon, "node")?;
            }
        }
        Ok(out)
    }
}
