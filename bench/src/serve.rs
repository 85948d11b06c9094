//! The query side of every workload: closed-loop analysts on
//! `aims-serve --data` over TCP, every answer checked against the mirror.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use aims_service::{ClientEvent, ProgressKind, QuerySpec, TcpClient};
use aims_telemetry::Snapshot;

use crate::child::ServeChild;
use crate::oracle::{close, point_hot_query, range_cold_query, Rng, SummedArea};
use crate::spans::Spans;
use crate::stats::{closed_loop_rates, median};

/// Closed-loop analyst connections; the sandbox has two cores.
const CLIENTS: usize = 2;

/// What distinguishes one serve workload from the other.
pub struct ServeShape {
    pub side: usize,
    pub block: usize,
    pub cache: usize,
    pub query: fn(&mut Rng, usize) -> Vec<(usize, usize)>,
    /// Queries the ladder replays.
    pub ladder_queries: usize,
}

/// 1024 blocks behind a 2048-block cache: nothing is ever read twice.
pub const POINT_HOT: ServeShape =
    ServeShape { side: 256, block: 64, cache: 2048, query: point_hot_query, ladder_queries: 400 };
/// 16 384 blocks behind a 256-block cache that is smaller than one
/// query's plan: every round goes to the device.
pub const RANGE_COLD: ServeShape =
    ServeShape { side: 1024, block: 64, cache: 256, query: range_cold_query, ladder_queries: 40 };

/// What one analyst connection saw in one window.
#[derive(Default)]
pub struct ClientReport {
    pub latency_ms: Vec<f64>,
    pub first_answer_ms: Vec<f64>,
    pub frames: u64,
    pub failed: u64,
    /// Answers per second, one figure per second the connection ran.
    pub rates: Vec<f64>,
    /// Traced windows only: client latency − server-reported latency.
    pub wire_ms: Vec<f64>,
    pub server_ms: Vec<f64>,
    pub queue_wait_us: Vec<f64>,
    pub rounds: u64,
}

impl ClientReport {
    /// Adds a later turn of the same analyst.
    fn merge(&mut self, other: ClientReport) {
        self.latency_ms.extend(other.latency_ms);
        self.first_answer_ms.extend(other.first_answer_ms);
        self.frames += other.frames;
        self.failed += other.failed;
        self.rates.extend(other.rates);
        self.wire_ms.extend(other.wire_ms);
        self.server_ms.extend(other.server_ms);
        self.queue_wait_us.extend(other.queue_wait_us);
        self.rounds += other.rounds;
    }
}

/// Runs seeded queries back to back on one connection until `stop`,
/// checking every answer: the estimate at `Done` against the summed-area
/// table, a zero final bound, and bounds that never grow on the way.
fn client_loop(
    client: &mut TcpClient,
    shape: &ServeShape,
    sat: &SummedArea,
    rng: &mut Rng,
    stop: &AtomicBool,
    traced: bool,
    mut spans: Option<&mut Spans>,
) -> Result<ClientReport, String> {
    let mut out = ClientReport::default();
    let mut done_s = Vec::new();
    let t0 = Instant::now();
    let mut req_id = 0u64;
    while !stop.load(Ordering::Acquire) {
        req_id += 1;
        let ranges = (shape.query)(rng, shape.side);
        let truth = sat.sum(&ranges);
        let mut spec = QuerySpec::interactive(ranges);
        spec.trace = traced;
        let start = Instant::now();
        client.submit(req_id, &spec).map_err(|e| format!("SUBMIT: {e}"))?;
        let (mut first, mut profile, mut prev_bound) = (None, None, f64::INFINITY);
        let ok = loop {
            match client.next_event().map_err(|e| format!("waiting for a frame: {e}"))? {
                ClientEvent::Progress { req_id: got, kind, refinement } if got == req_id => {
                    out.frames += 1;
                    let monotone = refinement.error_bound <= prev_bound;
                    prev_bound = refinement.error_bound;
                    if first.is_none() && refinement.error_bound.is_finite() {
                        first = Some(start.elapsed());
                    }
                    match kind {
                        ProgressKind::Progress if monotone => continue,
                        ProgressKind::Done => {
                            break monotone
                                && refinement.error_bound == 0.0
                                && close(refinement.estimate, truth);
                        }
                        // A grown bound, or a query the server expired,
                        // shed or cancelled: none may happen here.
                        _ => break false,
                    }
                }
                ClientEvent::Profile { req_id: got, profile: p } if got == req_id => {
                    profile = Some(p);
                }
                ClientEvent::Reject { req_id: got, .. } if got == req_id => break false,
                _ => continue,
            }
        };
        let end = Instant::now();
        let latency = end - start;
        out.latency_ms.push(latency.as_secs_f64() * 1e3);
        out.first_answer_ms.push(first.unwrap_or(latency).as_secs_f64() * 1e3);
        out.failed += u64::from(!ok);
        done_s.push((end - t0).as_secs_f64());
        if let Some(p) = profile {
            let server = Duration::from_nanos(p.latency_ns);
            out.wire_ms.push(latency.saturating_sub(server).as_secs_f64() * 1e3);
            out.server_ms.push(server.as_secs_f64() * 1e3);
            out.queue_wait_us.push(p.queue_wait_ns as f64 / 1e3);
            out.rounds += u64::from(p.rounds);
            if let Some(s) = spans.as_deref_mut() {
                // The server's share sits somewhere inside the client's
                // span; only its length is known, so centre it.
                let (a, b) = (s.at(start), s.at(end));
                let pad = (b - a).saturating_sub(p.latency_ns) / 2;
                let q = s.push("client.query", a, b, None, req_id);
                let sv = s.push("service.query", a + pad, a + pad + p.latency_ns, Some(q), req_id);
                s.push("service.queue_wait", a + pad, a + pad + p.queue_wait_ns, Some(sv), req_id);
            }
        }
    }
    out.rates = closed_loop_rates(&done_s);
    Ok(out)
}

/// What the analysts saw in one window, or in several turns of one.
#[derive(Default)]
pub struct Window {
    /// One report per connection.
    pub clients: Vec<ClientReport>,
}

impl Window {
    /// Adds a later turn of the same analysts.
    pub fn merge(&mut self, other: Window) {
        if self.clients.is_empty() {
            self.clients = other.clients;
        } else {
            self.clients.iter_mut().zip(other.clients).for_each(|(c, o)| c.merge(o));
        }
    }

    pub fn pooled(&self, f: impl Fn(&ClientReport) -> &Vec<f64>) -> Vec<f64> {
        self.clients.iter().flat_map(|c| f(c).iter().copied()).collect()
    }

    pub fn queries(&self) -> u64 {
        self.clients.iter().map(|c| c.latency_ms.len() as u64).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// Each connection's median answers per second, summed.
    pub fn qps(&self) -> f64 {
        self.clients.iter().map(|c| median(&c.rates)).sum()
    }
}

/// The live server a window runs against.
pub struct Node<'a> {
    pub shape: &'a ServeShape,
    pub server: &'a ServeChild,
    pub sat: &'a SummedArea,
    pub stop: AtomicBool,
}

impl Node<'_> {
    /// Every analyst on its own connection for `duration`.
    pub fn window(
        &self,
        seed: u64,
        phase: u64,
        duration: Duration,
        traced: bool,
        spans: Option<&mut Spans>,
    ) -> Result<Window, String> {
        self.stop.store(false, Ordering::Release);
        let mut connections = Vec::new();
        for _ in 0..CLIENTS {
            connections.push(self.server.connect()?);
        }
        let epoch = spans.as_ref().map(|s| s.epoch());
        let (shape, sat, stop) = (self.shape, self.sat, &self.stop);
        let (clients, logs) = std::thread::scope(|scope| {
            let analysts: Vec<_> = connections
                .iter_mut()
                .enumerate()
                .map(|(k, conn)| {
                    scope.spawn(move || {
                        let mut rng = Rng::new(seed, 0xA0 + 16 * phase + k as u64);
                        let mut log = epoch.map(Spans::new);
                        client_loop(conn, shape, sat, &mut rng, stop, traced, log.as_mut())
                            .map(|r| (r, log))
                    })
                })
                .collect();
            std::thread::sleep(duration);
            stop.store(true, Ordering::Release);
            let mut clients = Vec::new();
            let mut logs = Vec::new();
            for a in analysts {
                let (report, log) =
                    a.join().map_err(|_| "analyst thread panicked".to_string())??;
                clients.push(report);
                logs.extend(log);
            }
            Ok::<_, String>((clients, logs))
        })?;
        if let Some(s) = spans {
            logs.into_iter().for_each(|l| s.merge(l));
        }
        Ok(Window { clients })
    }
}

/// The whole-cube query, checked against the mirror: if this misses, the
/// oracle is not looking at the server's cube and nothing else counts.
pub fn whole_cube_matches(
    server: &ServeChild,
    side: usize,
    sat: &SummedArea,
) -> Result<bool, String> {
    let ranges = vec![(0, side - 1), (0, side - 1)];
    let truth = sat.sum(&ranges);
    let outcome = server
        .connect()?
        .run_query(1, &QuerySpec::interactive(ranges))
        .map_err(|e| format!("whole-cube query: {e}"))?;
    Ok(outcome.kind == ProgressKind::Done && outcome.last.is_some_and(|r| close(r.estimate, truth)))
}

pub fn delta(after: &Snapshot, before: &Snapshot, name: &str) -> f64 {
    after.counter(name).saturating_sub(before.counter(name)) as f64
}
