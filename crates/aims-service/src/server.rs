//! TCP front-end: one listener, a reader and a writer thread per
//! connection, one [`QueryService`] (and its scheduler thread) shared
//! across all of them — `2 × connections + constant` threads at any query
//! rate.
//!
//! The reader demultiplexes client frames: SUBMIT goes through the
//! service's admission path (a rejection comes back as a typed REJECT
//! frame, never a dropped connection), CANCEL flips the session's cancel
//! flag — the scheduler stops fetching its blocks — and SHUTDOWN answers
//! GOODBYE and stops the listener. Every session of the connection sends
//! its updates into one channel, drained by the writer thread. A write
//! that fails or times out means the client is gone: its sessions are
//! cancelled and the connection closes.

use std::collections::hash_map::{Entry, HashMap};
use std::io::{self, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use aims_storage::device::BlockDevice;
use aims_telemetry::{counter, global};

use crate::error::ServiceError;
use crate::service::QueryService;
use crate::session::{QuerySpec, SessionShared, Update};
use crate::wire::{read_frame, write_frame, Frame};

/// How often a blocked read wakes up to check the stop flag, and a blocked
/// write its frame's deadline.
const POLL: Duration = Duration::from_millis(25);
/// How long writing one frame may take before the peer counts as gone. A
/// client that merely falls behind meets the scheduler's per-session
/// outbox cap first; this fires once the kernel's buffers are full.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// A running TCP front-end. Dropping it stops the listener and joins
/// every connection.
pub struct Server {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0`) and starts serving `service`.
    pub fn spawn<D: BlockDevice + Send + Sync + 'static>(
        service: Arc<QueryService<D>>,
        addr: &str,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let accept = std::thread::Builder::new()
            .name("aims-serve-accept".into())
            .spawn(move || accept_loop(listener, service, stop2))?;
        Ok(Server { local_addr, stop, accept: Some(accept) })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.local_addr.port()
    }

    /// Signals the listener to stop accepting and connections to wind
    /// down.
    pub fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Blocks until the accept loop (and every connection it spawned)
    /// has exited — either via [`Server::stop`] or a client SHUTDOWN
    /// frame.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            h.join().expect("accept loop panicked");
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
        if let Some(h) = self.accept.take() {
            h.join().ok();
        }
    }
}

fn accept_loop<D: BlockDevice + Send + Sync + 'static>(
    listener: TcpListener,
    service: Arc<QueryService<D>>,
    stop: Arc<AtomicBool>,
) {
    let connections_counter = counter!("service.net.connections");
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    let reap = |h: JoinHandle<()>| {
        if h.join().is_err() {
            eprintln!("aims-serve: connection thread panicked");
        }
    };
    while !stop.load(Ordering::SeqCst) {
        // A finished connection is reaped as it ends, not at shutdown.
        workers.extract_if(.., |h| h.is_finished()).for_each(reap);
        match listener.accept() {
            Ok((stream, _)) => {
                connections_counter.inc();
                let service = Arc::clone(&service);
                let stop = Arc::clone(&stop);
                let handle =
                    std::thread::Builder::new().name("aims-serve-conn".into()).spawn(move || {
                        if let Err(e) = serve_connection(stream, &service, &stop) {
                            counter!("service.net.conn_errors").inc();
                            // Disconnects are routine; log only real faults.
                            use ErrorKind::{BrokenPipe, ConnectionReset, UnexpectedEof};
                            if !matches!(e.kind(), UnexpectedEof | BrokenPipe | ConnectionReset) {
                                eprintln!("aims-serve: connection error: {e}");
                            }
                        }
                    });
                match handle {
                    Ok(h) => workers.push(h),
                    Err(e) => eprintln!("aims-serve: failed to spawn connection thread: {e}"),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(e) => {
                eprintln!("aims-serve: accept error: {e}");
                break;
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    workers.into_iter().for_each(reap);
}

/// A socket's read half, woken every [`POLL`] to look at the stop flag,
/// which it reports as an end of stream.
struct UntilStopped<'a> {
    socket: &'a TcpStream,
    stop: &'a AtomicBool,
    /// No byte of a frame has arrived yet: an end of stream now is a clean
    /// goodbye, later a truncated frame.
    idle: bool,
}

impl Read for UntilStopped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.socket.read(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if self.stop.load(Ordering::SeqCst) {
                        return Ok(0);
                    }
                }
                Ok(n) => {
                    self.idle &= n == 0;
                    return Ok(n);
                }
                Err(e) => return Err(e),
            }
        }
    }
}

/// Reads one frame; `Ok(None)` on clean disconnect or stop.
fn read_frame_polled(socket: &TcpStream, stop: &AtomicBool) -> io::Result<Option<Frame>> {
    let mut polled = UntilStopped { socket, stop, idle: true };
    match read_frame(&mut polled) {
        Ok(frame) => Ok(Some(frame)),
        Err(ServiceError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof && polled.idle => Ok(None),
        Err(ServiceError::Io(e)) => Err(e),
        Err(e) => Err(io::Error::new(ErrorKind::InvalidData, e.to_string())),
    }
}

/// A socket's write half under one frame's deadline. The socket's own
/// write timeout ([`POLL`]) bounds one wait, not a frame: a peer that
/// stopped reading still lets a few bytes through as the kernel squeezes
/// its full buffers, and each such partial write starts the wait afresh.
struct Until<'a>(&'a TcpStream, Instant);

impl Write for Until<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        loop {
            if Instant::now() >= self.1 {
                return Err(ErrorKind::TimedOut.into());
            }
            match self.0.write(buf) {
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                done => return done,
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// What a connection's reader and writer threads share.
struct Connection {
    /// The socket's write half. The writer takes it for every session
    /// frame, the reader for its own replies (REJECT, METRICS_REPLY,
    /// GOODBYE), written synchronously: a reply not yet written is a
    /// request not yet read, so a peer that stops reading stops being
    /// served.
    socket: Mutex<TcpStream>,
    /// In-flight sessions by request id: entered at SUBMIT, dropped as
    /// the terminal frame is written. An id names one session at a time —
    /// a SUBMIT reusing one that is still in flight is refused — so every
    /// removal by id removes the session it means to.
    sessions: Mutex<HashMap<u64, Arc<SessionShared>>>,
}

impl Connection {
    fn sessions(&self) -> MutexGuard<'_, HashMap<u64, Arc<SessionShared>>> {
        self.sessions.lock().expect("a connection thread panicked")
    }

    /// Writes one frame. A failed or timed-out write means the client is
    /// gone: the socket is shut down — the reader wakes, later writes fail
    /// at once — and every session of the connection is cancelled.
    fn send(&self, frame: &Frame) -> io::Result<()> {
        let socket = self.socket.lock().expect("a connection thread panicked");
        write_frame(&mut Until(&socket, Instant::now() + WRITE_TIMEOUT), frame).map_err(|e| {
            let _ = socket.shutdown(Shutdown::Both);
            self.cancel_all();
            match e {
                ServiceError::Io(io) => io,
                other => io::Error::other(other.to_string()),
            }
        })
    }

    fn cancel_all(&self) {
        for session in self.sessions().values() {
            session.cancel.store(true, Ordering::SeqCst);
        }
    }

    /// Writes one session update as its frame. The channel is the buffer
    /// here, and the scheduler caps each session's share of it: a stalled
    /// peer leaves updates undelivered, the session's outbox fills, and
    /// the scheduler drops further intermediate refinements
    /// (`service.backpressure.dropped_progress`) rather than buffering
    /// without bound. Terminal frames are never dropped.
    fn write_update(&self, req_id: u64, update: Update) -> io::Result<()> {
        if update.is_terminal() {
            self.sessions().remove(&req_id);
        } else if let Some(session) = self.sessions().get(&req_id) {
            session.release(&update);
        }
        self.send(&match update {
            Update::Progress { kind, refinement: r } => Frame::Progress {
                req_id,
                kind,
                round: r.round,
                used: r.coefficients_used as u64,
                total: r.total_coefficients as u64,
                estimate: r.estimate,
                bound: r.error_bound,
                tier: r.tier,
            },
            Update::Profile(profile) => Frame::Profile { req_id, profile: *profile },
        })
    }

    /// Acts on one client frame; `Ok(false)` once the client asked the
    /// server to shut down (`stop` is then set). `updates` is the
    /// connection's channel to its writer thread.
    fn handle<D: BlockDevice + Send + Sync + 'static>(
        &self,
        frame: Frame,
        service: &QueryService<D>,
        updates: &Sender<(u64, Update)>,
        stop: &AtomicBool,
    ) -> io::Result<bool> {
        match frame {
            Frame::Submit { req_id, priority, deadline_ms, ranges, trace } => {
                let spec = QuerySpec {
                    ranges: ranges.iter().map(|&(lo, hi)| (lo as usize, hi as usize)).collect(),
                    priority,
                    deadline: (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms)),
                    trace,
                };
                // Entered before admission: the terminal frame may reach
                // the writer before `submit_tagged` returns.
                let entered = match self.sessions().entry(req_id) {
                    Entry::Occupied(_) => None,
                    Entry::Vacant(slot) => Some(Arc::clone(slot.insert(Arc::default()))),
                };
                let refused = match entered {
                    Some(session) => {
                        let cohort = vec![(spec, req_id, updates.clone(), session)];
                        let refused = service.submit_tagged(cohort).err();
                        if refused.is_some() {
                            self.sessions().remove(&req_id);
                        }
                        refused
                    }
                    None => {
                        counter!("service.rejected").inc();
                        let why = format!("request id {req_id} is still in flight");
                        Some(ServiceError::Protocol(why))
                    }
                };
                if let Some(e) = refused {
                    let detail = match &e {
                        ServiceError::QueueFull { capacity } => *capacity as u32,
                        _ => 0,
                    };
                    self.send(&Frame::Reject {
                        req_id,
                        code: e.code(),
                        detail,
                        message: e.to_string(),
                    })?;
                }
            }
            Frame::Cancel { req_id } => {
                if let Some(session) = self.sessions().get(&req_id) {
                    session.cancel.store(true, Ordering::SeqCst);
                }
            }
            Frame::MetricsRequest => {
                // Registry snapshot plus one session line per live query
                // — structured JSON; clients render tables themselves.
                let mut json = global().snapshot().to_json_lines();
                json.push_str(&service.sessions_json_lines());
                self.send(&Frame::MetricsReply { json })?;
            }
            Frame::Shutdown => {
                let _ = self.send(&Frame::Goodbye);
                stop.store(true, Ordering::SeqCst);
                return Ok(false);
            }
            // Server-bound frames only; a client sending server frames is
            // violating the protocol.
            other => {
                return Err(io::Error::new(
                    ErrorKind::InvalidData,
                    format!("client sent server-only frame {other:?}"),
                ));
            }
        }
        Ok(true)
    }
}

/// The reader thread of one connection; spawns and joins its writer.
fn serve_connection<D: BlockDevice + Send + Sync + 'static>(
    stream: TcpStream,
    service: &QueryService<D>,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(POLL))?;
    stream.set_write_timeout(Some(POLL))?;
    let conn = &Connection { socket: Mutex::new(stream.try_clone()?), sessions: Mutex::default() };
    let (updates, outbox) = mpsc::channel();
    std::thread::scope(|scope| {
        // The writer: every update of every session, in the order the
        // scheduler produced them, until the last sender is gone (the
        // reader has left and every session has ended) or a write fails.
        let writer = std::thread::Builder::new()
            .name("aims-serve-write".into())
            .spawn_scoped(scope, move || {
                outbox.into_iter().try_for_each(|(id, update)| conn.write_update(id, update))
            })?;
        let read = loop {
            let served = read_frame_polled(&stream, stop).and_then(|frame| match frame {
                Some(frame) => conn.handle(frame, service, &updates, stop),
                None => Ok(false),
            });
            match served {
                Ok(true) => {}
                Ok(false) => break Ok(()),
                Err(e) => break Err(e),
            }
        };
        // A vanished client must not leak running queries.
        if read.is_err() || stop.load(Ordering::SeqCst) {
            conn.cancel_all();
        }
        // The writer drains what the connection's sessions still send —
        // each ends in a terminal frame — and leaves with the last of them.
        drop(updates);
        read.and(writer.join().expect("connection writer panicked"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Priority;
    use crate::demo::demo_cube;
    use crate::service::ServiceConfig;
    use crate::wire::ProgressKind;

    /// A connection over a loopback socket pair, and the peer's end of it.
    fn connection() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (socket, _) = listener.accept().unwrap();
        (Connection { socket: Mutex::new(socket), sessions: Mutex::default() }, peer)
    }

    fn submit(req_id: u64, ranges: &[(u64, u64)]) -> Frame {
        let (priority, ranges) = (Priority::Interactive, ranges.to_vec());
        Frame::Submit { req_id, priority, deadline_ms: 0, ranges, trace: false }
    }

    /// The per-connection table holds a session from its SUBMIT to its
    /// terminal frame and not a frame longer: a query that finishes, a
    /// CANCEL that lands and a REJECT each leave it empty, a reused id
    /// never displaces the session that holds it, and every outbox slot a
    /// written progress frame held is given back.
    #[test]
    fn the_session_table_holds_only_in_flight_sessions() {
        // Slow rounds: the second query is still in flight when its CANCEL
        // arrives.
        let config = ServiceConfig {
            round_blocks: 1,
            round_pause: Duration::from_millis(5),
            ..ServiceConfig::default()
        };
        let service = QueryService::new(demo_cube(32, 41), 16, config);
        let (conn, peer) = connection();
        let stop = AtomicBool::new(false);
        let (updates, outbox) = mpsc::channel::<(u64, Update)>();
        // Plays the writer thread up to `req_id`'s terminal frame, which
        // it returns as the peer received it.
        let write_through = |req_id: u64| loop {
            let (tag, update) = outbox.recv().unwrap();
            assert_eq!(tag, req_id);
            let terminal = update.is_terminal();
            assert_eq!(conn.sessions().len(), 1, "in flight until the terminal frame is written");
            conn.write_update(tag, update).unwrap();
            match read_frame(&mut &peer).unwrap() {
                Frame::Progress { req_id: got, kind, .. } if terminal => break (got, kind),
                frame => assert!(matches!(frame, Frame::Progress { .. }), "{frame:?}"),
            }
        };

        assert!(conn.handle(submit(1, &[(0, 31), (0, 31)]), &service, &updates, &stop).unwrap());
        let session = Arc::clone(&conn.sessions()[&1]);
        assert_eq!(write_through(1), (1, ProgressKind::Done));
        assert!(conn.sessions().is_empty(), "a terminal frame drops the session");
        assert_eq!(session.pending.load(Ordering::SeqCst), 0, "every outbox slot given back");

        assert!(conn.handle(submit(2, &[(1, 30), (2, 29)]), &service, &updates, &stop).unwrap());
        // Its id cannot name a second session meanwhile: the reuse is
        // refused and the entry, hence CANCEL's route, stays the first's.
        let session = Arc::clone(&conn.sessions()[&2]);
        assert!(conn.handle(submit(2, &[(0, 31), (0, 31)]), &service, &updates, &stop).unwrap());
        assert!(matches!(
            read_frame(&mut &peer).unwrap(),
            Frame::Reject { req_id: 2, code: 4, .. }
        ));
        assert!(Arc::ptr_eq(&session, &conn.sessions()[&2]));
        assert!(conn.handle(Frame::Cancel { req_id: 2 }, &service, &updates, &stop).unwrap());
        assert!(session.cancel.load(Ordering::SeqCst));
        assert_eq!(write_through(2), (2, ProgressKind::Cancelled));
        assert!(conn.sessions().is_empty(), "a CANCEL that lands drops the session");

        assert!(conn.handle(submit(3, &[(0, 31)]), &service, &updates, &stop).unwrap());
        assert!(matches!(
            read_frame(&mut &peer).unwrap(),
            Frame::Reject { req_id: 3, code: 3, .. }
        ));
        assert!(conn.sessions().is_empty(), "a REJECT never enters it");
        assert!(outbox.try_recv().is_err());
    }
}
