//! Load generators. Each uses at most [`CLIENTS`] threads and
//! connections, and stops a request's clock when the last byte of
//! its response frame arrives. Responses are kept for the checks that
//! run after the clock stops.

use std::collections::VecDeque;
use std::io::{self, Read};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qcs_serve::{read_frame, write_frame, FrameDecoder};
use qcs_sys::{poll_fds, PollFd, POLLIN};

use crate::workload::Req;

/// Client threads and connections: the host's core count (2).
pub const CLIENTS: usize = 2;

/// How long the open-loop client waits for a response once nothing is
/// left to send, before it gives up on the run.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// One request as the client saw it.
pub struct Sample {
    /// The request's index into the plan's requests.
    pub req: usize,
    /// Open loop: when the schedule said to send it.
    pub scheduled: Option<Instant>,
    pub sent: Instant,
    /// When the last byte of the response frame arrived.
    pub done: Instant,
    /// The response frame payload; empty when the exchange failed.
    pub response: Vec<u8>,
}

impl Sample {
    /// Open loop from the scheduled send, closed loop from the send.
    pub fn latency(&self) -> Duration {
        self.done - self.scheduled.unwrap_or(self.sent)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> Option<Duration> {
        self.scheduled
            .map(|s| self.sent.saturating_duration_since(s))
    }
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

fn exchange(stream: &mut TcpStream, frame: &[u8]) -> io::Result<Vec<u8>> {
    write_frame(stream, frame)?;
    read_frame(stream)?.ok_or_else(|| io::Error::other("connection closed"))
}

/// The load generator's connections to the router, kept for a fleet's
/// whole life: the router serves each on its own thread with its own
/// pooled shard connections.
pub struct Clients {
    addr: SocketAddr,
    streams: Vec<TcpStream>,
}

impl Clients {
    pub fn connect(addr: SocketAddr) -> io::Result<Clients> {
        let streams = (0..CLIENTS)
            .map(|_| connect(addr))
            .collect::<io::Result<Vec<_>>>()?;
        Ok(Clients { addr, streams })
    }

    /// Sends `frame` on every connection at the same moment and waits
    /// for every reply.
    pub fn send_together(&mut self, frame: &[u8]) -> io::Result<()> {
        let barrier = std::sync::Barrier::new(self.streams.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .streams
                .iter_mut()
                .map(|stream| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        exchange(stream, frame).map(drop)
                    })
                })
                .collect();
            handles
                .into_iter()
                .try_for_each(|h| h.join().expect("client thread panicked"))
        })
    }
}

/// Closed loop: each client sends the next request of `sequence` once
/// its previous one is answered, until the sequence ends or `stop_at`
/// passes. A failed exchange is recorded with an empty response and the
/// client reconnects.
pub fn closed_loop(
    clients: &mut Clients,
    reqs: &[Req],
    sequence: &[usize],
    stop_at: Option<Instant>,
) -> Vec<Sample> {
    let next = AtomicUsize::new(0);
    let addr = clients.addr;
    let client = |stream: &mut TcpStream| {
        let mut samples = Vec::new();
        loop {
            if stop_at.is_some_and(|t| Instant::now() >= t) {
                break;
            }
            let pos = next.fetch_add(1, Ordering::SeqCst);
            let Some(&req) = sequence.get(pos) else { break };
            let sent = Instant::now();
            let reply = exchange(stream, &reqs[req].frame);
            let done = Instant::now();
            let response = reply.unwrap_or_else(|_| {
                if let Ok(fresh) = connect(addr) {
                    *stream = fresh;
                }
                Vec::new()
            });
            samples.push((
                pos,
                Sample {
                    req,
                    scheduled: None,
                    sent,
                    done,
                    response,
                },
            ));
        }
        samples
    };
    let mut all: Vec<(usize, Sample)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .streams
            .iter_mut()
            .map(|stream| scope.spawn(|| client(stream)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    });
    all.sort_by_key(|(pos, _)| *pos);
    all.into_iter().map(|(_, s)| s).collect()
}

/// Open loop: request `i` of `sequence` is due at `start + offsets[i]`
/// whatever happened to earlier requests. One client thread sends each
/// request when it is due, pipelined on whichever of its [`CLIENTS`]
/// connections has the fewest request bytes awaiting a response (a
/// small request avoids queueing behind a large one), and reads
/// responses while it waits for the next send.
pub fn open_loop(
    clients: &mut Clients,
    reqs: &[Req],
    sequence: &[usize],
    offsets: &[Duration],
    start: Instant,
) -> io::Result<Vec<Sample>> {
    let mut conns: Vec<Conn> = clients
        .streams
        .iter_mut()
        .map(|stream| Conn {
            stream,
            decoder: FrameDecoder::new(),
            pending: VecDeque::new(),
        })
        .collect();
    let mut out = Vec::with_capacity(sequence.len());
    let mut frames = Vec::new();
    let mut buf = vec![0u8; 256 * 1024];
    let mut next = 0;
    while next < sequence.len() || conns.iter().any(|c| !c.pending.is_empty()) {
        let now = Instant::now();
        let due = (next < sequence.len()).then(|| start + offsets[next]);
        if let Some(at) = due.filter(|&at| now >= at) {
            let conn = conns
                .iter_mut()
                .min_by_key(|c| {
                    c.pending
                        .iter()
                        .map(|p| reqs[p.1].frame.len())
                        .sum::<usize>()
                })
                .expect("at least one connection");
            write_frame(conn.stream, &reqs[sequence[next]].frame)?;
            conn.pending.push_back((next, sequence[next], at, now));
            next += 1;
            continue;
        }
        // poll(2) counts whole milliseconds, so the last one before a
        // send is spent polling without blocking.
        let wait = due.map_or(DRAIN_TIMEOUT, |at| {
            Duration::from_millis((at - now).as_millis() as u64)
        });
        let mut fds: Vec<PollFd> = conns
            .iter()
            .map(|c| PollFd::new(c.stream.as_raw_fd(), POLLIN))
            .collect();
        if poll_fds(&mut fds, Some(wait))? == 0 {
            if due.is_none() {
                return Err(io::Error::other("timed out waiting for responses"));
            }
            std::hint::spin_loop();
            continue;
        }
        for (conn, fd) in conns.iter_mut().zip(&fds) {
            if fd.revents() == 0 {
                continue;
            }
            let n = conn.stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::other("server closed the connection"));
            }
            let done = Instant::now();
            conn.decoder
                .feed(&buf[..n], &mut frames)
                .map_err(|e| io::Error::other(e.0))?;
            for response in frames.drain(..) {
                let (pos, req, at, sent) = conn
                    .pending
                    .pop_front()
                    .ok_or_else(|| io::Error::other("response without a request"))?;
                out.push((
                    pos,
                    Sample {
                        req,
                        scheduled: Some(at),
                        sent,
                        done,
                        response,
                    },
                ));
            }
        }
    }
    out.sort_by_key(|(pos, _)| *pos);
    Ok(out.into_iter().map(|(_, s)| s).collect())
}

/// One open-loop connection: its frame decoder and the requests sent
/// on it still awaiting a response, as (position, request, due, sent).
struct Conn<'a> {
    stream: &'a mut TcpStream,
    decoder: FrameDecoder,
    pending: VecDeque<(usize, usize, Instant, Instant)>,
}
