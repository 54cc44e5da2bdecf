//! The open-loop load generator: sends each request at its due time
//! whatever the server is doing, and times each from that due time.
//!
//! One thread drives every connection over nonblocking sockets. It
//! never blocks in the kernel: when nothing is due and nothing can be
//! read, it sleeps at most [`MAX_SLEEP`], so requests leave within
//! about that much of their due time. (Pacing with socket read
//! timeouts rounds every wait up to the kernel tick instead.) Responses
//! come back in request order per connection, which is how each is
//! matched to its request.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use hd_telemetry::{drain_frames, Response};

/// Longest sleep between passes.
pub const MAX_SLEEP: Duration = Duration::from_micros(20);

/// One scheduled request.
#[derive(Clone, Copy, Debug)]
pub struct Due<'a> {
    /// Due time, ns after the leg starts.
    pub at_ns: u64,
    /// The encoded frame.
    pub frame: &'a [u8],
    /// Caller's id for the request.
    pub tag: usize,
}

/// What the caller makes of a response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The request completed as expected.
    Done,
    /// The request was refused (NACK) and is sent again; its latency
    /// keeps counting from the original due time.
    Retry,
    /// The response was wrong; the request counts as failed.
    Failed,
}

/// One completed request.
#[derive(Clone, Copy, Debug)]
pub struct Completed {
    /// Connection index.
    pub conn: usize,
    /// Caller's id.
    pub tag: usize,
    /// Due time.
    pub due: Instant,
    /// When the response arrived.
    pub done: Instant,
    /// Whether the caller accepted the response.
    pub ok: bool,
}

impl Completed {
    /// Due time to response, ms.
    pub fn latency_ms(&self) -> f64 {
        self.done.saturating_duration_since(self.due).as_secs_f64() * 1e3
    }
}

/// Everything one open-loop leg measured.
#[derive(Debug, Default)]
pub struct LegOutcome {
    /// Completed requests in completion order.
    pub completed: Vec<Completed>,
    /// Send time minus due time of every first send, ms, per
    /// connection.
    pub lateness_ms: Vec<Vec<f64>>,
    /// Requests sent again after a NACK.
    pub retries: u64,
    /// Wall time from the leg's start to its last response.
    pub elapsed: Duration,
}

struct Inflight {
    tag: usize,
    due: Instant,
    frame_idx: usize,
}

struct Conn<'a> {
    stream: TcpStream,
    schedule: &'a [Due<'a>],
    next: usize,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    inflight: VecDeque<Inflight>,
}

impl Conn<'_> {
    fn idle(&self) -> bool {
        self.next == self.schedule.len() && self.inflight.is_empty()
    }
}

/// Connects one nonblocking stream per schedule and runs the leg until
/// every request has its response. Once `stop` is set, nothing more is
/// sent and the leg ends when what is in flight has its response.
/// `judge` sees each response with the connection index and the
/// request's tag. Fails with an I/O error if a connection breaks or the
/// leg overruns `limit`.
pub fn run_leg(
    addr: SocketAddr,
    schedules: &[Vec<Due<'_>>],
    limit: Duration,
    stop: Option<&AtomicBool>,
    mut judge: impl FnMut(usize, usize, &Response) -> Verdict,
) -> io::Result<LegOutcome> {
    let mut conns = Vec::with_capacity(schedules.len());
    for schedule in schedules {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        conns.push(Conn {
            stream,
            schedule,
            next: 0,
            wbuf: Vec::with_capacity(64 * 1024),
            wpos: 0,
            rbuf: Vec::with_capacity(64 * 1024),
            inflight: VecDeque::new(),
        });
    }
    let mut out = LegOutcome {
        lateness_ms: vec![Vec::new(); schedules.len()],
        ..LegOutcome::default()
    };
    let mut scratch = vec![0u8; 256 * 1024];
    let start = Instant::now();
    loop {
        let now = Instant::now();
        if now.duration_since(start) > limit {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                format!("open-loop leg overran {limit:?}"),
            ));
        }
        let mut progressed = false;
        let mut next_due: Option<Instant> = None;
        if stop.is_some_and(|s| s.load(Ordering::Acquire)) {
            for conn in &mut conns {
                conn.next = conn.schedule.len();
            }
        }
        for (ci, conn) in conns.iter_mut().enumerate() {
            while let Some(item) = conn.schedule.get(conn.next) {
                let due = start + Duration::from_nanos(item.at_ns);
                if due > now {
                    next_due = Some(next_due.map_or(due, |d: Instant| d.min(due)));
                    break;
                }
                conn.wbuf.extend_from_slice(item.frame);
                conn.inflight.push_back(Inflight {
                    tag: item.tag,
                    due,
                    frame_idx: conn.next,
                });
                out.lateness_ms[ci].push(now.duration_since(due).as_secs_f64() * 1e3);
                conn.next += 1;
                progressed = true;
            }
            while conn.wpos < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                    Ok(n) => {
                        conn.wpos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            if conn.wpos == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wpos = 0;
            }
            loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        if conn.inflight.is_empty() {
                            break;
                        }
                        return Err(io::ErrorKind::UnexpectedEof.into());
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&scratch[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            let responses = drain_frames::<Response>(&mut conn.rbuf)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
            if responses.is_empty() {
                continue;
            }
            let done = Instant::now();
            progressed = true;
            for (response, _) in responses {
                let Some(req) = conn.inflight.pop_front() else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "response with no request in flight",
                    ));
                };
                match judge(ci, req.tag, &response) {
                    Verdict::Retry => {
                        out.retries += 1;
                        conn.wbuf
                            .extend_from_slice(conn.schedule[req.frame_idx].frame);
                        conn.inflight.push_back(req);
                    }
                    verdict => out.completed.push(Completed {
                        conn: ci,
                        tag: req.tag,
                        due: req.due,
                        done,
                        ok: verdict == Verdict::Done,
                    }),
                }
            }
        }
        if conns.iter().all(Conn::idle) {
            out.elapsed = start.elapsed();
            return Ok(out);
        }
        if !progressed {
            let now = Instant::now();
            let wait = next_due.map_or(MAX_SLEEP, |d| d.saturating_duration_since(now));
            thread::sleep(wait.min(MAX_SLEEP));
        }
    }
}

/// Spreads `count` requests evenly at `rate` per second, starting one
/// interval in.
pub fn even_schedule(count: usize, rate: f64) -> impl Iterator<Item = u64> {
    let interval = 1e9 / rate;
    (1..=count).map(move |i| (i as f64 * interval) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use hd_telemetry::{encode_frame, Request, TelemetryServer, Uploader};

    #[test]
    fn lateness_against_an_idle_server_stays_within_a_millisecond() {
        let _quiet = crate::cpu_test_lock();
        let server = TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(1)
            .start()
            .unwrap();
        let addr = server.local_addr();
        let frame = encode_frame(&Request::Query { top_n: 1 });
        let schedule: Vec<Due> = even_schedule(1_500, 1_000.0)
            .enumerate()
            .map(|(tag, at_ns)| Due {
                at_ns,
                frame: &frame,
                tag,
            })
            .collect();
        let leg = run_leg(
            addr,
            &[schedule],
            Duration::from_secs(30),
            None,
            |_, _, r| match r {
                Response::Report(_) => Verdict::Done,
                _ => Verdict::Failed,
            },
        )
        .unwrap();
        Uploader::plain(addr).shutdown().unwrap();
        server.join();
        assert_eq!(leg.completed.len(), 1_500);
        assert!(leg.completed.iter().all(|c| c.ok));
        assert_eq!(leg.lateness_ms[0].len(), 1_500);
        let late50 = percentile(&leg.lateness_ms[0], 0.5).unwrap().value;
        let late99 = percentile(&leg.lateness_ms[0], 0.99).unwrap().value;
        // Socket-timeout pacing lands near the 4-10 ms kernel tick;
        // short sleeps keep the generator well inside 1 ms.
        assert!(late50 < 1.0, "lateness p50 {late50} ms");
        assert!(late99 < 5.0, "lateness p99 {late99} ms");
        // Each request is timed from its due time.
        assert!(leg.completed.iter().all(|c| c.done >= c.due));
        assert!(leg.elapsed >= Duration::from_millis(1_500));
    }

    #[test]
    fn a_stopped_leg_sends_nothing_more() {
        let server = TelemetryServer::builder()
            .addr("127.0.0.1:0")
            .shards(1)
            .start()
            .unwrap();
        let addr = server.local_addr();
        let frame = encode_frame(&Request::Query { top_n: 1 });
        let schedule: Vec<Due> = even_schedule(100, 1_000.0)
            .enumerate()
            .map(|(tag, at_ns)| Due {
                at_ns,
                frame: &frame,
                tag,
            })
            .collect();
        let stop = AtomicBool::new(true);
        let leg = run_leg(
            addr,
            &[schedule],
            Duration::from_secs(30),
            Some(&stop),
            |_, _, _| Verdict::Done,
        )
        .unwrap();
        Uploader::plain(addr).shutdown().unwrap();
        server.join();
        assert!(leg.completed.is_empty());
        assert!(leg.lateness_ms[0].is_empty());
    }

    #[test]
    fn even_schedule_spaces_requests() {
        let at: Vec<u64> = even_schedule(4, 1_000.0).collect();
        assert_eq!(at, vec![1_000_000, 2_000_000, 3_000_000, 4_000_000]);
    }
}
