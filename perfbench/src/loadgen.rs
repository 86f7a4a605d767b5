//! The open-loop driver: a seeded Poisson arrival schedule at a fixed
//! absolute rate, sent over a [`Transport`] by at most one sender thread
//! per lane, with every reply timed from its request's *scheduled* send.
//!
//! Two transports share the driver: [`Tcp`] (a `deepod serve --listen`
//! process, through [`ServeClient`]) and [`InProcess`] (an
//! [`InferenceEngine`] driven through the same decode/submit/render path
//! the TCP front end runs). Because both run the same schedule, their
//! latencies at one offered rate can be subtracted.

use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use deepod_serve::client::{ClientReceiver, ClientSender};
use deepod_serve::net::{self, Admission, Submission};
use deepod_serve::{ErrorKind, InferenceEngine, ServeClient, WireRequest, WireResponse};
use deepod_traj::CityDataset;
use rand::Rng;

use crate::stats;

/// Due times (offsets from the phase start) of `count` Poisson arrivals
/// at `rate` per second. The same `(rate, count, seed)` always yields the
/// same schedule.
pub fn poisson_schedule(rate: f64, count: usize, seed: u64) -> Vec<Duration> {
    let mut rng = deepod_tensor::rng_from_seed(seed);
    let mut t = 0.0f64;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

/// One reply frame as the client saw it.
#[derive(Clone, Debug)]
pub struct Reply {
    /// Correlation id, when the frame carried one.
    pub id: Option<u64>,
    /// The frame in its canonical wire encoding.
    pub line: String,
    /// `true` for an answered (non-error) frame.
    pub ok: bool,
    /// `true` for a typed load-shedding refusal (queue full, overloaded,
    /// per-connection in-flight or connection cap): a legitimate answer
    /// under overload that still counts as a failed request.
    pub refused: bool,
}

impl Reply {
    /// The client's view of one response frame.
    pub fn of(resp: &WireResponse) -> Reply {
        let refused = match resp {
            WireResponse::Err { error, .. } => matches!(
                error.kind,
                ErrorKind::QueueFull
                    | ErrorKind::ShedLow
                    | ErrorKind::Overloaded
                    | ErrorKind::InFlightLimit
                    | ErrorKind::ConnectionLimit
            ),
            WireResponse::Ok { .. } => false,
        };
        Reply {
            id: resp.id(),
            line: resp.to_line(),
            ok: resp.is_ok(),
            refused,
        }
    }
}

/// The sending half of one lane (one connection).
pub trait LaneSend: Send {
    /// Sends one request frame.
    fn send(&mut self, req: &WireRequest) -> io::Result<()>;
    /// Ends the request stream; the peer answers what it owes and then
    /// ends the reply stream.
    fn close(self: Box<Self>) -> io::Result<()>;
}

/// The receiving half of one lane.
pub trait LaneRecv: Send {
    /// The next reply; `None` once the reply stream has ended or nothing
    /// arrived within the lane's drain timeout.
    fn recv(&mut self) -> io::Result<Option<Reply>>;
}

/// Something the driver can open lanes to.
pub trait Transport: Sync {
    /// Opens one lane. `drain` bounds how long the receiver waits for a
    /// reply before treating the rest as lost.
    fn open(&self, drain: Duration) -> io::Result<(Box<dyn LaneSend>, Box<dyn LaneRecv>)>;
}

/// A `deepod serve --listen` endpoint, driven through [`ServeClient`].
pub struct Tcp {
    /// The server's bound address.
    pub addr: SocketAddr,
}

impl Transport for Tcp {
    fn open(&self, drain: Duration) -> io::Result<(Box<dyn LaneSend>, Box<dyn LaneRecv>)> {
        let (tx, mut rx) = ServeClient::connect(self.addr)?.split();
        rx.set_read_timeout(Some(drain))?;
        Ok((Box::new(tx), Box::new(rx)))
    }
}

impl LaneSend for ClientSender {
    fn send(&mut self, req: &WireRequest) -> io::Result<()> {
        ClientSender::send(self, req)
    }

    fn close(self: Box<Self>) -> io::Result<()> {
        self.finish()
    }
}

impl LaneRecv for ClientReceiver {
    fn recv(&mut self) -> io::Result<Option<Reply>> {
        match ClientReceiver::recv(self) {
            Ok(resp) => Ok(Some(Reply::of(&resp))),
            Err(e) => match e.kind() {
                io::ErrorKind::UnexpectedEof
                | io::ErrorKind::WouldBlock
                | io::ErrorKind::TimedOut => Ok(None),
                _ => Err(e),
            },
        }
    }
}

/// An in-process [`InferenceEngine`], fed through the TCP front end's own
/// per-line path ([`net::process_line`] with shedding admission, replies
/// rendered by [`net::render_reply`] in submission order) minus sockets.
pub struct InProcess {
    /// The engine under test.
    pub engine: Arc<InferenceEngine>,
    /// The dataset requests are decoded against.
    pub ds: Arc<CityDataset>,
}

struct EngineSend {
    engine: Arc<InferenceEngine>,
    ds: Arc<CityDataset>,
    out: mpsc::Sender<Submission>,
}

struct EngineRecv {
    rx: mpsc::Receiver<Submission>,
    drain: Duration,
}

impl Transport for InProcess {
    fn open(&self, drain: Duration) -> io::Result<(Box<dyn LaneSend>, Box<dyn LaneRecv>)> {
        let (out, rx) = mpsc::channel();
        let send = EngineSend {
            engine: Arc::clone(&self.engine),
            ds: Arc::clone(&self.ds),
            out,
        };
        Ok((Box::new(send), Box::new(EngineRecv { rx, drain })))
    }
}

impl LaneSend for EngineSend {
    fn send(&mut self, req: &WireRequest) -> io::Result<()> {
        let line = req.to_line();
        let Some(item) = net::process_line(&self.engine, &self.ds, &line, Admission::Shed) else {
            return Ok(());
        };
        self.out
            .send(item)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "reply reader gone"))
    }

    fn close(self: Box<Self>) -> io::Result<()> {
        Ok(())
    }
}

impl LaneRecv for EngineRecv {
    fn recv(&mut self) -> io::Result<Option<Reply>> {
        let line = match self.rx.recv_timeout(self.drain) {
            Ok(Submission::Ready(line)) => line,
            Ok(Submission::Pending(id, handle)) => net::render_reply(id, handle.recv()),
            Err(_) => return Ok(None),
        };
        let resp = WireResponse::parse(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        Ok(Some(Reply::of(&resp)))
    }
}

/// One scheduled request and what became of it. Times are seconds from
/// the phase start.
#[derive(Clone, Debug)]
pub struct Sample {
    /// When the schedule said to send it.
    pub due: f64,
    /// When the sender actually sent it.
    pub sent: f64,
    /// When its reply arrived; `None` if it never did.
    pub done: Option<f64>,
    /// Whether the reply was an answer rather than an error frame.
    pub ok: bool,
}

impl Sample {
    /// Latency from the scheduled send to the reply, in milliseconds.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done.map(|d| (d - self.due) * 1e3)
    }
}

/// Everything one phase produced.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// One entry per scheduled request, in schedule order.
    pub samples: Vec<Sample>,
    /// Every reply frame received, in arrival order per lane.
    pub replies: Vec<Reply>,
}

/// Summary statistics of a phase.
#[derive(Clone, Copy, Debug)]
pub struct PhaseStats {
    /// Requests scheduled.
    pub attempted: usize,
    /// Requests answered with an error frame, or never answered.
    pub failed: usize,
    /// Median latency of answered requests, ms.
    pub p50_ms: Option<f64>,
    /// p99 latency of answered requests, ms (`None` when fewer than ten
    /// samples lie beyond it).
    pub p99_ms: Option<f64>,
    /// p99 of send lateness (actual minus scheduled send), ms.
    pub lateness_p99_ms: Option<f64>,
    /// p90 latency of the last quarter of the schedule, ms: a backlog
    /// that grows through the phase shows here first.
    pub tail_quarter_p90_ms: Option<f64>,
}

impl PhaseResult {
    /// Summarises the phase.
    pub fn stats(&self) -> PhaseStats {
        let lat = stats::sorted(
            self.samples
                .iter()
                .filter(|s| s.ok)
                .filter_map(Sample::latency_ms),
        );
        let late = stats::sorted(self.samples.iter().map(|s| (s.sent - s.due) * 1e3));
        let quarter = self.samples.len() - self.samples.len() / 4;
        let last = stats::sorted(
            self.samples[quarter..]
                .iter()
                .map(|s| if s.ok { s.latency_ms() } else { None }.unwrap_or(f64::INFINITY)),
        );
        PhaseStats {
            attempted: self.samples.len(),
            failed: self.samples.iter().filter(|s| !s.ok).count(),
            p50_ms: stats::nearest_rank(&lat, 50.0),
            p99_ms: stats::tail(&lat, 99.0),
            lateness_p99_ms: stats::nearest_rank(&late, 99.0),
            tail_quarter_p90_ms: stats::nearest_rank(&last, 90.0),
        }
    }
}

/// Runs one open-loop phase: request `i` of `requests` goes out on lane
/// `i % lanes` at `start + due[i]`, whatever the replies are doing. Each
/// lane has one sender thread and one reply-reader thread; the phase ends
/// when every lane's reply stream has ended.
pub fn run_phase(
    transport: &dyn Transport,
    lanes: usize,
    due: &[Duration],
    requests: &[WireRequest],
    drain: Duration,
) -> io::Result<PhaseResult> {
    assert_eq!(due.len(), requests.len(), "one due time per request");
    let lanes = lanes.max(1);
    let opened: Vec<_> = (0..lanes)
        .map(|_| transport.open(drain))
        .collect::<io::Result<_>>()?;
    // A short lead so every sender is parked before the first due time.
    let start = Instant::now() + Duration::from_millis(5);
    let since = |t: Instant| t.saturating_duration_since(start).as_secs_f64();
    let mut sent = vec![f64::NAN; requests.len()];
    let mut replies: Vec<(Reply, f64)> = Vec::new();
    std::thread::scope(|scope| -> io::Result<()> {
        let mut senders = Vec::new();
        let mut readers = Vec::new();
        for (lane, (mut tx, mut rx)) in opened.into_iter().enumerate() {
            senders.push(scope.spawn(move || -> io::Result<Vec<(usize, f64)>> {
                let mut times = Vec::new();
                for i in (lane..requests.len()).step_by(lanes) {
                    let at = start + due[i];
                    let now = Instant::now();
                    if at > now {
                        std::thread::sleep(at - now);
                    }
                    times.push((i, since(Instant::now())));
                    tx.send(&requests[i])?;
                }
                tx.close()?;
                Ok(times)
            }));
            readers.push(scope.spawn(move || -> io::Result<Vec<(Reply, f64)>> {
                let mut got = Vec::new();
                while let Some(reply) = rx.recv()? {
                    got.push((reply, since(Instant::now())));
                }
                Ok(got)
            }));
        }
        for handle in senders {
            for (i, t) in join(handle)? {
                sent[i] = t;
            }
        }
        for handle in readers {
            replies.extend(join(handle)?);
        }
        Ok(())
    })?;

    let index: std::collections::HashMap<u64, usize> = requests
        .iter()
        .enumerate()
        .map(|(i, r)| (r.id, i))
        .collect();
    let mut samples: Vec<Sample> = due
        .iter()
        .zip(&sent)
        .map(|(d, &s)| Sample {
            due: d.as_secs_f64(),
            sent: s,
            done: None,
            ok: false,
        })
        .collect();
    for (reply, at) in &replies {
        // The first reply for an id times it; duplicates are left for the
        // checker to reject.
        if let Some(s) = reply
            .id
            .and_then(|id| index.get(&id))
            .map(|&i| &mut samples[i])
        {
            if s.done.is_none() {
                s.done = Some(*at);
                s.ok = reply.ok;
            }
        }
    }
    Ok(PhaseResult {
        samples,
        replies: replies.into_iter().map(|(r, _)| r).collect(),
    })
}

fn join<T>(handle: std::thread::ScopedJoinHandle<'_, io::Result<T>>) -> io::Result<T> {
    handle
        .join()
        .map_err(|_| io::Error::other("load generator thread panicked"))?
}

/// What a capacity probe must meet at an offered rate.
#[derive(Clone, Copy, Debug)]
pub struct Slo {
    /// Percentile the latency limit applies to.
    pub pct: f64,
    /// Latency limit at that percentile, ms.
    pub limit_ms: f64,
    /// Least share of requests that must be answered.
    pub min_ok_frac: f64,
}

impl Slo {
    /// Requests a probe must send for the percentile to be supported.
    pub fn min_samples(&self) -> usize {
        stats::min_samples_for(self.pct)
    }

    /// Whether a probe phase met the objective: the tail latency is
    /// within the limit, enough requests were answered, and the backlog
    /// did not grow (the last quarter's p90 is within the limit too).
    pub fn met_by(&self, phase: &PhaseResult) -> bool {
        let st = phase.stats();
        if st.attempted == 0 {
            return false;
        }
        let lat = stats::sorted(
            phase
                .samples
                .iter()
                .filter(|s| s.ok)
                .filter_map(Sample::latency_ms),
        );
        let ok_frac = 1.0 - st.failed as f64 / st.attempted as f64;
        let tail_ok = stats::tail(&lat, self.pct).is_some_and(|v| v <= self.limit_ms);
        let backlog_ok = st.tail_quarter_p90_ms.is_some_and(|v| v <= self.limit_ms);
        tail_ok && backlog_ok && ok_frac >= self.min_ok_frac
    }
}

/// The fixed absolute rate ladder the capacity search walks: rung `k` is
/// `base * 2^(k/2)` requests per second, for `k` in `0..rungs`.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    /// Rate of rung 0, requests per second.
    pub base: f64,
    /// Number of rungs.
    pub rungs: usize,
    /// Rung the search starts from.
    pub start: usize,
    /// Bisection stops once the bracket's ratio is at most `1 + resolution`.
    pub resolution: f64,
}

impl Ladder {
    /// Rate of rung `k`.
    pub fn rate(&self, k: usize) -> f64 {
        self.base * 2f64.powf(k as f64 / 2.0)
    }
}

/// Highest rate that passes `probe`, searched on `ladder` and refined by
/// geometric bisection. The ladder is fixed, never derived from the
/// system under test. Returns `0` when even rung 0 fails, and the top
/// rung when every rung passes. Also returns every `(rate, passed)` probe
/// in order.
pub fn search_capacity(
    ladder: &Ladder,
    mut probe: impl FnMut(f64) -> io::Result<bool>,
) -> io::Result<(f64, Vec<(f64, bool)>)> {
    let mut trail = Vec::new();
    let mut run = |rate: f64, trail: &mut Vec<(f64, bool)>| -> io::Result<bool> {
        let pass = probe(rate)?;
        trail.push((rate, pass));
        Ok(pass)
    };
    let top = ladder.rungs.max(1) - 1;
    let mut k = ladder.start.min(top);
    let (mut lo, mut hi);
    if run(ladder.rate(k), &mut trail)? {
        lo = ladder.rate(k);
        loop {
            if k == top {
                return Ok((lo, trail));
            }
            k += 1;
            if run(ladder.rate(k), &mut trail)? {
                lo = ladder.rate(k);
            } else {
                hi = ladder.rate(k);
                break;
            }
        }
    } else {
        hi = ladder.rate(k);
        loop {
            if k == 0 {
                return Ok((0.0, trail));
            }
            k -= 1;
            if run(ladder.rate(k), &mut trail)? {
                lo = ladder.rate(k);
                break;
            }
            hi = ladder.rate(k);
        }
    }
    while hi / lo > 1.0 + ladder.resolution {
        let mid = (lo * hi).sqrt();
        if run(mid, &mut trail)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok((lo, trail))
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepod_serve::protocol::render_ok;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let a = poisson_schedule(250.0, 2000, 7);
        let b = poisson_schedule(250.0, 2000, 7);
        let c = poisson_schedule(250.0, 2000, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "due times ascend");
        // 2000 arrivals at 250/s span about 8 s.
        let span = a.last().expect("non-empty").as_secs_f64();
        assert!((7.0..9.0).contains(&span), "span {span}");
    }

    #[test]
    fn search_brackets_a_known_capacity_on_a_pure_probe() {
        let ladder = Ladder {
            base: 25.0,
            rungs: 20,
            start: 8,
            resolution: 0.05,
        };
        for cap in [30.0, 333.0, 1234.0, 5000.0] {
            let (found, trail) = search_capacity(&ladder, |r| Ok(r <= cap)).expect("pure probe");
            assert!(
                found <= cap && found >= cap / 1.05,
                "cap {cap}: found {found}"
            );
            // At most the rungs walked plus three bisections.
            assert!(trail.len() <= 13, "cap {cap}: {} probes", trail.len());
        }
        let (none, _) = search_capacity(&ladder, |_| Ok(false)).expect("pure probe");
        assert_eq!(none, 0.0);
        let (all, _) = search_capacity(&ladder, |_| Ok(true)).expect("pure probe");
        assert_eq!(all, ladder.rate(19));
    }

    /// One FIFO server per lane with a fixed service time: capacity is
    /// exactly `1 / service` per lane.
    struct FakeServer {
        service: Duration,
    }

    struct FakeSend(mpsc::Sender<(u64, Instant)>);

    struct FakeRecv {
        rx: mpsc::Receiver<(u64, Instant)>,
        service: Duration,
        free_at: Instant,
    }

    impl Transport for FakeServer {
        fn open(&self, _drain: Duration) -> io::Result<(Box<dyn LaneSend>, Box<dyn LaneRecv>)> {
            let (tx, rx) = mpsc::channel();
            let recv = FakeRecv {
                rx,
                service: self.service,
                free_at: Instant::now(),
            };
            Ok((Box::new(FakeSend(tx)), Box::new(recv)))
        }
    }

    impl LaneSend for FakeSend {
        fn send(&mut self, req: &WireRequest) -> io::Result<()> {
            self.0
                .send((req.id, Instant::now()))
                .map_err(|_| io::Error::from(io::ErrorKind::BrokenPipe))
        }

        fn close(self: Box<Self>) -> io::Result<()> {
            Ok(())
        }
    }

    impl LaneRecv for FakeRecv {
        fn recv(&mut self) -> io::Result<Option<Reply>> {
            let Ok((id, arrived)) = self.rx.recv() else {
                return Ok(None);
            };
            let done = self.free_at.max(arrived) + self.service;
            self.free_at = done;
            let now = Instant::now();
            if done > now {
                std::thread::sleep(done - now);
            }
            Ok(Some(Reply {
                id: Some(id),
                line: render_ok(id, 1.0, false),
                ok: true,
                refused: false,
            }))
        }
    }

    fn requests(n: usize, first_id: u64) -> Vec<WireRequest> {
        (0..n as u64)
            .map(|i| WireRequest {
                id: first_id + i,
                from: (0.0, 0.0),
                to: (1.0, 1.0),
                depart: 0.0,
                low_priority: false,
            })
            .collect()
    }

    #[test]
    fn capacity_search_finds_a_fake_servers_known_service_rate() {
        let server = FakeServer {
            service: Duration::from_millis(4),
        };
        let slo = Slo {
            pct: 90.0,
            limit_ms: 40.0,
            min_ok_frac: 0.999,
        };
        let ladder = Ladder {
            base: 25.0,
            rungs: 16,
            start: 6,
            resolution: 0.05,
        };
        let mut next_id = 0u64;
        let (cap, trail) = search_capacity(&ladder, |rate| {
            let n = slo.min_samples().max((rate * 0.4) as usize);
            let due = poisson_schedule(rate, n, 3);
            let reqs = requests(n, next_id);
            next_id += n as u64;
            let phase = run_phase(&server, 1, &due, &reqs, Duration::from_secs(2))?;
            assert_eq!(phase.samples.iter().filter(|s| s.done.is_some()).count(), n);
            Ok(slo.met_by(&phase))
        })
        .expect("fake transport never fails");
        // 4 ms of service caps the lane at 250/s; queueing keeps the p90
        // within 40 ms up to roughly 85-95% utilisation.
        assert!((120.0..=250.0).contains(&cap), "capacity {cap}: {trail:?}");
    }

    #[test]
    fn latency_counts_from_the_scheduled_send() {
        // Service (10 ms) far slower than arrivals (every ~2 ms): the
        // queue grows, and the last request's latency includes all the
        // waiting behind earlier ones.
        let server = FakeServer {
            service: Duration::from_millis(10),
        };
        let n = 40;
        let due = poisson_schedule(500.0, n, 1);
        let phase =
            run_phase(&server, 1, &due, &requests(n, 0), Duration::from_secs(2)).expect("fake");
        let last = phase
            .samples
            .last()
            .and_then(Sample::latency_ms)
            .expect("answered");
        assert!(
            last >= 300.0,
            "40 x 10 ms of service minus ~80 ms of arrivals: {last}"
        );
        let st = phase.stats();
        assert_eq!((st.attempted, st.failed), (n, 0));
        assert!(st.lateness_p99_ms.expect("samples") < 50.0);
    }
}
