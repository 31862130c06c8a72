//! `serve-wire`: independent users as an open loop. One generator process
//! (two sender threads, two connections) sends Poisson arrivals over
//! loopback to a separate server process running `NetServer` over
//! `SpgemmService`, as `cw-serve` does. Operands are the ten
//! representative families at `Scale::Small`, picked by Zipf popularity;
//! the shape mix is 80% full, 10% top-8, 10% masked by the operand's own
//! pattern. Latency is timed from each request's due time.
//!
//! An untraced run starts [`INSTANCES`] servers one after another. Each
//! gets warm-up traffic at the `high` rate, a measured window at the `low`
//! rate (`latency_p50_s`) and a saturation window in which both
//! connections send back to back (`max_rate_rps`, `throughput_gflops`).
//! The traced run serves both pinned rates, once through `NetClient` and
//! once through hand-built CWNP frames, every other call with spans around
//! codec and exchange.

use crate::common::{bytes_moved, check, nproc, peak_rss_mb, seeded_values};
use crate::report::{mean, median, quantile, Metrics, Tally};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use cw_datasets::{representative, Scale};
use cw_net::frame::{decode_result_payload, encode_submit_payload_shaped, read_frame};
use cw_net::{
    ClientConfig, Frame, NetClient, NetServer, NetServerConfig, OpCode, Qos, SubmitShape,
    WireReport,
};
use cw_service::{MultiplyRequest, Priority, RequestShape, ServiceConfig, SpgemmService};
use cw_sparse::{checksum, fingerprint, CsrMatrix};
use cw_spgemm::{apply_mask, flops::flops, row_topk, spgemm_serial};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Pinned workload parameters: the two offered rates, in requests/s.
pub const LOW_RPS: f64 = 20.0;
pub const HIGH_RPS: f64 = 50.0;
/// Sizes the saturation window: about this many requests per second.
const SATURATION_RPS_GUESS: f64 = 150.0;
/// Server processes started one after another per untraced run; samples
/// and saturation counts are pooled over them. Each fresh server's
/// feedback loop settles on its own plans, so the figures spread from
/// instance to instance: 10 short instances spread less than 5 long ones.
const INSTANCES: usize = 10;
pub const TOPK: u64 = 8;
/// Sender threads, one connection each.
pub const SENDERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Full,
    TopK,
    Masked,
}

struct ServeOp {
    a: CsrMatrix,
    masked: SubmitShape,
    /// Oracle products for full, top-k and masked requests.
    oracle: [CsrMatrix; 3],
    flops: u64,
}

impl ServeOp {
    fn submit_shape(&self, shape: Shape) -> SubmitShape {
        match shape {
            Shape::Full => SubmitShape::Full,
            Shape::TopK => SubmitShape::TopK(TOPK),
            Shape::Masked => self.masked.clone(),
        }
    }

    fn oracle(&self, shape: Shape) -> &CsrMatrix {
        &self.oracle[shape as usize]
    }
}

fn operands(args: &Args) -> Vec<(&'static str, ServeOp)> {
    let all = representative(Scale::Small);
    let take = if args.smoke { 2 } else { all.len() };
    all.iter()
        .take(take)
        .enumerate()
        .map(|(i, ds)| {
            let a = seeded_values(&ds.build(Scale::Small), args.seed.wrapping_add(i as u64));
            let full = spgemm_serial(&a, &a);
            let topk = row_topk(&full, TOPK as usize);
            let masked = apply_mask(&full, &a);
            let w = flops(&a, &a);
            let op = ServeOp {
                masked: SubmitShape::Masked(a.clone()),
                oracle: [full, topk, masked],
                flops: w,
                a,
            };
            (ds.name, op)
        })
        .collect()
}

/// One scheduled request of the open loop.
#[derive(Debug, Clone, Copy)]
pub struct Req {
    /// Due time, seconds after the window opens.
    pub due: f64,
    pub op: usize,
    pub shape: Shape,
}

/// Cards per operand in one deck of [`DECK`] requests, by popularity
/// rank: Zipf(1) over the ten operands, rounded to whole cards.
pub const ZIPF_CARDS: [usize; 10] = [7, 3, 2, 2, 1, 1, 1, 1, 1, 1];
/// Requests per deck; of each deck 80% are full, 10% top-k, 10% masked.
pub const DECK: usize = 20;

/// `n` requests (rounded up to whole decks) with Poisson arrivals at
/// `rate`. Every deck holds the same operand and shape counts; the seed
/// shuffles them and draws the arrival times.
pub fn schedule(seed: u64, rate: f64, n: usize, nops: usize) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let full = DECK * 8 / 10;
    let topk = DECK / 10;
    let mut out = Vec::new();
    let mut t = 0.0;
    while out.len() < n.max(1) {
        let mut ops: Vec<usize> = ZIPF_CARDS
            .iter()
            .enumerate()
            .flat_map(|(op, &cards)| std::iter::repeat_n(op.min(nops - 1), cards))
            .collect();
        let mut shapes: Vec<Shape> = (0..DECK)
            .map(|i| {
                if i < full {
                    Shape::Full
                } else if i < full + topk {
                    Shape::TopK
                } else {
                    Shape::Masked
                }
            })
            .collect();
        shuffle(&mut ops, &mut rng);
        shuffle(&mut shapes, &mut rng);
        for (op, shape) in ops.into_iter().zip(shapes) {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate;
            out.push(Req { due: t, op, shape });
        }
    }
    out
}

fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// Requests in a window of about `seconds` at `rate`, in whole decks.
fn window_len(rate: f64, seconds: f64) -> usize {
    ((rate * seconds / DECK as f64).round() as usize).max(1) * DECK
}

/// What one sender observed for one request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// How late the send started after its due time, seconds.
    pub late: f64,
    /// Due time → response, seconds.
    pub latency: f64,
    /// Send → response, seconds.
    pub call: f64,
    pub report: Option<WireReport>,
    pub ok: bool,
    pub flops: u64,
}

/// What a sender got back for one request (`None`: failed or rejected).
pub type Sent = Option<(WireReport, CsrMatrix)>;

/// Runs `reqs` open loop over `senders` threads. Each thread builds its
/// sender with `make`, waits for the window to open, then takes the next
/// request, sleeps until it is due and sends it; a request that finds
/// every sender busy goes out late, and its latency still counts from its
/// due time. `verify` checks each response after its timing is taken and
/// returns the request's work in flops, or `None` when it failed.
pub fn open_loop<S, M, V>(reqs: &[Req], senders: usize, make: M, verify: V) -> (Vec<Sample>, f64)
where
    S: FnMut(&Req) -> Sent,
    M: Fn(usize) -> S + Sync,
    V: Fn(&Req, Sent) -> Option<u64> + Sync,
{
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(reqs.len()));
    let barrier = Barrier::new(senders + 1);
    let start = Mutex::new(None::<Instant>);
    std::thread::scope(|s| {
        for w in 0..senders {
            let (next, samples, barrier, start) = (&next, &samples, &barrier, &start);
            let (make, verify) = (&make, &verify);
            s.spawn(move || {
                let mut send = make(w);
                barrier.wait();
                let t0 = start.lock().expect("start lock").expect("window opened");
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(req) = reqs.get(i) else { break };
                    let due = t0 + Duration::from_secs_f64(req.due);
                    let now = Instant::now();
                    if due > now {
                        std::thread::sleep(due - now);
                    }
                    let sent_at = Instant::now();
                    let out = send(req);
                    let done = Instant::now();
                    let report = out.as_ref().map(|o| o.0);
                    let work = verify(req, out);
                    mine.push(Sample {
                        late: sent_at.saturating_duration_since(due).as_secs_f64(),
                        latency: done.saturating_duration_since(due).as_secs_f64(),
                        call: (done - sent_at).as_secs_f64(),
                        report,
                        ok: work.is_some(),
                        flops: work.unwrap_or(0),
                    });
                }
                samples.lock().expect("samples lock").extend(mine);
            });
        }
        *start.lock().expect("start lock") = Some(Instant::now() + Duration::from_millis(5));
        barrier.wait();
    });
    let t0 = start.into_inner().expect("start lock").expect("window opened");
    let wall = t0.elapsed().as_secs_f64();
    (samples.into_inner().expect("samples lock"), wall)
}

/// The server process, stopped and reaped on drop.
struct Server {
    child: Child,
    addr: SocketAddr,
}

impl Server {
    fn spawn() -> Server {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Command::new(exe)
            .arg("--serve-child")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn server process");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("server address line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable server line {line:?}"));
        Server { child, addr }
    }

    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(&self.child.id().to_string())
    }

    fn stop(mut self) {
        if let Ok(mut c) = NetClient::connect(self.addr, ClientConfig::default()) {
            let _ = c.shutdown_server();
        }
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn service_config() -> ServiceConfig {
    ServiceConfig { pool_width: Some(nproc()), ..ServiceConfig::default() }
}

/// The server process: `NetServer` over a fresh `SpgemmService`, serving
/// until a SHUTDOWN frame arrives (what the `cw-serve` binary runs).
pub fn serve_child() {
    use std::io::Write;
    let service = SpgemmService::new(service_config());
    let server =
        NetServer::bind(service, "127.0.0.1:0", NetServerConfig::default()).expect("bind loopback");
    println!("listening on {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.run();
}

const SHAPES: [Shape; 3] = [Shape::Full, Shape::TopK, Shape::Masked];

/// Starts a server and serves every operand × shape once; returns the
/// server and the seconds from spawn to the last response.
fn setup(ops: &[(&str, ServeOp)], args: &Args, tally: &mut Tally) -> (Server, f64) {
    let t0 = Instant::now();
    let server = Server::spawn();
    let mut client = NetClient::connect(server.addr, ClientConfig::default()).expect("connect");
    let mut served = Vec::new();
    for (_, op) in ops {
        for shape in SHAPES {
            let r = client.multiply_shaped_qos(&op.a, &op.a, &op.submit_shape(shape), Qos::none());
            served.push((r, op, shape));
        }
    }
    let seconds = t0.elapsed().as_secs_f64();
    for (r, op, shape) in served {
        match r {
            Ok(resp) => {
                check(tally, args, resp.product, op.oracle(shape));
            }
            Err(_) => tally.failed(),
        }
    }
    (server, seconds)
}

/// A window of open-loop traffic through `NetClient`.
fn wire_window(
    addr: SocketAddr,
    ops: &[(&str, ServeOp)],
    reqs: &[Req],
    args: &Args,
    tally: &Mutex<Tally>,
) -> (Vec<Sample>, f64) {
    open_loop(
        reqs,
        SENDERS,
        |_| {
            let mut client = NetClient::connect(addr, ClientConfig::default()).expect("connect");
            move |req: &Req| {
                let op = &ops[req.op].1;
                let shape = op.submit_shape(req.shape);
                let r = client.multiply_shaped_qos(&op.a, &op.a, &shape, Qos::none());
                r.ok().map(|w| (w.report, w.product))
            }
        },
        verifier(ops, args, tally),
    )
}

/// Checks a response against the oracle, counting it in the tally.
fn verifier<'a>(
    ops: &'a [(&str, ServeOp)],
    args: &'a Args,
    tally: &'a Mutex<Tally>,
) -> impl Fn(&Req, Sent) -> Option<u64> + Sync + 'a {
    move |req, got| {
        let op = &ops[req.op].1;
        let mut tally = tally.lock().expect("tally lock");
        match got {
            Some((_, product)) => {
                check(&mut tally, args, product, op.oracle(req.shape)).then_some(op.flops)
            }
            None => {
                tally.failed();
                None
            }
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let ops = operands(args);
    let context: Vec<(&str, u64)> =
        ops.iter().map(|(n, o)| (*n, o.a.memory_bytes() as u64)).collect();
    let tally = Mutex::new(Tally::default());
    let secs = args.seconds_f64();
    let instances = if args.smoke || args.trace { 1 } else { INSTANCES };
    // Seconds for a share of one instance's part of the run.
    let window = |share: f64| if args.smoke { 0.2 } else { secs / INSTANCES as f64 * share };
    let mut m = Metrics::default();
    let mut setups = Vec::new();
    let mut rss = Vec::new();
    let mut tracer = None;
    // Pooled over the server instances.
    let mut low = Vec::new();
    let (mut sat_wall, mut sat_ok, mut sat_flops) = (0.0, 0usize, 0u64);
    for i in 0..instances as u64 {
        let server = {
            let mut t = tally.lock().expect("tally lock");
            let (server, seconds) = setup(&ops, args, &mut t);
            setups.push(seconds);
            server
        };
        let seed = args.seed ^ (i << 8);
        // Warm-up traffic lets the server's feedback loop settle before
        // any window is measured; its products are still checked.
        let warm = schedule(seed ^ 1, HIGH_RPS, window_len(HIGH_RPS, window(0.15)), ops.len());
        wire_window(server.addr, &ops, &warm, args, &tally);
        if args.trace {
            tracer = Some(traced(server.addr, &ops, args, &tally, &mut m));
        } else {
            let reqs = schedule(seed ^ 2, LOW_RPS, window_len(LOW_RPS, window(0.25)), ops.len());
            low.extend(wire_window(server.addr, &ops, &reqs, args, &tally).0);
            // Saturation: every request due at once, so each connection
            // sends its next request as soon as the last one returns.
            let n = window_len(SATURATION_RPS_GUESS, window(0.45));
            let mut reqs = schedule(seed ^ 4, 1.0, n, ops.len());
            reqs.iter_mut().for_each(|r| r.due = 0.0);
            let (samples, wall) = wire_window(server.addr, &ops, &reqs, args, &tally);
            sat_wall += wall;
            sat_ok += samples.iter().filter(|s| s.ok).count();
            sat_flops += samples.iter().map(|s| s.flops).sum::<u64>();
        }
        rss.push(server.peak_rss_mb());
        server.stop();
    }
    m.set("setup_s", median(&setups), "s");
    m.set("peak_rss_mb", rss.iter().copied().fold(0.0, f64::max), "MiB");
    if !args.trace {
        let lat = |s: &[Sample]| s.iter().map(|x| x.latency).collect::<Vec<_>>();
        m.set("latency_p50_s", median(&lat(&low)), "s");
        m.set("max_rate_rps", sat_ok as f64 / sat_wall, "1/s");
        m.set("throughput_gflops", sat_flops as f64 / sat_wall / 1e9, "GFLOP/s");
    }
    let tally = tally.into_inner().expect("tally lock");
    Outcome { tally, metrics: m, context, server_process: true, tracer }
}

/// The same traffic through raw CWNP frames. Each connection alternates
/// calls with spans around the codec and the exchange and calls timed
/// without spans, so both see the same window.
fn traced_window(
    addr: SocketAddr,
    ops: &[(&str, ServeOp)],
    reqs: &[Req],
    args: &Args,
    tally: &Mutex<Tally>,
    origin: Instant,
    home: &Mutex<Vec<(Tracer, Vec<f64>)>>,
) -> Vec<Sample> {
    open_loop(
        reqs,
        SENDERS,
        |_| {
            let stream = TcpStream::connect(addr).expect("connect");
            let _ = stream.set_nodelay(true);
            let mut sender = FrameSender {
                stream,
                max_frame: ClientConfig::default().max_frame_bytes,
                next_id: 0,
                tracer: Tracer::with_origin(origin),
                plain: Vec::new(),
                home,
            };
            move |req: &Req| {
                let op = &ops[req.op].1;
                sender.call(op, &op.submit_shape(req.shape))
            }
        },
        verifier(ops, args, tally),
    )
    .0
}

/// One connection sending SUBMIT frames by hand. Its spans and the
/// seconds of its calls without spans go back to `home` when the sender is
/// dropped at the end of the window.
struct FrameSender<'a> {
    stream: TcpStream,
    max_frame: usize,
    next_id: u64,
    tracer: Tracer,
    plain: Vec<f64>,
    home: &'a Mutex<Vec<(Tracer, Vec<f64>)>>,
}

impl FrameSender<'_> {
    fn call(&mut self, op: &ServeOp, shape: &SubmitShape) -> Sent {
        self.next_id += 1;
        let (stream, max_frame, id) = (&mut self.stream, self.max_frame, self.next_id);
        if id % 2 == 0 {
            let t0 = Instant::now();
            let out = exchange(stream, &submit_frame(op, shape, id), max_frame)
                .and_then(|reply| decode(&reply));
            self.plain.push(t0.elapsed().as_secs_f64());
            return out;
        }
        self.tracer.time("call", |t| {
            let frame = t.time("sparse.csrb_encode", |_| submit_frame(op, shape, id));
            let reply = t.time("net.exchange", |_| exchange(stream, &frame, max_frame))?;
            t.time("sparse.csrb_decode", |_| decode(&reply))
        })
    }
}

impl Drop for FrameSender<'_> {
    fn drop(&mut self) {
        let t = std::mem::take(&mut self.tracer);
        let plain = std::mem::take(&mut self.plain);
        if let Ok(mut home) = self.home.lock() {
            home.push((t, plain));
        }
    }
}

/// A SUBMIT frame for `A²` shaped by `shape` (the CSRB encode).
fn submit_frame(op: &ServeOp, shape: &SubmitShape, request_id: u64) -> Frame {
    Frame {
        op: OpCode::Submit,
        priority: Priority::High,
        flags: 0,
        request_id,
        deadline_ms: 0,
        payload: encode_submit_payload_shaped(&op.a, &op.a, shape),
    }
}

/// Writes `frame` and reads the reply.
fn exchange(stream: &mut TcpStream, frame: &Frame, max_frame: usize) -> Option<Frame> {
    frame.write_to(stream).ok()?;
    read_frame(stream, max_frame).ok()
}

/// The report and product of a RESULT frame (the CSRB decode).
fn decode(reply: &Frame) -> Sent {
    if reply.op != OpCode::Result {
        return None;
    }
    decode_result_payload(&reply.payload).ok()
}

fn traced(
    addr: SocketAddr,
    ops: &[(&str, ServeOp)],
    args: &Args,
    tally: &Mutex<Tally>,
    m: &mut Metrics,
) -> Tracer {
    let origin = Instant::now();
    let window = if args.smoke { 0.3 } else { args.seconds_f64() * 0.17 };
    let home = Mutex::new(Vec::new());
    let mut plain_by_rate = Vec::new();
    let mut traced_low = Vec::new();
    let mut traced_all = Vec::new();
    for (k, rate) in [LOW_RPS, HIGH_RPS].into_iter().enumerate() {
        let reqs =
            schedule(args.seed ^ (0x30 + k as u64), rate, window_len(rate, window), ops.len());
        let (plain, _) = wire_window(addr, ops, &reqs, args, tally);
        let spans = traced_window(addr, ops, &reqs, args, tally, origin, &home);
        if k == 0 {
            traced_low = spans.clone();
        }
        plain_by_rate.push(plain);
        traced_all.extend(spans);
    }
    let mut t = Tracer::with_origin(origin);
    let mut untraced = Vec::new();
    for (part, plain) in home.into_inner().expect("home lock") {
        t.absorb(part);
        untraced.extend(plain);
    }
    // Probes on each lhs, outside any call.
    for (_, op) in ops {
        for _ in 0..20 {
            t.time("sparse.checksum", |_| std::hint::black_box(checksum(&op.a)));
            t.time("sparse.fingerprint", |_| std::hint::black_box(fingerprint(&op.a)));
        }
    }

    let reports: Vec<WireReport> = traced_all.iter().filter_map(|s| s.report).collect();
    let of = |f: fn(&WireReport) -> f64| reports.iter().map(f).collect::<Vec<f64>>();
    let queue = of(|r| r.queue_seconds);
    m.set("service.queue_p50_s", median(&queue), "s");
    m.set("service.queue_p99_s", quantile(&queue, 0.99), "s");
    m.set("service.execute_s", median(&of(|r| r.execute_seconds)), "s");
    m.set("service.batch_size", mean(&of(|r| r.batch_size as f64)), "count");
    let rejected = traced_all.iter().filter(|s| s.report.is_none()).count();
    m.set("service.reject_frac", rejected as f64 / traced_all.len().max(1) as f64, "frac");
    m.set("service.inproc_p50_s", inproc_p50(ops, args, tally), "s");
    let calls = |s: &[Sample]| s.iter().map(|x| x.call).collect::<Vec<f64>>();
    m.set("net.call_p50_s", median(&calls(&traced_low)), "s");
    let gaps: Vec<f64> =
        traced_all.iter().filter_map(|s| s.report.map(|r| s.call - r.latency_seconds)).collect();
    m.set("net.wire_gap_s", median(&gaps), "s");
    m.set("sparse.csrb_encode_s", median(&t.durations("sparse.csrb_encode")), "s");
    m.set("sparse.csrb_decode_s", median(&t.durations("sparse.csrb_decode")), "s");
    m.set("sparse.checksum_s", median(&t.durations("sparse.checksum")), "s");
    m.set("sparse.fingerprint_s", median(&t.durations("sparse.fingerprint")), "s");
    let flops: u64 = ops.iter().map(|(_, o)| o.flops).sum();
    let bytes: u64 = ops.iter().map(|(_, o)| bytes_moved(&o.a, &o.a, &o.oracle[0])).sum();
    m.set("spgemm.flops", flops as f64, "count");
    m.set("spgemm.bytes_moved", bytes as f64, "bytes");
    m.set("spgemm.flops_per_byte", flops as f64 / bytes as f64, "flop/B");
    m.set("bench.span_coverage", t.coverage("call"), "frac");
    m.set("bench.call_self_s", median(&t.self_times("call")), "s");
    m.set(
        "bench.trace_overhead_frac",
        median(&t.durations("call")) / median(&untraced) - 1.0,
        "frac",
    );
    let lat = |s: &[Sample]| s.iter().map(|x| x.latency).collect::<Vec<f64>>();
    m.set("net.lat_p99_s.low", quantile(&lat(&plain_by_rate[0]), 0.99), "s");
    m.set("net.lat_p99_s.high", quantile(&lat(&plain_by_rate[1]), 0.99), "s");
    m.set("net.lat_p90_s.high", quantile(&lat(&plain_by_rate[1]), 0.9), "s");
    let late: Vec<f64> = traced_all.iter().map(|s| s.late).collect();
    m.set("bench.generator_late_p99_s", quantile(&late, 0.99), "s");
    t
}

/// p50 latency of the same mix submitted closed loop to an in-process
/// `SpgemmService` with the server's configuration.
fn inproc_p50(ops: &[(&str, ServeOp)], args: &Args, tally: &Mutex<Tally>) -> f64 {
    let service = SpgemmService::new(service_config());
    let arcs: Vec<Arc<CsrMatrix>> = ops.iter().map(|(_, o)| Arc::new(o.a.clone())).collect();
    let request = |i: usize, shape: Shape| {
        let a = &arcs[i];
        let r = MultiplyRequest::new(Arc::clone(a), Arc::clone(a));
        match shape {
            Shape::Full => r,
            Shape::TopK => r.with_shape(RequestShape::TopK(TOPK as usize)),
            // The mask is the operand's own pattern, as on the wire.
            Shape::Masked => r.with_mask(Arc::clone(a)),
        }
    };
    let submit = |i: usize, shape: Shape| {
        let t0 = Instant::now();
        let got = service.submit(request(i, shape)).ok().and_then(|t| t.wait().ok());
        let dt = t0.elapsed().as_secs_f64();
        let mut tally = tally.lock().expect("tally lock");
        match got {
            Some(resp) => {
                check(&mut tally, args, resp.product, ops[i].1.oracle(shape));
            }
            None => tally.failed(),
        }
        dt
    };
    for i in 0..ops.len() {
        for shape in SHAPES {
            submit(i, shape);
        }
    }
    let n = if args.smoke { DECK } else { 15 * DECK };
    let reqs = schedule(args.seed ^ 0x40, LOW_RPS, n, ops.len());
    let lat: Vec<f64> = reqs.iter().take(n).map(|r| submit(r.op, r.shape)).collect();
    service.shutdown();
    median(&lat)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_every_deck_holds_the_mix() {
        let a = schedule(7, 100.0, 5000, 10);
        let b = schedule(7, 100.0, 5000, 10);
        assert_eq!(a.len(), 5000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.due == y.due && x.op == y.op));
        let rate = a.len() as f64 / a.last().unwrap().due;
        assert!((rate - 100.0).abs() < 5.0, "{rate}");
        for deck in a.chunks(DECK) {
            let count = |f: &dyn Fn(&Req) -> bool| deck.iter().filter(|r| f(r)).count();
            assert_eq!(count(&|r| r.shape == Shape::Full), 16);
            assert_eq!(count(&|r| r.shape == Shape::TopK), 2);
            for (op, cards) in ZIPF_CARDS.iter().enumerate() {
                assert_eq!(count(&|r| r.op == op), *cards);
            }
        }
        assert_eq!(schedule(7, 100.0, 21, 10).len(), 2 * DECK);
    }

    #[test]
    fn open_loop_counts_lateness_from_due_time() {
        // Ten requests all due at once, one sender taking 10 ms each: the
        // k-th starts ~10k ms late and its latency includes that wait.
        let reqs: Vec<Req> = (0..10).map(|op| Req { due: 0.0, op, shape: Shape::Full }).collect();
        let (mut samples, _) = open_loop(
            &reqs,
            1,
            |_| {
                |_: &Req| {
                    std::thread::sleep(Duration::from_millis(10));
                    None
                }
            },
            |_, _| Some(1),
        );
        samples.sort_by(|a, b| a.late.total_cmp(&b.late));
        let last = samples.last().unwrap();
        assert!(last.late >= 0.085, "late {}", last.late);
        assert!(last.latency >= last.late + 0.0095, "{last:?}");
        assert!(samples.iter().all(|s| s.call >= 0.0095 && s.call < s.latency + 1e-9));
    }
}
