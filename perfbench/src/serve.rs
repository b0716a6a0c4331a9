//! The `serve` workload: the release `taor-serve` binary, spawned with its
//! defaults (flat index, Siamese primary, 2 workers, batch 4, keep-alive),
//! under seeded NYUSet crop traffic from this one process.
//!
//! Load: a warm-up (checked, not scored), then rounds of closed-loop
//! passes over two keep-alive connections and open-loop segments with
//! seeded Poisson arrivals at two fixed rates. Every request ends as a
//! correct 200, the expected 400 for a malformed body, or a failure.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::Deserialize;
use serde_json::Value;
use taor_core::prelude::{image_to_tensor, Background, Recognizer};
use taor_core::wire::{decode_crop, encode_rgb8, DecodeStats};
use taor_core::DiagnosticsReport;
use taor_data::{nyu_set_subsampled, shapenet_set1};
use taor_imgproc::image::RgbImage;
use taor_imgproc::resize::resize_bilinear_rgb;
use taor_nn::{NetConfig, NormXCorrNet, Tensor};
use taor_serve::http::{write_response, ConnectionReader, HttpLimits, Response};
use taor_serve::{Deadline, RecognizerService, ServiceConfig};

use crate::calib::Calibration;
use crate::report::{fnv64, lower_quartile, median, percentile, supported_percentile, Figures};
use crate::trace::{bracketed, breakdown, Tracer};
use crate::{fill_layers, Ctx, RunResult};

/// The request pool: NYUSet crops of varied sizes, rendered from a fixed
/// seed so their expected answers can be recorded once. The workload
/// seed picks the order, the malformed bodies and the arrival times.
const POOL_SEED: u64 = 2019;
const POOL_PER_CLASS: usize = 20;
/// Share of requests whose body is a malformed wire buffer.
const MALFORMED_SHARE: f64 = 0.02;
/// Keep-alive connections, one generator thread each (nproc of the
/// reference host).
const CONNECTIONS: usize = 2;
/// Open-loop arrival rates in req/s, frozen: about 30% and 70% of the
/// closed-loop throughput measured on the reference host (2-CPU Xeon).
pub const RATE_LOW: f64 = 145.0;
pub const RATE_HIGH: f64 = 335.0;
const WARMUP_REQUESTS: usize = 200;
/// Requests in one closed-loop pass; `wall_s` is the median pass time.
const CLOSED_PASS_REQUESTS: usize = 300;
/// Server spawns timed for `setup_s`.
const SETUP_SPAWNS: usize = 9;
/// Servers (the last ones spawned) the scored load rotates over.
const SERVERS: usize = 3;
/// Scored rounds: each two closed-loop passes plus an open-loop segment
/// at each rate (35% and 20% of the run's seconds in total). The closed
/// loop gets the most time because its pass times spread the most
/// (0.34 to 0.62 s within one run on the reference host).
const ROUNDS: usize = 12;
const PASSES_PER_ROUND: usize = 2;
/// An open-loop segment whose generator ran later than this at p99 is
/// invalid: it is re-run once, and left out of the latency figures if it
/// fails again.
const LATE_BOUND_MS: f64 = 10.0;
/// Requests replayed in process by the traced run.
const REPLAY_REQUESTS: usize = 300;
/// The replay takes requests in windows of this many: even windows are
/// recognised one crop per call, odd ones in one call, as the server's
/// workers batch up to four.
const WINDOW: usize = 4;

/// Generator streams: one per phase, so phases never share a sequence.
const STREAM_WARMUP: u64 = 1;
const STREAM_CLOSED: u64 = 2;
const STREAM_LOW: u64 = 3;
const STREAM_HIGH: u64 = 4;

/// One request of the traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Req {
    /// Pool crop `i`, well-formed.
    Crop(usize),
    /// Pool crop `i` damaged in way `kind` (see [`malformed`]).
    Malformed { kind: usize, crop: usize },
}

const MALFORMED_KINDS: usize = 7;

/// A wire buffer that `decode_crop` must reject, so the server answers
/// 400: truncated header, bad magic, version, pixel format, a zero
/// width, a truncated payload, trailing bytes.
fn malformed(kind: usize, wire: &[u8]) -> Vec<u8> {
    let mut b = wire.to_vec();
    match kind {
        0 => b.truncate(6),
        1 => b[0] ^= 0xFF,
        2 => b[4] = 0xEE,
        3 => b[5] = 0x7F,
        4 => b[6..10].copy_from_slice(&0u32.to_le_bytes()),
        5 => b.truncate(b.len() - 7),
        _ => b.extend_from_slice(&[1, 2, 3, 4, 5]),
    }
    b
}

/// The fixed crop pool and the answers recorded for it.
pub struct Pool {
    pub crops: Vec<RgbImage>,
    pub wire: Vec<Vec<u8>>,
    /// Per crop: digests of the crop bytes, the primary body and the
    /// degraded body. Empty when recording.
    expected: Vec<[u64; 3]>,
}

impl Pool {
    pub fn render() -> Pool {
        let ds = nyu_set_subsampled(POOL_SEED, POOL_PER_CLASS);
        let crops: Vec<RgbImage> = ds.images.into_iter().map(|li| li.image).collect();
        let wire = crops.iter().map(encode_rgb8).collect();
        Pool { crops, wire, expected: Vec::new() }
    }

    /// The pool with the expected answers of `expected/serve.txt`.
    pub fn with_expected(text: &str) -> Result<Pool, String> {
        let mut pool = Pool::render();
        for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let hex = |s: &str| u64::from_str_radix(s, 16).map_err(|e| format!("{line}: {e}"));
            match f.as_slice() {
                [_, c, p, d] => pool.expected.push([hex(c)?, hex(p)?, hex(d)?]),
                _ => return Err(format!("bad expected line: {line}")),
            }
        }
        if pool.expected.len() != pool.crops.len() {
            return Err(format!(
                "expected answers for {} crops, the pool has {}",
                pool.expected.len(),
                pool.crops.len()
            ));
        }
        Ok(pool)
    }

    fn body(&self, req: Req) -> Cow<'_, [u8]> {
        match req {
            Req::Crop(i) => Cow::Borrowed(&self.wire[i]),
            Req::Malformed { kind, crop } => Cow::Owned(malformed(kind, &self.wire[crop])),
        }
    }

    /// Judge one exchange.
    fn judge(&self, req: Req, res: &Result<(u16, Vec<u8>), String>) -> Verdict {
        let (status, body) = match res {
            Ok(r) => r,
            Err(e) => return Verdict::Failed(format!("io: {e}")),
        };
        match req {
            Req::Crop(i) => {
                let [crop, primary, degraded] = self.expected[i];
                if fnv64(&self.wire[i]) != crop {
                    return Verdict::Failed("pool crop differs from the recorded one".into());
                }
                let digest = fnv64(body);
                match *status {
                    200 if digest == primary => Verdict::Correct { degraded: false },
                    200 if digest == degraded => Verdict::Correct { degraded: true },
                    200 => Verdict::Failed("wrong body".into()),
                    s => Verdict::Failed(format!("status {s}")),
                }
            }
            Req::Malformed { .. } => {
                if *status == 400 && body.starts_with(b"{\"error\":\"bad crop: ") {
                    Verdict::Rejected
                } else {
                    Verdict::Failed(format!("malformed body answered {status}"))
                }
            }
        }
    }
}

/// The generator of stream `stream` under workload seed `seed`.
fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Seeded request mix: `n` requests from generator stream `stream`.
pub fn sequence(seed: u64, stream: u64, n: usize, pool_len: usize) -> Vec<Req> {
    let mut rng = stream_rng(seed, stream);
    (0..n)
        .map(|_| {
            let crop = rng.gen_range(0..pool_len);
            if rng.gen_bool(MALFORMED_SHARE) {
                Req::Malformed { kind: rng.gen_range(0..MALFORMED_KINDS), crop }
            } else {
                Req::Crop(crop)
            }
        })
        .collect()
}

enum Verdict {
    Correct { degraded: bool },
    Rejected,
    Failed(String),
}

/// Outcome counts.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub degraded: u64,
    pub rejected: u64,
    pub failed: u64,
    pub reasons: BTreeMap<String, u64>,
}

impl Tally {
    fn add(&mut self, v: &Verdict) {
        self.attempted += 1;
        match v {
            Verdict::Correct { degraded } => {
                self.ok += 1;
                self.degraded += u64::from(*degraded);
            }
            Verdict::Rejected => self.rejected += 1,
            Verdict::Failed(why) => {
                self.failed += 1;
                *self.reasons.entry(why.clone()).or_insert(0) += 1;
            }
        }
    }

    fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.degraded += o.degraded;
        self.rejected += o.rejected;
        self.failed += o.failed;
        for (k, v) in &o.reasons {
            *self.reasons.entry(k.clone()).or_insert(0) += v;
        }
    }
}

/// A keep-alive HTTP/1.1 client that honours `Connection: close` and
/// reconnects lazily before the next request.
struct Client {
    addr: SocketAddr,
    conn: Option<BufReader<TcpStream>>,
    /// Connections opened; every one after the first is a reconnect.
    opened: u64,
}

impl Client {
    fn new(addr: SocketAddr) -> Self {
        Client { addr, conn: None, opened: 0 }
    }

    fn reconnects(&self) -> u64 {
        self.opened.saturating_sub(1)
    }

    fn exchange(&mut self, head: &str, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
        if self.conn.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))
                .map_err(|e| format!("connect: {e}"))?;
            s.set_nodelay(true).map_err(|e| e.to_string())?;
            s.set_read_timeout(Some(Duration::from_secs(10))).map_err(|e| e.to_string())?;
            self.conn = Some(BufReader::new(s));
            self.opened += 1;
        }
        let Some(conn) = self.conn.as_mut() else { return Err("no connection".into()) };
        let mut msg = Vec::with_capacity(head.len() + body.len());
        msg.extend_from_slice(head.as_bytes());
        msg.extend_from_slice(body);
        let res = conn
            .get_mut()
            .write_all(&msg)
            .map_err(|e| format!("write: {e}"))
            .and_then(|()| read_response(conn));
        match res {
            Ok((status, body, close)) => {
                if close {
                    self.conn = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.conn = None;
                Err(e)
            }
        }
    }

    fn post(&mut self, body: &[u8]) -> Result<(u16, Vec<u8>), String> {
        self.exchange(&request_head(body.len()), body)
    }

    fn get(&mut self, path: &str) -> Result<(u16, Vec<u8>), String> {
        self.exchange(&format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n"), &[])
    }
}

fn request_head(len: usize) -> String {
    format!("POST /recognize HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {len}\r\n\r\n")
}

/// Status, body, and whether the server announced `Connection: close`.
fn read_response(r: &mut BufReader<TcpStream>) -> Result<(u16, Vec<u8>, bool), String> {
    let mut line = String::new();
    if r.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
        return Err("connection closed before the response".into());
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line {line:?}"))?;
    let (mut len, mut close) = (0usize, false);
    loop {
        line.clear();
        if r.read_line(&mut line).map_err(|e| format!("read: {e}"))? == 0 {
            return Err("connection closed inside the response head".into());
        }
        let h = line.trim_end();
        if h.is_empty() {
            break;
        }
        if let Some((name, value)) = h.split_once(':') {
            let (name, value) = (name.trim().to_ascii_lowercase(), value.trim());
            if name == "content-length" {
                len = value.parse().map_err(|_| format!("bad Content-Length {value:?}"))?;
            } else if name == "connection" {
                close = value.eq_ignore_ascii_case("close");
            }
        }
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body).map_err(|e| format!("read body: {e}"))?;
    Ok((status, body, close))
}

/// A spawned `taor-serve`; dropping it kills the process and waits.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server's stdout never hits a closed pipe.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerProc {
    pub fn spawn(bin: &str, args: &[&str]) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {bin}: {e}"))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("no stdout pipe".into());
        };
        let mut proc = ServerProc {
            child,
            _stdout: BufReader::new(out),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        loop {
            line.clear();
            let n = proc._stdout.read_line(&mut line).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("taor-serve exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("taor-serve listening on ") {
                proc.addr = a.parse().map_err(|e| format!("listening address {a:?}: {e}"))?;
                return Ok(proc);
            }
        }
    }

    /// Peak resident set of the server process (`VmHWM`), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        vm_hwm_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `VmHWM` of a `/proc/<pid>/status` file, MiB (0 if unreadable).
pub fn vm_hwm_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Spawn the server and time spawn → first correct 200 on `/recognize`.
fn spawn_ready(ctx: &Ctx, pool: &Pool, tally: &mut Tally) -> Result<(ServerProc, f64), String> {
    let t0 = Instant::now();
    let srv = ServerProc::spawn(&ctx.taor_serve, &[])?;
    let mut client = Client::new(srv.addr);
    let req = Req::Crop(0);
    for _ in 0..200 {
        let res = client.post(&pool.body(req));
        if let Ok((200, _)) = res {
            let v = pool.judge(req, &res);
            tally.add(&v);
            return Ok((srv, t0.elapsed().as_secs_f64()));
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    Err("taor-serve never answered 200".into())
}

/// One load phase's observations.
#[derive(Debug, Default)]
struct Phase {
    tally: Tally,
    /// Latency of every crop request, ms; a failed one is +inf.
    lat_ms: Vec<f64>,
    /// Generator lateness per request, ms (open loop only).
    late_ms: Vec<f64>,
    wall_s: f64,
    reconnects: u64,
}

impl Phase {
    fn note(&mut self, pool: &Pool, req: Req, res: &Result<(u16, Vec<u8>), String>, ms: f64) {
        let v = pool.judge(req, res);
        if let Req::Crop(_) = req {
            self.lat_ms.push(if matches!(v, Verdict::Failed(_)) { f64::INFINITY } else { ms });
        }
        self.tally.add(&v);
    }

    fn merge(&mut self, o: Phase) {
        self.tally.merge(&o.tally);
        self.lat_ms.extend(o.lat_ms);
        self.late_ms.extend(o.late_ms);
        self.reconnects += o.reconnects;
    }
}

/// Closed loop: each connection sends its next request when the last
/// one is answered.
fn closed_loop(addr: SocketAddr, pool: &Pool, reqs: &[Req]) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut part = Phase::default();
                    // Ordering::Relaxed: a work counter; each index only
                    // needs to be handed out once.
                    while let Some(&req) = reqs.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let t0 = Instant::now();
                        let res = client.post(&pool.body(req));
                        part.note(pool, req, &res, t0.elapsed().as_secs_f64() * 1e3);
                    }
                    part.reconnects = client.reconnects();
                    part
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut phase = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    for p in parts {
        phase.merge(p);
    }
    phase
}

/// Open loop: seeded Poisson arrivals at `rate` for `secs`, sent over
/// at most [`CONNECTIONS`] connections. Latency runs from each request's
/// scheduled send time; lateness is how long after its due time (or
/// after its connection came free, if later) the generator sent it.
fn open_loop(addr: SocketAddr, pool: &Pool, seed: u64, stream: u64, rate: f64, secs: f64) -> Phase {
    let mut rng = stream_rng(seed, stream ^ 0xA771);
    let mut due = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.gen::<f64>()).ln() / rate;
        if t >= secs {
            break;
        }
        due.push(Duration::from_secs_f64(t));
    }
    let reqs = sequence(seed, stream, due.len(), pool.crops.len());
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let parts: Vec<Phase> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|_| {
                s.spawn(|| {
                    let mut client = Client::new(addr);
                    let mut part = Phase::default();
                    // Ordering::Relaxed: a work counter, as above.
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let (Some(&req), Some(&at)) = (reqs.get(i), due.get(i)) else { break };
                        let free = Instant::now();
                        let due_at = start + at;
                        if due_at > free {
                            std::thread::sleep(due_at - free);
                        }
                        let sent = Instant::now();
                        let late = sent.saturating_duration_since(due_at.max(free));
                        let res = client.post(&pool.body(req));
                        let ms =
                            Instant::now().saturating_duration_since(due_at).as_secs_f64() * 1e3;
                        part.late_ms.push(late.as_secs_f64() * 1e3);
                        part.note(pool, req, &res, ms);
                    }
                    part.reconnects = client.reconnects();
                    part
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("generator thread panicked")).collect()
    });
    let mut phase = Phase { wall_s: start.elapsed().as_secs_f64(), ..Phase::default() };
    for p in parts {
        phase.merge(p);
    }
    phase
}

/// Run an open-loop phase; re-run it once if the generator ran late.
fn open_phase(
    addr: SocketAddr,
    pool: &Pool,
    ctx: &Ctx,
    stream: u64,
    rate: f64,
    secs: f64,
) -> (Phase, bool) {
    let mut spent = Phase::default();
    for attempt in 0..2u64 {
        let phase = open_loop(addr, pool, ctx.seed, stream + 100 * attempt, rate, secs);
        let valid = percentile(&phase.late_ms, 99.0) <= LATE_BOUND_MS;
        if valid || attempt == 1 {
            let mut out = phase;
            // Requests of a discarded attempt still count as attempted.
            out.tally.merge(&spent.tally);
            out.reconnects += spent.reconnects;
            return (out, valid);
        }
        spent.merge(phase);
    }
    unreachable!("the loop returns on its last attempt")
}

/// `/healthz` diagnostics counters: (shed, timeouts, degraded).
fn healthz(addr: SocketAddr) -> Result<[u64; 3], String> {
    let (status, body) = Client::new(addr).get("/healthz")?;
    if status != 200 {
        return Err(format!("/healthz answered {status}"));
    }
    let text = String::from_utf8(body).map_err(|e| format!("/healthz: {e}"))?;
    let health: Value = serde_json::from_str(&text).map_err(|e| format!("/healthz: {e}"))?;
    let Value::Map(members) = &health else { return Err("/healthz: not an object".into()) };
    let diag = serde::field(members, "diagnostics").ok_or("/healthz: no diagnostics")?;
    let d = DiagnosticsReport::from_value(diag).map_err(|e| format!("/healthz: {e}"))?;
    Ok([d.shed, d.timeouts, d.degraded])
}

/// The open-loop segments at one rate. Every request counts as attempted;
/// only valid segments (generator lateness p99 within [`LATE_BOUND_MS`])
/// feed the latency figures.
#[derive(Debug, Default)]
struct OpenRate {
    /// Outcomes, lateness and reconnects of every segment.
    all: Phase,
    /// Latencies of the valid segments, ms.
    lat_ms: Vec<f64>,
    /// The median latency of each valid segment, ms.
    segment_p50_ms: Vec<f64>,
    invalid: u64,
}

impl OpenRate {
    fn add(&mut self, mut segment: Phase, valid: bool) {
        let lat = std::mem::take(&mut segment.lat_ms);
        if valid {
            self.segment_p50_ms.push(percentile(&lat, 50.0));
            self.lat_ms.extend(lat);
        } else {
            self.invalid += 1;
        }
        self.all.merge(segment);
    }

    /// Pooled p50 and p99 of the valid segments as `lat_{p50,p99}_ms.<rate>`,
    /// the lateness p99 over every segment, and the excluded-segment count.
    fn figures(&self, figs: &mut Figures, notes: &mut Vec<String>, rate: &str) {
        let n = self.lat_ms.len() as u64;
        if n > 0 {
            figs.set(&format!("lat_p50_ms.{rate}"), percentile(&self.lat_ms, 50.0), "ms", n);
            figs.set(&format!("lat_p99_ms.{rate}"), percentile(&self.lat_ms, 99.0), "ms", n);
            notes.push(format!(
                "rate {rate}: {n} latencies from valid segments support {}",
                supported_percentile(self.lat_ms.len())
            ));
        } else {
            notes.push(format!("rate {rate}: no valid segment; its latency is not reported"));
        }
        let late_n = self.all.late_ms.len() as u64;
        let late = percentile(&self.all.late_ms, 99.0);
        figs.set(&format!("loadgen.late_ms.p99.{rate}"), late, "ms", late_n);
        let segments = self.segment_p50_ms.len() as u64 + self.invalid;
        figs.set(&format!("loadgen.invalid_segments.{rate}"), self.invalid as f64, "count", 1);
        if self.invalid > 0 {
            notes.push(format!(
                "rate {rate}: {} of {segments} segments INVALID (generator lateness p99 above \
                 {LATE_BOUND_MS} ms twice), left out of the latency figures",
                self.invalid
            ));
        }
    }
}

/// The untraced run: end-to-end metrics.
///
/// The scored load runs in [`ROUNDS`] rounds, each two closed-loop passes
/// and a short segment at each open-loop rate, rotating over the last
/// [`SERVERS`] spawned servers. Every metric thus samples the whole run
/// and more than one server process, and reports the lower quartile of
/// its samples ([`lower_quartile`]), so a slow spell on the host or an
/// unlucky process lands in a few samples and moves the figure little.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let pool = Pool::with_expected(include_str!("../expected/serve.txt"))?;
    let mut tally = Tally::default();
    let mut notes = Vec::new();

    let mut cal = Calibration::default();
    cal.sample(2);
    let mut setup = Vec::new();
    let mut servers = std::collections::VecDeque::new();
    for _ in 0..SETUP_SPAWNS {
        let (s, secs) = spawn_ready(ctx, &pool, &mut tally)?;
        cal.sample(1);
        setup.push(secs);
        servers.push_back(s);
        if servers.len() > SERVERS {
            servers.pop_front(); // killed on drop
        }
    }
    let mut reconnects = 0;
    for (i, srv) in servers.iter().enumerate() {
        let warm = closed_loop(
            srv.addr,
            &pool,
            &sequence(ctx.seed, STREAM_WARMUP + 100 * i as u64, WARMUP_REQUESTS, pool.crops.len()),
        );
        tally.merge(&warm.tally);
        reconnects += warm.reconnects;
    }

    let closed_reqs = sequence(
        ctx.seed,
        STREAM_CLOSED,
        CLOSED_PASS_REQUESTS * ROUNDS * PASSES_PER_ROUND,
        pool.crops.len(),
    );
    let mut pass_walls = Vec::new();
    let mut closed = Tally::default();
    let (mut low, mut high) = (OpenRate::default(), OpenRate::default());
    let segment = ctx.seconds / ROUNDS as f64;
    for (r, round) in closed_reqs.chunks(CLOSED_PASS_REQUESTS * PASSES_PER_ROUND).enumerate() {
        let addr = servers[r % servers.len()].addr;
        for chunk in round.chunks(CLOSED_PASS_REQUESTS) {
            let pass = closed_loop(addr, &pool, chunk);
            pass_walls.push(pass.wall_s);
            reconnects += pass.reconnects;
            closed.merge(&pass.tally);
        }
        let stream = 1000 * (r as u64 + 1);
        let (l, ok) = open_phase(addr, &pool, ctx, STREAM_LOW + stream, RATE_LOW, segment * 0.35);
        low.add(l, ok);
        let (h, ok) = open_phase(addr, &pool, ctx, STREAM_HIGH + stream, RATE_HIGH, segment * 0.2);
        high.add(h, ok);
        cal.sample(2);
    }
    let closed_s: f64 = pass_walls.iter().sum();
    let peaks: Vec<f64> = servers.iter().map(ServerProc::peak_rss_mb).collect();
    let peak = median(&peaks);
    drop(servers);
    if low.segment_p50_ms.is_empty() {
        return Err(format!(
            "every low-rate open-loop segment ran late (lateness p99 above {LATE_BOUND_MS} ms): \
             no valid latency to report"
        ));
    }

    let mut scored = closed.clone();
    for rate in [&low, &high] {
        scored.merge(&rate.all.tally);
        reconnects += rate.all.reconnects;
    }
    tally.merge(&scored);

    let mut figs = Figures::default();
    for (name, unit, samples) in [
        ("setup_s", "s", &setup),
        ("wall_s", "s", &pass_walls),
        ("lat_p50_ms", "ms", &low.segment_p50_ms),
    ] {
        let (raw, n) = (lower_quartile(samples), samples.len() as u64);
        figs.set(name, cal.scale(raw), unit, n);
        figs.set(&format!("{name}.raw"), raw, unit, n);
        figs.set(&format!("{name}.raw_median"), median(samples), unit, n);
    }
    figs.set("peak_rss_mb", peak, "MiB", peaks.len() as u64);
    figs.set("calib.kernel_ms", cal.kernel_s() * 1e3, "ms", cal.samples());
    figs.set("throughput_rps", closed.ok as f64 / closed_s, "req/s", closed.ok);
    low.figures(&mut figs, &mut notes, "low");
    high.figures(&mut figs, &mut notes, "high");
    figs.set("degraded_share", ratio(scored.degraded, scored.ok), "ratio", scored.ok);
    figs.set("error_rate", ratio(tally.failed, tally.attempted), "ratio", tally.attempted);
    figs.set("serve.reconnects", reconnects as f64, "count", 1);
    notes.push(
        "setup_s, wall_s (one closed-loop pass) and lat_p50_ms (a valid low-rate segment's \
         median latency): lower quartile of the samples (.raw; .raw_median the median), \
         scaled by the calibration kernel to the reference host's speed"
            .into(),
    );
    notes.push(format!(
        "requests: {} attempted, {} correct 200 ({} degraded), {} expected 400, {} failed {:?}",
        tally.attempted, tally.ok, tally.degraded, tally.rejected, tally.failed, tally.reasons
    ));
    Ok(RunResult { figs, attempted: tally.attempted, failed: tally.failed, notes, spans: None })
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// In-process copies of what the server holds, for the replay.
struct Replay {
    service: RecognizerService,
    fallback: Recognizer,
    net: NormXCorrNet,
    net_cfg: NetConfig,
    gallery: Tensor,
    gallery_len: usize,
}

/// A replayed request after parsing and decoding.
enum Decoded {
    Crop(RgbImage, DecodeStats),
    /// A malformed crop, with its 400 body.
    Rejected(Vec<u8>),
    Failed(String),
}

/// Probe times of the work inside one crop's recognition, ns.
#[derive(Debug, Clone, Copy, Default)]
struct CropProbe {
    /// `resize_bilinear_rgb` to the network's input size.
    resize: u64,
    /// `image_to_tensor`, which resizes internally.
    tensor: u64,
    /// The head sweep over the gallery rows.
    head: u64,
}

/// The recognition calls of one replay window: `(span name, span
/// request id, request indices of its crops)`.
fn recognition_calls(reqs: &[Req]) -> Vec<(String, u64, Vec<usize>)> {
    let mut calls = Vec::new();
    for (w, window) in reqs.chunks(WINDOW).enumerate() {
        let crops: Vec<usize> = (0..window.len())
            .filter(|&k| matches!(window[k], Req::Crop(_)))
            .map(|k| w * WINDOW + k)
            .collect();
        if w % 2 == 0 {
            for i in crops {
                calls.push(("serve.recognize_batch.b1".to_string(), i as u64, vec![i]));
            }
        } else if !crops.is_empty() {
            calls.push((format!("serve.recognize_batch.b{}", crops.len()), w as u64, crops));
        }
    }
    calls
}

impl Replay {
    /// Built the way `RecognizerService::new` builds the service
    /// defaults: ShapeNetSet1 gallery, seeded network, tower embeddings.
    fn new() -> Result<Replay, String> {
        let cfg = ServiceConfig::default();
        let service = RecognizerService::new(cfg.clone()).map_err(|e| e.to_string())?;
        let catalog = shapenet_set1(cfg.seed);
        let fallback = Recognizer::try_new(&catalog, cfg.method, Background::Black)
            .map_err(|e| e.to_string())?;
        let mut net_cfg = cfg.net.clone();
        net_cfg.seed = cfg.seed;
        let net = NormXCorrNet::new(net_cfg.clone()).map_err(|e| e.to_string())?;
        let views: Vec<Tensor> =
            catalog.images.iter().map(|li| image_to_tensor(&li.image, &net_cfg)).collect();
        let refs: Vec<&Tensor> = views.iter().collect();
        let gallery = Tensor::stack_batch(&refs)
            .and_then(|b| net.tower_embed(&b))
            .map_err(|e| e.to_string())?;
        Ok(Replay { service, fallback, net, net_cfg, gallery, gallery_len: views.len() })
    }

    /// Replay `reqs` through the server's stages, each request once:
    /// parse the recorded request bytes, decode the body, recognise the
    /// crops ([`recognition_calls`]: one per call in even windows, the
    /// window's crops in one call in odd ones), write the response.
    fn run(&self, tr: &mut Tracer, pool: &Pool, reqs: &[Req], tally: &mut Tally) {
        let limits = HttpLimits::default();
        let calls = recognition_calls(reqs);
        tr.span("bench.replay", 0, |tr| {
            let mut decoded = Vec::with_capacity(reqs.len());
            for (i, &req) in reqs.iter().enumerate() {
                let id = i as u64;
                let body = pool.body(req);
                let mut raw = request_head(body.len()).into_bytes();
                raw.extend_from_slice(&body);
                let parsed = tr.span("serve.http.parse", id, |_| {
                    ConnectionReader::new(Cursor::new(&raw[..])).next_request(
                        &limits,
                        &Deadline::after(Duration::from_secs(5)),
                        Duration::from_secs(5),
                        &|| false,
                    )
                });
                decoded.push(match parsed {
                    Ok(Some(request)) => {
                        match tr.span("core.wire.decode", id, |_| decode_crop(&request.body)) {
                            Ok((img, stats)) => Decoded::Crop(img, stats),
                            Err(e) => Decoded::Rejected(
                                Response::error(400, &format!("bad crop: {e}")).body,
                            ),
                        }
                    }
                    _ => Decoded::Failed("replay: request did not parse".into()),
                });
            }
            let mut answers: Vec<Option<Vec<u8>>> = vec![None; reqs.len()];
            for (name, id, crops) in &calls {
                let (sent, items): (Vec<usize>, Vec<(RgbImage, DecodeStats, bool)>) = crops
                    .iter()
                    .filter_map(|&i| match decoded.get(i) {
                        Some(Decoded::Crop(img, stats)) => Some((i, (img.clone(), *stats, true))),
                        _ => None,
                    })
                    .unzip();
                let resps = tr.span(name, *id, |_| self.service.recognize_batch(&items));
                for (&i, r) in sent.iter().zip(&resps) {
                    answers[i] = Some(serde_json::to_string(r).unwrap_or_default().into_bytes());
                }
            }
            for (i, (&req, dec)) in reqs.iter().zip(decoded).enumerate() {
                let (status, body) = match (dec, answers[i].take()) {
                    (Decoded::Crop(..), Some(body)) => (200, body),
                    (Decoded::Crop(..), None) => (500, Vec::new()),
                    (Decoded::Rejected(body), _) => (400, body),
                    (Decoded::Failed(why), _) => {
                        tally.add(&Verdict::Failed(why));
                        continue;
                    }
                };
                let resp = Response::json(status, body.clone());
                let mut out = Vec::new();
                let written =
                    tr.span("serve.http.write", i as u64, |_| write_response(&mut out, &resp, true));
                tally.add(&match written {
                    Ok(()) => pool.judge(req, &Ok((status, body))),
                    Err(_) => Verdict::Failed("replay: write failed".into()),
                });
            }
        });
    }

    /// Time, outside the traced replay and on the same crops, the work
    /// `recognize_batch` does inside each recognition call: resize,
    /// tensor conversion, tower forward (alone or batched as in the
    /// call), head sweep. Returns the per-request probes and the tower
    /// time per recognition call. The fallback pipeline, which the
    /// default server only runs when the primary fails, is timed last on
    /// its own. Call once with a disabled tracer first to warm up.
    fn probe(&self, probes: &mut Tracer, pool: &Pool, reqs: &[Req]) -> (Vec<CropProbe>, Vec<u64>) {
        let (w, h) = (self.net_cfg.width as u32, self.net_cfg.height as u32);
        let mut per_req = vec![CropProbe::default(); reqs.len()];
        let mut towers = Vec::new();
        for (name, call_id, crops) in recognition_calls(reqs) {
            let mut tensors = Vec::with_capacity(crops.len());
            for &i in &crops {
                let Some(Req::Crop(c)) = reqs.get(i) else { continue };
                let img = &pool.crops[*c];
                let id = i as u64;
                let p = &mut per_req[i];
                p.resize = probes.timed("imgproc.resize", id, |_| resize_bilinear_rgb(img, w, h)).1;
                let (t, ns) =
                    probes.timed("core.image_to_tensor", id, |_| image_to_tensor(img, &self.net_cfg));
                p.tensor = ns;
                tensors.push(t);
            }
            let refs: Vec<&Tensor> = tensors.iter().collect();
            let tower = format!("nn.tower_embed.{}", name.rsplit('.').next().unwrap_or("b1"));
            let (embeds, ns) = probes.timed(&tower, call_id, |_| {
                Tensor::stack_batch(&refs)
                    .and_then(|x| self.net.tower_embed(&x))
                    .and_then(|e| e.split_batch())
            });
            towers.push(ns);
            for (&i, e) in crops.iter().zip(embeds.unwrap_or_default()) {
                let rows: Vec<&Tensor> = std::iter::repeat_n(&e, self.gallery_len).collect();
                per_req[i].head = probes
                    .timed("nn.head", i as u64, |_| {
                        Tensor::stack_batch(&rows)
                            .and_then(|q| self.net.predict_similar_features(&q, &self.gallery))
                    })
                    .1;
            }
        }
        for (i, req) in reqs.iter().enumerate() {
            if let Req::Crop(c) = req {
                let img = &pool.crops[*c];
                probes.span("core.fallback.recognize", i as u64, |_| self.fallback.recognize(img));
            }
        }
        (per_req, towers)
    }

    /// Move the probed work out of each recognition span's self time:
    /// resize to `imgproc`, the rest of `image_to_tensor` to `core`, the
    /// tower and head to `nn`; `serve` keeps the remainder (stacking,
    /// ranking, the response). Returns the spans that could not be found.
    fn credit(tr: &mut Tracer, reqs: &[Req], per_req: &[CropProbe], towers: &[u64]) -> usize {
        let mut missing = 0;
        for ((name, id, crops), &tower) in recognition_calls(reqs).iter().zip(towers) {
            let sum = |f: fn(&CropProbe) -> u64| crops.iter().map(|&i| f(&per_req[i])).sum::<u64>();
            let resize = sum(|p| p.resize);
            let found = [
                ("imgproc", resize),
                ("core", sum(|p| p.tensor).saturating_sub(resize)),
                ("nn", tower + sum(|p| p.head)),
            ]
            .into_iter()
            .all(|(layer, ns)| tr.credit(name, *id, layer, ns));
            missing += usize::from(!found);
        }
        missing
    }
}

/// The traced run: HTTP phases for the counters the server exposes,
/// then the in-process replay for the per-layer times.
pub fn run_traced(ctx: &Ctx) -> Result<RunResult, String> {
    let pool = Pool::with_expected(include_str!("../expected/serve.txt"))?;
    let mut tally = Tally::default();
    let mut notes = Vec::new();
    let mut figs = Figures::default();

    let (srv, _) = spawn_ready(ctx, &pool, &mut tally)?;
    let addr = srv.addr;
    let warm = closed_loop(
        addr,
        &pool,
        &sequence(ctx.seed, STREAM_WARMUP, WARMUP_REQUESTS, pool.crops.len()),
    );
    tally.merge(&warm.tally);
    let h0 = healthz(addr)?;
    let closed = closed_loop(
        addr,
        &pool,
        &sequence(ctx.seed, STREAM_CLOSED, CLOSED_PASS_REQUESTS, pool.crops.len()),
    );
    let h1 = healthz(addr)?;
    let (high, high_valid) =
        open_phase(addr, &pool, ctx, STREAM_HIGH, RATE_HIGH, ctx.seconds * 0.3);
    let h2 = healthz(addr)?;
    drop(srv);
    for p in [&closed, &high] {
        tally.merge(&p.tally);
    }
    if !high_valid {
        notes.push("open-loop phase high INVALID: generator ran late".to_string());
    }
    notes.push(format!(
        "healthz between phases (shed, timeouts, degraded): {h0:?} -> {h1:?} -> {h2:?}"
    ));
    let reconnects = warm.reconnects + closed.reconnects + high.reconnects;
    figs.set("serve.reconnects", reconnects as f64, "count", 1);
    for (k, name) in ["shed", "timeouts", "degraded"].iter().enumerate() {
        figs.set(&format!("serve.healthz.{name}"), h2[k].saturating_sub(h0[k]) as f64, "count", 1);
    }
    figs.set(
        "loadgen.late_ms.p99",
        percentile(&high.late_ms, 99.0),
        "ms",
        high.late_ms.len() as u64,
    );
    let client_p50 = percentile(&closed.lat_ms, 50.0);
    figs.set("serve.client_p50_ms", client_p50, "ms", closed.lat_ms.len() as u64);

    let replay = Replay::new()?;
    let reqs = sequence(ctx.seed, STREAM_CLOSED, REPLAY_REQUESTS, pool.crops.len());
    let rejects = reqs.iter().filter(|r| matches!(r, Req::Malformed { .. })).count();
    figs.set("core.wire.rejects", rejects as f64, "count", 1);
    // A first, untimed replay warms the freshly built in-process service.
    replay.run(&mut Tracer::new(false), &pool, &reqs, &mut tally);
    let (mut tr, untraced_s) = bracketed(|tr| {
        replay.run(tr, &pool, &reqs, &mut tally);
        Ok::<(), String>(())
    })?;
    replay.probe(&mut Tracer::new(false), &pool, &reqs);
    let mut probes = Tracer::new(true);
    let (per_req, towers) = replay.probe(&mut probes, &pool, &reqs);
    let missing = Replay::credit(&mut tr, &reqs, &per_req, &towers);
    if missing > 0 {
        return Err(format!("{missing} recognition spans missing from the traced replay"));
    }
    let b = breakdown(&tr, &probes);
    fill_layers(&mut figs, &b, untraced_s);
    let stage_ms =
        ["serve.http.parse", "core.wire.decode", "serve.recognize_batch.b1", "serve.http.write"]
            .iter()
            .map(|n| b.get(n).mean_us() / 1e3)
            .sum::<f64>();
    figs.set("serve.unattributed_ms", client_p50 - stage_ms, "ms", closed.lat_ms.len() as u64);
    notes.push(format!(
        "requests: {} attempted, {} correct 200, {} expected 400, {} failed {:?}",
        tally.attempted, tally.ok, tally.rejected, tally.failed, tally.reasons
    ));
    let spans = Some((tr, probes));
    Ok(RunResult { figs, attempted: tally.attempted, failed: tally.failed, notes, spans })
}

/// Record the expected answers for the pool: primary bodies from a
/// default server, degraded bodies from one forced down the fallback
/// path with `--chaos-siamese-error`.
pub fn record_expected(ctx: &Ctx) -> Result<String, String> {
    let pool = Pool::render();
    let bodies = |args: &[&str]| -> Result<Vec<u64>, String> {
        let srv = ServerProc::spawn(&ctx.taor_serve, args)?;
        let mut c = Client::new(srv.addr);
        pool.wire
            .iter()
            .map(|w| match c.post(w)? {
                (200, body) => Ok(fnv64(&body)),
                (s, _) => Err(format!("recording: status {s}")),
            })
            .collect()
    };
    let primary = bodies(&[])?;
    let degraded = bodies(&["--chaos-siamese-error"])?;
    let mut out = String::from(
        "# NYUSet pool crop (seed 2019, 20 per class): index, FNV-1a 64 digests of the wire\n\
         # crop, the default server's body and the degraded (fallback) body.\n",
    );
    for (i, w) in pool.wire.iter().enumerate() {
        out.push_str(&format!("{i} {:016x} {:016x} {:016x}\n", fnv64(w), primary[i], degraded[i]));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_malformed_kind_is_rejected_by_the_decoder() {
        let pool = Pool::render();
        for kind in 0..MALFORMED_KINDS {
            assert!(decode_crop(&malformed(kind, &pool.wire[3])).is_err(), "kind {kind}");
        }
        assert!(decode_crop(&pool.wire[3]).is_ok());
    }

    #[test]
    fn sequences_are_seeded_and_mix_in_malformed_bodies() {
        let a = sequence(5, STREAM_CLOSED, 5000, 200);
        assert_eq!(a, sequence(5, STREAM_CLOSED, 5000, 200));
        assert_ne!(a, sequence(6, STREAM_CLOSED, 5000, 200));
        let bad = a.iter().filter(|r| matches!(r, Req::Malformed { .. })).count();
        assert!((50..150).contains(&bad), "{bad} malformed of 5000");
    }

    /// A corrupted expected digest turns a correct answer into a failure.
    #[test]
    fn a_corrupted_expectation_is_caught() {
        let mut pool = Pool::with_expected(include_str!("../expected/serve.txt")).expect("pool");
        let service = RecognizerService::new(ServiceConfig::default()).expect("service");
        let (img, stats) = decode_crop(&pool.wire[7]).expect("decodes");
        let resp = service.recognize_batch(&[(img, stats, true)]);
        let body = serde_json::to_string(&resp[0]).expect("serialises").into_bytes();
        let answer = Ok((200, body));
        assert!(matches!(pool.judge(Req::Crop(7), &answer), Verdict::Correct { degraded: false }));
        pool.expected[7][1] ^= 1;
        assert!(matches!(pool.judge(Req::Crop(7), &answer), Verdict::Failed(_)));
        assert!(matches!(pool.judge(Req::Crop(7), &Err("reset".into())), Verdict::Failed(_)));
    }
}
