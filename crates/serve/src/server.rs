//! The HTTP server: connection threads in front, recognition workers
//! behind a bounded admission queue, and the status mapping that makes
//! every failure mode visible to the client.
//!
//! | condition | status |
//! |---|---|
//! | recognised crop | 200 (body may say `degraded: true`) |
//! | malformed HTTP or wire crop | 400 |
//! | unknown path | 404 |
//! | method mismatch | 405 |
//! | client too slow delivering the request | 408 |
//! | declared body over the cap | 413 |
//! | admission queue full | 429 + `Retry-After` |
//! | panic inside one request | 500 |
//! | shutting down | 503 |
//! | deadline missed | 504 |
//!
//! Connection threads only parse, enqueue and respond; recognition
//! happens on a fixed pool of workers that drain the queue in
//! micro-batches. Connections persist (HTTP/1.1 keep-alive, pipelining
//! included) under explicit per-connection limits: an idle timeout, a
//! max-requests-per-connection cap, and the per-request header/body/
//! read budgets. Shutdown is graceful: the accept loop stops, kept-
//! alive sockets refuse new requests while in-flight responses finish
//! (bounded by their read budgets and deadlines), queued work drains,
//! workers exit.

use crate::http::{write_response, ConnectionReader, HttpError, HttpLimits, Request, Response};
use crate::robust::{isolate, AdmissionQueue, AdmitError, Deadline};
use crate::service::RecognizerService;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;
use taor_model::sync::{AtomicBool, Ordering};

use taor_core::wire::DecodeStats;
use taor_imgproc::image::RgbImage;

/// Tunables of one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 to let the OS pick.
    pub addr: String,
    /// Recognition worker threads.
    pub workers: usize,
    /// Admission queue capacity; beyond it requests are shed (429).
    pub queue_cap: usize,
    /// Micro-batch cap: how many queued requests one worker wakeup may
    /// drain into a single batched forward.
    pub batch: usize,
    /// Per-request deadline from admission to answer.
    pub deadline: Duration,
    /// When less than this budget remains at recognition time, skip the
    /// expensive pipeline and answer degraded from the cheap one.
    pub degrade_margin: Duration,
    /// Total budget for reading one request off the socket.
    pub read_budget: Duration,
    /// Requests served on one connection before the server closes it
    /// (a rotation bound so no client monopolises a thread forever).
    pub max_requests_per_conn: usize,
    /// How long a kept-alive connection may sit idle between requests
    /// before the server closes it.
    pub idle_timeout: Duration,
    /// Transport size limits.
    pub limits: HttpLimits,
    /// Honour the `X-Taor-Test-Delay-Ms` header (tests only: lets a
    /// client saturate the queue deterministically).
    pub allow_test_delay: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_cap: 64,
            batch: 4,
            deadline: Duration::from_secs(2),
            degrade_margin: Duration::from_millis(100),
            read_budget: Duration::from_secs(2),
            max_requests_per_conn: 128,
            idle_timeout: Duration::from_secs(5),
            limits: HttpLimits::default(),
            allow_test_delay: false,
        }
    }
}

/// What a worker sends back for one job.
enum WorkOutcome {
    Answered(Box<crate::service::ServiceResponse>),
    TimedOut,
    Panicked(String),
}

/// One admitted request.
struct Job {
    image: RgbImage,
    stats: DecodeStats,
    deadline: Deadline,
    test_delay: Duration,
    resp: mpsc::SyncSender<WorkOutcome>,
}

impl Job {
    /// Deliver the outcome to the waiting connection thread. A send
    /// error means the requester stopped waiting (its `recv_timeout`
    /// safety margin elapsed and it already answered 500); there is
    /// nobody left to tell, so the outcome is dropped by design.
    fn respond(self, outcome: WorkOutcome) {
        // taor-lint: allow(err::swallowed-result) — disconnected
        // receiver = requester gave up; dropping the outcome is the
        // contract (see recv_timeout in handle_recognize).
        let _ = self.resp.send(outcome);
    }
}

/// A running server; dropping it shuts it down gracefully.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    queue: Arc<AdmissionQueue<Job>>,
}

impl Server {
    /// Bind, start the accept loop and the worker pool.
    pub fn spawn(service: Arc<RecognizerService>, cfg: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let queue = Arc::new(AdmissionQueue::new(cfg.queue_cap));
        let shutdown = Arc::new(AtomicBool::new(false));

        let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
            .map(|_| {
                let service = Arc::clone(&service);
                let queue = Arc::clone(&queue);
                let cfg = cfg.clone();
                std::thread::spawn(move || worker_loop(&service, &queue, &cfg))
            })
            .collect();

        let accept = {
            let shutdown = Arc::clone(&shutdown);
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || accept_loop(&listener, &service, &queue, &cfg, &shutdown))
        };

        Ok(Server { addr, shutdown, accept: Some(accept), workers, queue })
    }

    /// The bound address (with the OS-assigned port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Items currently waiting for a worker.
    pub fn queue_depth(&self) -> usize {
        self.queue.depth()
    }

    /// Graceful shutdown: stop accepting, finish open connections,
    /// drain the queue, join every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        // Ordering::SeqCst — cold shutdown handoff; strongest ordering
        // keeps the flag trivially correct.
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept.take() {
            // taor-lint: allow(err::swallowed-result) — a panicked
            // accept thread leaves nothing to recover; stop() runs in
            // Drop and must not double-panic.
            let _ = h.join();
        }
        self.queue.close();
        for h in self.workers.drain(..) {
            // taor-lint: allow(err::swallowed-result) — a panicked
            // worker already answered its jobs through isolate(); see
            // above, Drop must not double-panic.
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Arc<RecognizerService>,
    queue: &Arc<AdmissionQueue<Job>>,
    cfg: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    // Ordering::SeqCst — cold shutdown handoff; strongest ordering
    // keeps the flag trivially correct.
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                conns.retain(|h| !h.is_finished());
                let service = Arc::clone(service);
                let queue = Arc::clone(queue);
                let cfg = cfg.clone();
                let shutdown = Arc::clone(shutdown);
                conns.push(std::thread::spawn(move || {
                    handle_conn(stream, &service, &queue, &cfg, &shutdown)
                }));
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    // Open connections are bounded by their read budgets and deadlines.
    for h in conns {
        // taor-lint: allow(err::swallowed-result) — a connection thread
        // that panicked has already dropped its socket (the client sees
        // the close); draining must reach every remaining handle.
        let _ = h.join();
    }
}

/// How often a blocked socket read wakes up to re-check deadlines and
/// the shutdown flag. Purely a poll interval: correctness comes from
/// the deadlines, this only bounds how stale they can be observed.
const READ_POLL: Duration = Duration::from_millis(100);

/// One connection: read requests until the client closes, a limit
/// trips, a transport error poisons the framing, or the server drains.
///
/// Responses go out in request order (pipelined clients get pipelined
/// answers); each response's `Connection` header tells the client
/// whether the server will read another request.
fn handle_conn(
    stream: TcpStream,
    service: &Arc<RecognizerService>,
    queue: &Arc<AdmissionQueue<Job>>,
    cfg: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
) {
    // taor-lint: allow(err::swallowed-result) — best-effort socket
    // tuning: on failure reads stay blocking and the connection is
    // still bounded by its read budget and deadline.
    let _ = stream.set_read_timeout(Some(READ_POLL));
    // taor-lint: allow(err::swallowed-result) — same best-effort
    // tuning as the read timeout above.
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let mut reader = ConnectionReader::new(stream);
    // Ordering::SeqCst — cold shutdown handoff; strongest ordering
    // keeps the flag trivially correct.
    let draining = || shutdown.load(Ordering::SeqCst);
    let mut served = 0usize;
    loop {
        if draining() {
            break; // refuse new requests on the kept-alive socket
        }
        // The first request must start arriving within the read budget
        // (the PR 7 contract); between kept-alive requests the client
        // gets the idle timeout instead.
        let idle = Deadline::after(if served == 0 { cfg.read_budget } else { cfg.idle_timeout });
        let (response, reuse) =
            match reader.next_request(&cfg.limits, &idle, cfg.read_budget, &draining) {
                // Quiescent: EOF, idle expiry, or drain — close quietly.
                Ok(None) => break,
                Ok(Some(req)) => {
                    served += 1;
                    let response = route(&req, service, queue, cfg);
                    // An overload or server-side answer (429, 5xx) closes:
                    // the client is told to back off, so holding this
                    // thread for the idle timeout would only add to the
                    // overload. A 404 or 405 on sound framing keeps it.
                    let overloaded = response.status == 429 || response.status >= 500;
                    let reuse = req.keep_alive
                        && !overloaded
                        && served < cfg.max_requests_per_conn
                        && !draining();
                    (response, reuse)
                }
                // Mid-request failures poison the framing: answer typed,
                // then close rather than guess where the next request
                // starts.
                Err(e) => (transport_error_response(&e), false),
            };
        if write_response(reader.get_mut(), &response, reuse).is_err() || !reuse {
            break;
        }
    }
    // taor-lint: allow(err::swallowed-result) — courtesy FIN on a
    // connection that is closing anyway; the peer may already be gone.
    let _ = reader.into_inner().shutdown(std::net::Shutdown::Both);
}

fn transport_error_response(e: &HttpError) -> Response {
    match e {
        HttpError::Malformed(_) => Response::error(400, &e.to_string()),
        HttpError::BodyTooLarge { .. } => Response::error(413, &e.to_string()),
        HttpError::Timeout => Response::error(408, &e.to_string()),
        // The write will almost certainly fail too; answer anyway.
        HttpError::Disconnected | HttpError::Io(_) => Response::error(400, &e.to_string()),
    }
}

fn route(
    req: &Request,
    service: &Arc<RecognizerService>,
    queue: &Arc<AdmissionQueue<Job>>,
    cfg: &ServerConfig,
) -> Response {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("GET", "/healthz") => healthz(service, queue),
        ("POST", "/recognize") => recognize(req, service, queue, cfg),
        (_, "/healthz") | (_, "/recognize") => {
            Response::error(405, &format!("{} not allowed here", req.method))
        }
        _ => Response::error(404, &format!("no route for {path}")),
    }
}

/// Liveness + the JSON snapshot of the degradation ledger.
fn healthz(service: &Arc<RecognizerService>, queue: &Arc<AdmissionQueue<Job>>) -> Response {
    #[derive(serde::Serialize)]
    struct Health {
        status: String,
        reference_views: u64,
        gallery_size: u64,
        queue_depth: u64,
        queue_capacity: u64,
        diagnostics: taor_core::DiagnosticsReport,
    }
    let health = Health {
        status: "ok".to_string(),
        reference_views: service.reference_count() as u64,
        gallery_size: service.gallery_size() as u64,
        queue_depth: queue.depth() as u64,
        queue_capacity: queue.capacity() as u64,
        diagnostics: service.diagnostics(),
    };
    Response::json(200, serde_json::to_string(&health).unwrap_or_default())
}

fn recognize(
    req: &Request,
    service: &Arc<RecognizerService>,
    queue: &Arc<AdmissionQueue<Job>>,
    cfg: &ServerConfig,
) -> Response {
    let test_delay = if cfg.allow_test_delay {
        req.header("x-taor-test-delay-ms")
            .and_then(|v| v.parse::<u64>().ok())
            .map(Duration::from_millis)
            .unwrap_or(Duration::ZERO)
    } else {
        Duration::ZERO
    };

    let (image, stats) = match service.decode(&req.body) {
        Ok(decoded) => decoded,
        Err(e) => return Response::error(400, &format!("bad crop: {e}")),
    };

    let deadline = Deadline::after(cfg.deadline);
    let (tx, rx) = mpsc::sync_channel(1);
    let job = Job { image, stats, deadline, test_delay, resp: tx };
    match queue.try_push(job) {
        Err(AdmitError::Shed { depth }) => {
            service.record_shed();
            let mut resp = Response::error(429, &format!("admission queue full ({depth} queued)"));
            resp.headers.push(("Retry-After", "1".to_string()));
            resp
        }
        Err(AdmitError::Closed) => Response::error(503, "shutting down"),
        Ok(()) => {
            // Workers answer Timeout themselves; the extra grace only
            // covers a worker that died mid-request.
            let wait = cfg.deadline + test_delay + Duration::from_secs(5);
            match rx.recv_timeout(wait) {
                Ok(WorkOutcome::Answered(body)) => {
                    Response::json(200, serde_json::to_string(&*body).unwrap_or_default())
                }
                Ok(WorkOutcome::TimedOut) => Response::error(504, "deadline exceeded"),
                Ok(WorkOutcome::Panicked(msg)) => {
                    Response::error(500, &format!("request failed: {msg}"))
                }
                Err(_) => {
                    service.record_timeout();
                    Response::error(504, "worker did not answer in time")
                }
            }
        }
    }
}

/// Worker: drain micro-batches, enforce deadlines, isolate panics.
fn worker_loop(
    service: &Arc<RecognizerService>,
    queue: &Arc<AdmissionQueue<Job>>,
    cfg: &ServerConfig,
) {
    while let Some(batch) = queue.pop_batch(cfg.batch, Duration::from_millis(50)) {
        if batch.is_empty() {
            continue;
        }
        // Deterministic-test hook: the configured delay simulates slow
        // recognition while this worker holds the slot.
        let delay = batch.iter().map(|j| j.test_delay).max().unwrap_or(Duration::ZERO);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }

        let mut live = Vec::new();
        for job in batch {
            if job.deadline.expired() {
                service.record_timeout();
                job.respond(WorkOutcome::TimedOut);
            } else {
                live.push(job);
            }
        }
        if live.is_empty() {
            continue;
        }

        let items: Vec<(RgbImage, DecodeStats, bool)> = live
            .iter()
            .map(|j| (j.image.clone(), j.stats, j.deadline.remaining() >= cfg.degrade_margin))
            .collect();
        match isolate(|| service.recognize_batch(&items)) {
            Ok(responses) if responses.len() == live.len() => {
                for (job, resp) in live.into_iter().zip(responses) {
                    if job.deadline.expired() {
                        service.record_timeout();
                        job.respond(WorkOutcome::TimedOut);
                    } else {
                        job.respond(WorkOutcome::Answered(Box::new(resp)));
                    }
                }
            }
            _ => {
                // The batch panicked (or answered short): retry each
                // job alone behind its own wall so only the poisoned
                // request fails.
                for job in live {
                    let item = [(
                        job.image.clone(),
                        job.stats,
                        job.deadline.remaining() >= cfg.degrade_margin,
                    )];
                    match isolate(|| service.recognize_batch(&item).into_iter().next()) {
                        Ok(Some(resp)) => {
                            job.respond(WorkOutcome::Answered(Box::new(resp)));
                        }
                        Ok(None) => {
                            job.respond(WorkOutcome::Panicked("empty batch result".to_string()));
                        }
                        Err(msg) => {
                            job.respond(WorkOutcome::Panicked(msg));
                        }
                    }
                }
            }
        }
    }
}
