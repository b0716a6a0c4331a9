//! `taor-serve` — the recognition service binary.
//!
//! ```text
//! taor-serve [--addr 127.0.0.1:0] [--workers N] [--queue-cap N]
//!            [--deadline-ms N] [--degrade-margin-ms N]
//!            [--read-budget-ms N] [--max-body BYTES] [--seed N]
//!            [--max-requests-per-conn N] [--idle-timeout-ms N]
//!            [--method hybrid|shape|color] [--no-siamese]
//!            [--chaos-siamese-error] [--allow-test-delay]
//! ```
//!
//! Prints `taor-serve listening on ADDR` once ready (tests and scripts
//! parse that line for the OS-assigned port), then serves until
//! SIGTERM/SIGINT, drains gracefully and exits 0.

use std::sync::Arc;
use std::time::Duration;

use taor_core::prelude::{ColorScorer, Method, ShapeScorer};
use taor_serve::{signal, RecognizerService, Server, ServerConfig, ServiceConfig};

const USAGE: &str = "taor-serve: recognition-as-a-service over the taor pipelines
  --addr A               bind address (default 127.0.0.1:0)
  --workers N            recognition worker threads (default 2)
  --queue-cap N          admission queue capacity, at least 1 (default 64)
  --deadline-ms N        per-request deadline (default 2000)
  --degrade-margin-ms N  skip the expensive pipeline below this remaining budget (default 100)
  --read-budget-ms N     total budget for reading one request (default 2000)
  --max-body BYTES       request body cap (default 2 MiB)
  --max-requests-per-conn N  requests served per connection before rotation (default 128)
  --idle-timeout-ms N    close kept-alive connections idle this long (default 5000)
  --seed N               gallery + network seed (default 2019)
  --method M             fallback pipeline: hybrid | shape | color (default hybrid)
  --no-siamese           answer from the cheap pipeline only
  --chaos-siamese-error  force the siamese step to fail (degrade-ladder testing)
  --allow-test-delay     honour X-Taor-Test-Delay-Ms (tests only)";

fn main() {
    if let Err(msg) = run() {
        eprintln!("taor-serve: {msg}");
        std::process::exit(2);
    }
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse()
        .map_err(|_| format!("{flag}: unparseable value"))
}

fn run() -> Result<(), String> {
    let mut server_cfg = ServerConfig::default();
    let mut service_cfg = ServiceConfig::default();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => server_cfg.addr = parse("--addr", args.next())?,
            "--workers" => server_cfg.workers = parse("--workers", args.next())?,
            "--queue-cap" => {
                server_cfg.queue_cap = parse("--queue-cap", args.next())?;
                if server_cfg.queue_cap == 0 {
                    return Err("--queue-cap must be at least 1: a zero-capacity admission \
                                queue sheds every request"
                        .into());
                }
            }
            "--deadline-ms" => {
                server_cfg.deadline = Duration::from_millis(parse("--deadline-ms", args.next())?)
            }
            "--degrade-margin-ms" => {
                server_cfg.degrade_margin =
                    Duration::from_millis(parse("--degrade-margin-ms", args.next())?)
            }
            "--read-budget-ms" => {
                server_cfg.read_budget =
                    Duration::from_millis(parse("--read-budget-ms", args.next())?)
            }
            "--max-body" => server_cfg.limits.max_body = parse("--max-body", args.next())?,
            "--max-requests-per-conn" => {
                server_cfg.max_requests_per_conn =
                    parse::<usize>("--max-requests-per-conn", args.next())?.max(1)
            }
            "--idle-timeout-ms" => {
                server_cfg.idle_timeout =
                    Duration::from_millis(parse("--idle-timeout-ms", args.next())?)
            }
            "--seed" => service_cfg.seed = parse("--seed", args.next())?,
            "--method" => {
                service_cfg.method = match args.next().as_deref() {
                    Some("hybrid") => Method::default(),
                    Some("shape") => Method::Shape(ShapeScorer::ALL[2]),
                    Some("color") => Method::Color(ColorScorer::ALL[3]),
                    other => return Err(format!("--method: unknown pipeline {other:?}")),
                }
            }
            "--no-siamese" => service_cfg.use_siamese = false,
            "--chaos-siamese-error" => service_cfg.chaos_siamese_error = true,
            "--allow-test-delay" => server_cfg.allow_test_delay = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(());
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }

    signal::install_handlers();

    let service = Arc::new(
        RecognizerService::new(service_cfg).map_err(|e| format!("building the service: {e}"))?,
    );
    let server = Server::spawn(Arc::clone(&service), server_cfg)
        .map_err(|e| format!("binding the server: {e}"))?;
    println!("taor-serve listening on {}", server.local_addr());
    use std::io::Write as _;
    // taor-lint: allow(err::swallowed-result) — best-effort flush of
    // the listening banner; a broken stdout must not kill the server.
    let _ = std::io::stdout().flush();

    while !signal::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    server.shutdown();
    let report = service.diagnostics();
    println!(
        "taor-serve: graceful shutdown (shed {}, timeouts {}, degraded {})",
        report.shed, report.timeouts, report.degraded
    );
    Ok(())
}
