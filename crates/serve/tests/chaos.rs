//! The chaos harness: every fault injector and the full service-shaped
//! malformed-buffer corpus against a live server. The invariant under
//! every attack is the same — a typed response (or an observed
//! disconnect), no panic, and the server keeps answering well-formed
//! requests afterwards.

#[path = "common/chaos.rs"]
mod chaos;

use std::sync::Arc;
use std::time::Duration;

use chaos::{ChaosOutcome, PersistentClient};
use taor_core::wire::encode_rgb8;
use taor_imgproc::image::RgbImage;
use taor_serve::{RecognizerService, Server, ServerConfig, ServiceConfig};
use taor_testkit::fault::{service_corpus, ServiceCase, ServiceExpect};

fn crop_bytes() -> Vec<u8> {
    let mut img = RgbImage::new(48, 48);
    for y in 0..48 {
        for x in 0..48 {
            img.put_pixel(x, y, [(x * 3) as u8, (y * 4) as u8, 128]);
        }
    }
    encode_rgb8(&img)
}

fn spawn(server_cfg: ServerConfig) -> Server {
    let service = Arc::new(
        RecognizerService::new(ServiceConfig { use_siamese: false, ..ServiceConfig::default() })
            .expect("service builds"),
    );
    Server::spawn(service, server_cfg).expect("server binds")
}

/// The server is alive and sane: healthz 200, a valid crop answers 200.
fn assert_still_serving(server: &Server, context: &str) {
    let addr = server.local_addr();
    let (status, _) = chaos::get(addr, "/healthz").unwrap_or_else(|e| {
        panic!("healthz unreachable after {context}: {e}");
    });
    assert_eq!(status, 200, "healthz broken after {context}");
    let (status, _) = chaos::post_crop(addr, &crop_bytes()).unwrap_or_else(|e| {
        panic!("recognize unreachable after {context}: {e}");
    });
    assert_eq!(status, 200, "valid crops rejected after {context}");
}

/// Every buffer in the shared service corpus gets its contractual
/// answer over HTTP: decodable crops 200, malformed buffers 400.
#[test]
fn status_and_body_parse_from_raw_responses() {
    let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"error\":\"full\"}";
    assert_eq!(chaos::parse_status(raw), Some(429));
    assert_eq!(chaos::parse_body(raw), b"{\"error\":\"full\"}");
    assert_eq!(chaos::parse_status(b"garbage"), None);
    assert!(chaos::parse_body(b"no blank line").is_empty());
}

#[test]
fn service_corpus_over_http_maps_to_200_and_400() {
    let server = spawn(ServerConfig::default());
    let addr = server.local_addr();
    for ServiceCase { name, bytes, expect } in service_corpus() {
        let (status, body) = chaos::post_crop(addr, &bytes)
            .unwrap_or_else(|e| panic!("case {name}: transport error {e}"));
        match expect {
            ServiceExpect::Decodes => {
                assert_eq!(status, 200, "case {name} should decode and answer");
                let text = String::from_utf8(body).unwrap();
                if name == "nan_pixels_f32" {
                    assert!(
                        !text.contains("\"quarantined_samples\":0"),
                        "case {name} must report quarantined samples: {text}"
                    );
                }
            }
            ServiceExpect::Rejected => {
                assert_eq!(status, 400, "case {name} should be rejected as malformed");
                let text = String::from_utf8(body).unwrap();
                assert!(text.contains("bad crop"), "case {name} body: {text}");
            }
        }
    }
    assert_still_serving(&server, "the service corpus");
    server.shutdown();
}

#[test]
fn truncated_body_answers_400_and_the_server_survives() {
    let server = spawn(ServerConfig::default());
    let outcome = chaos::truncated_body(server.local_addr());
    assert_eq!(outcome, ChaosOutcome::Responded(400), "truncated body must be a typed 400");
    assert_still_serving(&server, "a truncated body");
    server.shutdown();
}

#[test]
fn oversized_declaration_answers_413_and_the_server_survives() {
    let server = spawn(ServerConfig::default());
    let max = taor_serve::HttpLimits::default().max_body;
    let outcome = chaos::oversized_declaration(server.local_addr(), max + 1);
    assert_eq!(outcome, ChaosOutcome::Responded(413));
    assert_still_serving(&server, "an oversized declaration");
    server.shutdown();
}

#[test]
fn slow_loris_is_cut_off_by_the_read_budget() {
    let server =
        spawn(ServerConfig { read_budget: Duration::from_millis(300), ..ServerConfig::default() });
    let start = std::time::Instant::now();
    let outcome = chaos::slow_loris(server.local_addr(), 12, Duration::from_millis(100));
    // The server must answer 408 or drop the connection — and must not
    // let the dribbler hold a connection thread indefinitely.
    match outcome {
        ChaosOutcome::Responded(408)
        | ChaosOutcome::ConnectionClosed
        | ChaosOutcome::IoError(_) => {}
        other => panic!("slow-loris got an unexpected outcome: {other:?}"),
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "the read budget must bound a slow-loris connection"
    );
    assert_still_serving(&server, "a slow-loris client");
    server.shutdown();
}

#[test]
fn mid_request_disconnect_is_the_clients_problem() {
    let server = spawn(ServerConfig::default());
    for _ in 0..3 {
        let outcome = chaos::disconnect_mid_request(server.local_addr());
        assert!(
            matches!(outcome, ChaosOutcome::ConnectionClosed | ChaosOutcome::IoError(_)),
            "unexpected outcome: {outcome:?}"
        );
    }
    assert_still_serving(&server, "mid-request disconnects");
    server.shutdown();
}

/// Keep-alive reuse: several request/response exchanges on one socket,
/// each body identical to what a fresh connection answers.
#[test]
fn one_connection_serves_many_requests_with_identical_bodies() {
    let server = spawn(ServerConfig::default());
    let addr = server.local_addr();
    let crop = crop_bytes();
    let (_, fresh_body) = chaos::post_crop(addr, &crop).expect("fresh-connection answer");

    let mut client = PersistentClient::connect(addr).expect("connects");
    for round in 0..4 {
        let (status, body) = client.post_crop(&crop).expect("reused-connection answer");
        assert_eq!(status, 200, "round {round}");
        assert_eq!(body, fresh_body, "round {round}: reuse must not change the body");
    }
    // A /healthz on the same socket too: reuse is not per-endpoint.
    let (status, _) = client.roundtrip("GET", "/healthz", &[], false).unwrap();
    assert_eq!(status, 200);
    server.shutdown();
}

/// Pipelined burst: requests written back-to-back in one write are
/// answered in order on the same socket, none treated as an over-read
/// protocol error.
#[test]
fn pipelined_burst_is_answered_in_order() {
    let server = spawn(ServerConfig::default());
    let statuses = chaos::pipelined_burst(server.local_addr(), 6).expect("burst answered");
    assert_eq!(statuses, vec![200; 6], "every pipelined request answered 200");
    assert_still_serving(&server, "a pipelined burst");
    server.shutdown();
}

/// The second request arriving in the very same read as the first
/// body — the exact over-read PR 7 condemned as "more body bytes than
/// Content-Length" — is now the next request.
#[test]
fn second_request_in_the_same_read_as_the_first_body() {
    let server = spawn(ServerConfig::default());
    let crop = crop_bytes();
    let mut client = PersistentClient::connect(server.local_addr()).expect("connects");
    let mut burst = PersistentClient::request_bytes("POST", "/recognize", &crop, &[], false);
    burst.extend_from_slice(&PersistentClient::request_bytes("GET", "/healthz", &[], &[], true));
    client.send_raw(&burst).expect("one write carries both requests");
    let (first, _) = client.read_response().expect("first response");
    let (second, body) = client.read_response().expect("second response");
    assert_eq!((first, second), (200, 200));
    assert!(String::from_utf8(body).unwrap().contains("\"status\":\"ok\""));
    server.shutdown();
}

/// A request split mid-`\r\n\r\n` terminator: the head parser must wait
/// for the rest of the terminator, not reject or duplicate.
#[test]
fn request_split_mid_terminator_still_parses() {
    let server = spawn(ServerConfig::default());
    let mut client = PersistentClient::connect(server.local_addr()).expect("connects");
    let raw = PersistentClient::request_bytes("GET", "/healthz", &[], &[], true);
    let cut = raw.len() - 2; // between "\r\n" and the final "\r\n"
    client.send_raw(&raw[..cut]).expect("first half");
    std::thread::sleep(Duration::from_millis(120));
    client.send_raw(&raw[cut..]).expect("second half");
    let (status, _) = client.read_response().expect("split request answered");
    assert_eq!(status, 200);
    assert_still_serving(&server, "a split terminator");
    server.shutdown();
}

/// A zero-`Content-Length` POST frames cleanly (empty body), decodes as
/// a bad crop (400), and does not poison the connection.
#[test]
fn zero_content_length_post_is_a_clean_400() {
    let server = spawn(ServerConfig::default());
    let mut client = PersistentClient::connect(server.local_addr()).expect("connects");
    let (status, body) = client.roundtrip("POST", "/recognize", &[], false).unwrap();
    assert_eq!(status, 400, "an empty crop is a bad crop, not a framing error");
    assert!(String::from_utf8(body).unwrap().contains("bad crop"));
    // Framing stayed clean: the same socket still answers.
    let (status, _) = client.roundtrip("GET", "/healthz", &[], false).unwrap();
    assert_eq!(status, 200, "the connection survives a zero-length POST");
    server.shutdown();
}

/// Smuggling-shaped framing (conflicting Content-Length pair with a
/// hidden second request): hard 400, connection closed, hidden request
/// never answered.
#[test]
fn conflicting_content_length_is_400_and_never_smuggles() {
    let server = spawn(ServerConfig::default());
    let (outcome, smuggle_answered) = chaos::smuggled_framing(server.local_addr());
    assert_eq!(outcome, ChaosOutcome::Responded(400), "conflicting framing must be rejected");
    assert!(!smuggle_answered, "the hidden request must never be served");
    assert_still_serving(&server, "a smuggling-shaped request");
    server.shutdown();
}

/// Half a request, then a silent-but-open socket: the read budget must
/// answer 408 (or close) instead of parking the connection thread.
#[test]
fn half_request_then_idle_is_cut_off_by_the_read_budget() {
    let server =
        spawn(ServerConfig { read_budget: Duration::from_millis(300), ..ServerConfig::default() });
    let start = std::time::Instant::now();
    let outcome = chaos::half_request_then_idle(server.local_addr(), Duration::from_secs(1));
    match outcome {
        ChaosOutcome::Responded(408)
        | ChaosOutcome::ConnectionClosed
        | ChaosOutcome::IoError(_) => {}
        other => panic!("half-request-then-idle got an unexpected outcome: {other:?}"),
    }
    assert!(start.elapsed() < Duration::from_secs(10), "the budget must bound the stall");
    assert_still_serving(&server, "a half-request-then-idle client");
    server.shutdown();
}

/// The per-connection request cap closes the socket after the limit,
/// with the final response marked `Connection: close`.
#[test]
fn max_requests_per_conn_rotates_the_connection() {
    let server = spawn(ServerConfig { max_requests_per_conn: 2, ..ServerConfig::default() });
    let mut client = PersistentClient::connect(server.local_addr()).expect("connects");
    let (a, _) = client.roundtrip("GET", "/healthz", &[], false).unwrap();
    let (b, _) = client.roundtrip("GET", "/healthz", &[], false).unwrap();
    assert_eq!((a, b), (200, 200));
    assert!(client.server_closed(), "the server must close after the request cap");
    assert_still_serving(&server, "a rotated connection");
    server.shutdown();
}

/// `Connection: close` from the client is honoured even when the server
/// would happily keep the socket alive.
#[test]
fn client_requested_close_is_honoured() {
    let server = spawn(ServerConfig::default());
    let mut client = PersistentClient::connect(server.local_addr()).expect("connects");
    let (status, _) = client.roundtrip("GET", "/healthz", &[], true).unwrap();
    assert_eq!(status, 200);
    assert!(client.server_closed(), "Connection: close must end the connection");
    server.shutdown();
}

/// An idle kept-alive connection must not stall graceful shutdown:
/// the drain refuses new requests and closes the socket promptly.
#[test]
fn shutdown_drains_promptly_past_an_idle_kept_alive_connection() {
    let server = spawn(ServerConfig {
        // Idle timeout far longer than the drain should take: only the
        // shutdown poll can close this connection in time.
        idle_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    });
    let mut client = PersistentClient::connect(server.local_addr()).expect("connects");
    let (status, _) = client.roundtrip("GET", "/healthz", &[], false).unwrap();
    assert_eq!(status, 200);
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "an idle kept-alive socket held shutdown for {:?}",
        start.elapsed()
    );
    assert!(client.server_closed(), "drain must close the idle connection");
}

/// The kitchen sink: all injectors interleaved with valid traffic, then
/// a final health check. This is the chaos harness the issue asks for.
#[test]
fn interleaved_chaos_never_takes_the_server_down() {
    let server =
        spawn(ServerConfig { read_budget: Duration::from_millis(400), ..ServerConfig::default() });
    let addr = server.local_addr();
    for round in 0..2 {
        let _ = chaos::truncated_body(addr);
        assert_eq!(chaos::post_crop(addr, &crop_bytes()).unwrap().0, 200, "round {round}");
        let _ = chaos::disconnect_mid_request(addr);
        let _ = chaos::oversized_declaration(addr, 100 << 20);
        let _ = chaos::smuggled_framing(addr);
        let _ = chaos::pipelined_burst(addr, 3);
        let _ = chaos::half_request_then_idle(addr, Duration::from_millis(600));
        for ServiceCase { bytes, .. } in service_corpus() {
            let _ = chaos::post_crop(addr, &bytes);
        }
        assert_still_serving(&server, "an interleaved chaos round");
    }
    let (_, body) = chaos::get(addr, "/healthz").unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"status\":\"ok\""), "final health: {text}");
    server.shutdown();
}
