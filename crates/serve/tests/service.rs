//! End-to-end service behaviour over real sockets: the full status map,
//! backpressure, deadlines, degradation and the health snapshot.

#[path = "common/chaos.rs"]
mod chaos;

use std::sync::Arc;
use std::time::Duration;

use taor_core::wire::encode_rgb8;
use taor_imgproc::image::RgbImage;
use taor_serve::{RecognizerService, Server, ServerConfig, ServiceConfig};

/// A deterministic 48x48 gradient crop in wire format.
fn crop_bytes() -> Vec<u8> {
    let mut img = RgbImage::new(48, 48);
    for y in 0..48 {
        for x in 0..48 {
            img.put_pixel(x, y, [(x * 5) as u8, (y * 5) as u8, ((x + y) * 2) as u8]);
        }
    }
    encode_rgb8(&img)
}

fn spawn(service_cfg: ServiceConfig, server_cfg: ServerConfig) -> Server {
    let service = Arc::new(RecognizerService::new(service_cfg).expect("service builds"));
    Server::spawn(service, server_cfg).expect("server binds")
}

/// Cheap default: no siamese net so the gallery builds fast in debug.
fn cheap_cfg() -> ServiceConfig {
    ServiceConfig { use_siamese: false, ..ServiceConfig::default() }
}

#[test]
fn valid_crop_answers_200_with_a_full_body() {
    let server = spawn(cheap_cfg(), ServerConfig::default());
    let (status, body) = chaos::post_crop(server.local_addr(), &crop_bytes()).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"class\":"), "body: {text}");
    assert!(text.contains("\"ranking\":"), "body: {text}");
    assert!(text.contains("\"pipeline\":\"hybrid\""), "body: {text}");
    assert!(text.contains("\"degraded\":false"), "body: {text}");
    server.shutdown();
}

#[test]
fn malformed_crop_answers_400_with_a_typed_message() {
    let server = spawn(cheap_cfg(), ServerConfig::default());
    let (status, body) =
        chaos::post_crop(server.local_addr(), b"definitely not a TAOR buffer").unwrap();
    assert_eq!(status, 400);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("bad crop"), "body: {text}");
    server.shutdown();
}

#[test]
fn unknown_paths_and_wrong_methods_are_404_and_405() {
    let server = spawn(cheap_cfg(), ServerConfig::default());
    let addr = server.local_addr();
    assert_eq!(chaos::get(addr, "/nope").unwrap().0, 404);
    assert_eq!(chaos::get(addr, "/recognize").unwrap().0, 405);
    assert_eq!(chaos::post(addr, "/healthz", b"", &[]).unwrap().0, 405);
    server.shutdown();
}

#[test]
fn not_found_keeps_the_connection_for_the_next_request() {
    let server = spawn(cheap_cfg(), ServerConfig::default());
    let mut client = chaos::PersistentClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.roundtrip("GET", "/nope", b"", false).unwrap().0, 404);
    let (status, body) = client.roundtrip("GET", "/healthz", b"", false).unwrap();
    assert_eq!(status, 200, "the socket that got a 404 must serve the next request");
    assert!(String::from_utf8(body).unwrap().contains("\"status\":\"ok\""));
    server.shutdown();
}

#[test]
fn oversized_body_declaration_is_413_before_transfer() {
    let cfg = ServerConfig {
        limits: taor_serve::HttpLimits { max_body: 1024, ..Default::default() },
        ..ServerConfig::default()
    };
    let server = spawn(cheap_cfg(), cfg);
    let outcome = chaos::oversized_declaration(server.local_addr(), 4096);
    assert_eq!(outcome, chaos::ChaosOutcome::Responded(413));
    server.shutdown();
}

#[test]
fn saturated_queue_sheds_with_429_and_retry_after() {
    // One worker, one queue slot, batch of one: the first request (held
    // in the worker by the test delay) plus one queued request saturate
    // the service; everything after that must shed.
    let cfg = ServerConfig {
        workers: 1,
        queue_cap: 1,
        batch: 1,
        allow_test_delay: true,
        deadline: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let server = spawn(cheap_cfg(), cfg);
    let addr = server.local_addr();
    let crop = crop_bytes();

    // Staggered: the first slow request reaches the worker (and holds
    // it for 2.5 s), the second then occupies the single queue slot.
    let mut slow = Vec::new();
    for _ in 0..2 {
        let crop = crop.clone();
        slow.push(std::thread::spawn(move || {
            chaos::post(addr, "/recognize", &crop, &[("X-Taor-Test-Delay-Ms", "2500")])
        }));
        std::thread::sleep(Duration::from_millis(400));
    }

    let mut shed = 0;
    let mut retry_after_seen = false;
    for _ in 0..6 {
        // Raw keep-alive roundtrip so the headers are visible; the
        // server must close after a 429, or `read_to_end` waits out the
        // idle timeout.
        let raw = {
            let mut req = format!(
                "POST /recognize HTTP/1.1\r\nHost: taor\r\nContent-Length: {}\r\n\r\n",
                crop.len()
            )
            .into_bytes();
            req.extend_from_slice(&crop);
            req
        };
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream.write_all(&raw).unwrap();
        let mut resp = Vec::new();
        let _ = stream.read_to_end(&mut resp);
        let text = String::from_utf8_lossy(&resp);
        if text.starts_with("HTTP/1.1 429") {
            shed += 1;
            retry_after_seen |= text.contains("Retry-After: 1");
            let head = text.split("\r\n\r\n").next().unwrap_or("");
            assert!(head.contains("\r\nConnection: close"), "a 429 must close: {head}");
        }
    }
    for h in slow {
        let (status, _) = h.join().unwrap().expect("slow request transport");
        assert_eq!(status, 200, "the admitted slow requests must still be answered");
    }
    assert!(shed > 0, "a saturated queue must shed load with 429");
    assert!(retry_after_seen, "429 responses must carry Retry-After");
    // The shed counter made it to the health snapshot.
    let (status, body) = chaos::get(addr, "/healthz").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(!text.contains("\"shed\":0"), "healthz must report the shed requests: {text}");
    server.shutdown();
}

#[test]
fn missed_deadline_answers_504_and_counts_a_timeout() {
    let cfg = ServerConfig {
        workers: 1,
        batch: 1,
        allow_test_delay: true,
        deadline: Duration::from_millis(100),
        ..ServerConfig::default()
    };
    let server = spawn(cheap_cfg(), cfg);
    let addr = server.local_addr();
    let (status, _) =
        chaos::post(addr, "/recognize", &crop_bytes(), &[("X-Taor-Test-Delay-Ms", "500")]).unwrap();
    assert_eq!(status, 504, "a request slower than its deadline must answer 504");

    let (_, body) = chaos::get(addr, "/healthz").unwrap();
    let text = String::from_utf8(body).unwrap();
    assert!(!text.contains("\"timeouts\":0"), "healthz must count the timeout: {text}");
    server.shutdown();
}

#[test]
fn healthz_reports_gallery_and_queue_shape() {
    let server = spawn(cheap_cfg(), ServerConfig::default());
    let (status, body) = chaos::get(server.local_addr(), "/healthz").unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"status\":\"ok\""), "body: {text}");
    assert!(text.contains("\"reference_views\":82"), "body: {text}");
    assert!(text.contains("\"gallery_size\":82"), "body: {text}");
    assert!(!text.contains("\"index\""), "body: {text}");
    assert!(text.contains("\"queue_capacity\":64"), "body: {text}");
    assert!(text.contains("\"diagnostics\":"), "body: {text}");
    server.shutdown();
}

#[test]
fn forced_siamese_failure_degrades_but_still_answers_200() {
    let service_cfg = ServiceConfig { chaos_siamese_error: true, ..ServiceConfig::default() };
    let server = spawn(service_cfg, ServerConfig::default());
    let (status, body) = chaos::post_crop(server.local_addr(), &crop_bytes()).unwrap();
    assert_eq!(status, 200);
    let text = String::from_utf8(body).unwrap();
    assert!(text.contains("\"degraded\":true"), "body: {text}");
    assert!(text.contains("\"pipeline\":\"hybrid\""), "body: {text}");

    let (_, health) = chaos::get(server.local_addr(), "/healthz").unwrap();
    let health = String::from_utf8(health).unwrap();
    assert!(!health.contains("\"degraded\":0"), "healthz must count the degradation: {health}");
    server.shutdown();
}

#[test]
fn shutdown_drains_and_returns_promptly() {
    let server = spawn(cheap_cfg(), ServerConfig::default());
    let addr = server.local_addr();
    assert_eq!(chaos::post_crop(addr, &crop_bytes()).unwrap().0, 200);
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "graceful shutdown must not hang on an idle server"
    );
    // The listener is gone: new connections fail.
    assert!(std::net::TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err());
}
