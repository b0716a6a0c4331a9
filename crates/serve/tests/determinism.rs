//! Response determinism: identical crop bytes must yield byte-identical
//! response bodies — across repeated requests, across worker-pool widths
//! (`TAOR_THREADS=1` vs `4`), and across two separate spawns of the
//! `taor-serve` binary. Thread scheduling and process restarts may
//! change *when* an answer is computed, never *what* it is.

#[path = "common/chaos.rs"]
mod chaos;

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use taor_core::wire::{encode_f32, encode_rgb8};
use taor_imgproc::image::RgbImage;
use taor_serve::{RecognizerService, Server, ServerConfig, ServiceConfig};

fn gradient_crop() -> RgbImage {
    let mut img = RgbImage::new(40, 32);
    for y in 0..32 {
        for x in 0..40 {
            img.put_pixel(x, y, [(x * 6) as u8, (y * 7) as u8, ((x * y) % 251) as u8]);
        }
    }
    img
}

/// A spawned `taor-serve` process plus the address it printed.
struct ServeProc {
    child: Child,
    addr: SocketAddr,
}

impl ServeProc {
    fn spawn(threads: &str, extra_args: &[&str]) -> ServeProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_taor-serve"))
            .args(["--addr", "127.0.0.1:0", "--seed", "2019"])
            .args(extra_args)
            .env("TAOR_THREADS", threads)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("taor-serve spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("server prints its address");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .and_then(|a| a.parse().ok())
            .unwrap_or_else(|| panic!("unparseable listen line: {line:?}"));
        ServeProc { child, addr }
    }

    fn body_for(&self, crop: &[u8]) -> Vec<u8> {
        let (status, body) = chaos::post_crop(self.addr, crop).expect("roundtrip");
        assert_eq!(status, 200, "body: {}", String::from_utf8_lossy(&body));
        body
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Full-binary determinism: two spawns, two thread widths, both wire
/// formats — every body byte-identical. Runs the cheap pipeline so the
/// debug-mode gallery build stays fast; the siamese path's determinism
/// is covered in-process below.
#[test]
fn binary_bodies_are_byte_identical_across_widths_and_spawns() {
    let f32_crop = {
        let img = gradient_crop();
        let samples: Vec<f32> = img.as_raw().iter().map(|&b| f32::from(b) / 255.0).collect();
        let (w, h) = img.dimensions();
        encode_f32(w, h, &samples)
    };
    let crops = [encode_rgb8(&gradient_crop()), f32_crop];
    let one = ServeProc::spawn("1", &["--no-siamese"]);
    let four = ServeProc::spawn("4", &["--no-siamese"]);
    for crop in &crops {
        let a = one.body_for(crop);
        let b = four.body_for(crop);
        assert!(!a.is_empty());
        assert_eq!(a, b, "bodies differ across TAOR_THREADS widths");
        // Same spawn, repeated request: also identical.
        assert_eq!(a, one.body_for(crop), "bodies differ across repeats");
    }
    drop(one);
    // A third, fresh spawn must agree with the recorded bodies.
    let again = ServeProc::spawn("1", &["--no-siamese"]);
    for crop in &crops {
        assert_eq!(four.body_for(crop), again.body_for(crop), "bodies differ across spawns");
    }
}

/// Delivery-mode determinism: the same crops sent pipelined down one
/// kept-alive connection, sequentially down one kept-alive connection,
/// and one-per-connection must produce byte-identical bodies — at both
/// `TAOR_THREADS` widths. Framing is transport, never content.
#[test]
fn pipelined_and_one_shot_bodies_are_byte_identical() {
    let crops: Vec<Vec<u8>> = (0u32..3)
        .map(|variant| {
            let mut img = gradient_crop();
            let (w, h) = img.dimensions();
            for y in 0..h {
                for x in 0..w {
                    let px = img.pixel(x, y);
                    img.put_pixel(x, y, [px[0].wrapping_add(variant as u8 * 31), px[1], px[2]]);
                }
            }
            encode_rgb8(&img)
        })
        .collect();
    for threads in ["1", "4"] {
        let server = ServeProc::spawn(threads, &["--no-siamese"]);

        // One connection per request (the PR 7 delivery mode).
        let one_shot: Vec<Vec<u8>> = crops.iter().map(|c| server.body_for(c)).collect();

        // Sequential reuse of a single connection.
        let mut client = chaos::PersistentClient::connect(server.addr).expect("connects");
        for (crop, expect) in crops.iter().zip(&one_shot) {
            let (status, body) = client.post_crop(crop).expect("reused answer");
            assert_eq!(status, 200);
            assert_eq!(&body, expect, "reuse changed a body at TAOR_THREADS={threads}");
        }

        // The full pipelined burst: all requests written before any
        // response is read.
        let mut client = chaos::PersistentClient::connect(server.addr).expect("connects");
        let mut burst = Vec::new();
        for crop in &crops {
            burst.extend_from_slice(&chaos::PersistentClient::request_bytes(
                "POST",
                "/recognize",
                crop,
                &[],
                false,
            ));
        }
        client.send_raw(&burst).expect("burst written");
        for (i, expect) in one_shot.iter().enumerate() {
            let (status, body) = client.read_response().expect("pipelined answer");
            assert_eq!(status, 200, "pipelined request {i}");
            assert_eq!(&body, expect, "pipelining changed body {i} at TAOR_THREADS={threads}");
        }
    }
}

/// In-process: two independent `Server`s over independently built
/// services (same seed) answer identically through the full siamese
/// path.
#[test]
fn two_in_process_servers_agree_through_the_siamese_path() {
    let spawn = || {
        let service =
            Arc::new(RecognizerService::new(ServiceConfig::default()).expect("service builds"));
        Server::spawn(service, ServerConfig::default()).expect("server binds")
    };
    let a = spawn();
    let b = spawn();
    let crop = encode_rgb8(&gradient_crop());
    let (sa, body_a) = chaos::post_crop(a.local_addr(), &crop).unwrap();
    let (sb, body_b) = chaos::post_crop(b.local_addr(), &crop).unwrap();
    assert_eq!((sa, sb), (200, 200));
    assert_eq!(body_a, body_b, "siamese bodies differ across servers");
    let text = String::from_utf8(body_a).unwrap();
    assert!(text.contains("\"pipeline\":\"siamese\""), "body: {text}");
    a.shutdown();
    b.shutdown();
}
