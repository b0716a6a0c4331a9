#!/usr/bin/env python3
"""Smoke-test a freshly built `taor-serve` binary.

Asserts the service contract end to end, from outside the Rust
workspace: 200 for a valid wire crop, 400 for a malformed buffer,
keep-alive reuse (two requests over one connection, identical answers),
429 (+ Retry-After) when the admission queue is saturated, and a clean
exit 0 on SIGTERM. Then the primary pipeline: a server with the
defaults (flat index) and one with `--index mih` must each answer the
crop through the Siamese head, undegraded, with identical bodies on a
reused connection; the default server's body must hash to the pinned
SHA-256. Stdlib only.

Usage: serve_smoke.py path/to/taor-serve
"""

import hashlib
import http.client
import signal
import struct
import subprocess
import sys
import threading
import time

# SHA-256 of the default server's body for `wire_crop()`. Any change to
# the Siamese pipeline's arithmetic (resize, tower, head, ranking) shows
# up here as a different body.
DEFAULT_BODY_SHA256 = "b38b5faf80633012ebe8896cd2258b76ff5f4cd3802601e5f7cc96e63c4d252b"

WIRE_MAGIC = b"TAOR"
WIRE_VERSION = 1
FORMAT_RGB8 = 0


def wire_crop(width=48, height=48):
    """A valid RGB8 gradient crop in TAOR wire format."""
    header = WIRE_MAGIC + struct.pack("<BBII", WIRE_VERSION, FORMAT_RGB8, width, height)
    payload = bytearray()
    for y in range(height):
        for x in range(width):
            payload += bytes(((x * 5) % 256, (y * 5) % 256, ((x + y) * 2) % 256))
    return header + bytes(payload)


def post(addr, path, body, headers=None, timeout=30):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def get(addr, path, timeout=30):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, dict(resp.getheaders()), resp.read()
    finally:
        conn.close()


def spawn(binary, args):
    """Start the server on an ephemeral port; return (process, addr)."""
    proc = subprocess.Popen(
        [binary, "--addr", "127.0.0.1:0", *args], stdout=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline().strip()
    assert "listening on" in line, f"unexpected first line: {line!r}"
    host, _, port = line.rsplit(" ", 1)[-1].rpartition(":")
    return proc, (host, int(port))


def check_siamese(binary, args, sha256=None):
    """The primary pipeline answers the crop, undegraded, with the same
    body twice over one reused connection (and the pinned hash, if any)."""
    label = " ".join(args) or "defaults"
    proc, addr = spawn(binary, args)
    try:
        conn = http.client.HTTPConnection(addr[0], addr[1], timeout=30)
        bodies = []
        try:
            for _ in range(2):
                conn.request("POST", "/recognize", body=wire_crop())
                resp = conn.getresponse()
                body = resp.read()
                assert resp.status == 200, f"{label}: expected 200, got {resp.status}: {body!r}"
                bodies.append(body)
        finally:
            conn.close()
        body = bodies[0]
        assert b'"pipeline":"siamese"' in body, f"{label}: not the Siamese pipeline: {body!r}"
        assert b'"degraded":false' in body, f"{label}: degraded answer: {body!r}"
        assert bodies[1] == body, f"{label}: reused-connection bodies differ"
        if sha256 is not None:
            got = hashlib.sha256(body).hexdigest()
            assert got == sha256, f"{label}: body SHA-256 {got} != pinned {sha256}: {body!r}"
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        assert code == 0, f"{label}: SIGTERM: expected exit 0, got {code}"
        pinned = ", pinned body hash" if sha256 else ""
        print(f"siamese answer ({label}): 200, undegraded, identical on reuse{pinned}: ok")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    binary = sys.argv[1]

    # One worker, one queue slot, honour the test-delay header: the
    # saturation check below is deterministic, not a timing race.
    proc, addr = spawn(
        binary,
        [
            "--workers", "1",
            "--queue-cap", "1",
            "--batch", "1",
            "--no-siamese",
            "--allow-test-delay",
            "--deadline-ms", "15000",
        ],
    )
    try:
        print(f"server up at {addr[0]}:{addr[1]}")

        crop = wire_crop()

        # 1. A valid crop answers 200 with a recognition body.
        status, _, body_ok = post(addr, "/recognize", crop)
        assert status == 200, f"valid crop: expected 200, got {status}: {body_ok!r}"
        assert b'"class":' in body_ok and b'"ranking":' in body_ok, body_ok
        print("200 for a valid crop: ok")

        # 2. A malformed buffer answers a typed 400.
        status, _, body = post(addr, "/recognize", b"not a TAOR buffer")
        assert status == 400, f"malformed: expected 400, got {status}: {body!r}"
        assert b"bad crop" in body, body
        print("400 for a malformed buffer: ok")

        # 3. Keep-alive: two requests over ONE reused connection, both
        # answered, the recognition body identical to the fresh-
        # connection answer from check 1.
        conn = http.client.HTTPConnection(addr[0], addr[1], timeout=30)
        try:
            conn.request("POST", "/recognize", body=crop)
            resp = conn.getresponse()
            ka_status, ka_body = resp.status, resp.read()
            conn.request("GET", "/healthz")  # same socket, second request
            resp2 = conn.getresponse()
            ka2_status, ka2_body = resp2.status, resp2.read()
        finally:
            conn.close()
        assert ka_status == 200, f"keep-alive 1st request: {ka_status}: {ka_body!r}"
        assert ka_body == body_ok, "reused-connection body must match the fresh one"
        assert ka2_status == 200, f"keep-alive 2nd request: {ka2_status}: {ka2_body!r}"
        assert b'"status":"ok"' in ka2_body, ka2_body
        print("two requests over one reused connection: ok")

        # 4. Saturate: one slow request holds the worker, a second holds
        # the single queue slot, the rest must shed with 429.
        slow_results = []

        def slow():
            slow_results.append(
                post(addr, "/recognize", crop, {"X-Taor-Test-Delay-Ms": "3000"})[0]
            )

        threads = []
        for _ in range(2):
            t = threading.Thread(target=slow)
            t.start()
            threads.append(t)
            time.sleep(0.5)  # stagger: worker first, then the queue slot

        sheds = 0
        retry_after = False
        for _ in range(4):
            status, headers, _ = post(addr, "/recognize", crop)
            if status == 429:
                sheds += 1
                retry_after |= headers.get("Retry-After") == "1"
        for t in threads:
            t.join()
        assert sheds > 0, "a saturated queue must shed with 429"
        assert retry_after, "429 must carry Retry-After: 1"
        assert all(s == 200 for s in slow_results), f"slow requests: {slow_results}"
        print(f"429 under saturation ({sheds} shed, Retry-After seen): ok")

        # 5. The health snapshot counted the sheds.
        status, _, body = get(addr, "/healthz")
        assert status == 200, f"healthz: {status}"
        assert b'"shed":0' not in body, f"healthz must count sheds: {body!r}"
        print("healthz reports the shed count: ok")

        # 6. SIGTERM: graceful shutdown, exit code 0.
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
        assert code == 0, f"SIGTERM: expected exit 0, got {code}"
        print("clean SIGTERM shutdown: ok")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    # 7. The primary pipeline over HTTP: defaults (flat index) and MIH.
    check_siamese(binary, [], DEFAULT_BODY_SHA256)
    check_siamese(binary, ["--index", "mih"])

    print("serve smoke: all checks passed")


if __name__ == "__main__":
    main()
