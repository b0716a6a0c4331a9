//! # taor-serve
//!
//! Recognition-as-a-service over the pipelines of `taor-core`: a
//! dependency-free HTTP/1.1 server that answers "what is this crop?"
//! under the failure modes a robot fleet actually produces — slow
//! clients, malformed bodies, overload bursts, poisoned pixels.
//!
//! The layering (DESIGN.md §11) is an explicit ladder, crossed in
//! order by every request:
//!
//! 1. **Admission** — a bounded queue; a full queue sheds the request
//!    with `429 Retry-After` instead of queueing unboundedly
//!    ([`robust::AdmissionQueue`]).
//! 2. **Deadline** — every request carries a wall-clock budget; work
//!    whose budget expired is answered with a typed `504`, never
//!    silently stale ([`robust::Deadline`]).
//! 3. **Degrade** — when the Siamese pipeline fails typed or the
//!    remaining budget is too small for it, the service falls back to
//!    the cheap histogram/Hu pipelines and labels the response
//!    `degraded: true`; every fallback is counted in the
//!    [`Diagnostics`](taor_core::Diagnostics) ledger surfaced at
//!    `/healthz`.
//!
//! A worker takes one job per wakeup and recognises it alone
//! ([`service::RecognizerService::recognize`]): one tower forward, then
//! one sweep of the query across every view of the gallery, prepared
//! once at start. At 82 views brute force is the paper's matcher and no
//! index pays (DESIGN.md §12.2).
//!
//! Each request is additionally isolated under `catch_unwind`
//! ([`robust::isolate`]): a panic in one request is that request's
//! `500`, not the process's abort.
//!
//! Connections persist (DESIGN.md §11.4): HTTP/1.1 keep-alive is the
//! default, pipelined requests are re-framed by [`http::ConnectionReader`]
//! instead of rejected, and reuse is bounded by an idle timeout and a
//! max-requests-per-connection cap. Ambiguous framing (duplicate
//! `Content-Length`, `Transfer-Encoding`) is a hard 400 — the
//! request-smuggling shapes die at the parser.
//!
//! The crate's only unsafe code is the two-line SIGTERM handler
//! installation in [`signal`].

#![deny(unsafe_op_in_unsafe_fn)]

pub mod http;
pub mod robust;
pub mod server;
pub mod service;
pub mod signal;

pub use http::{ConnectionReader, HttpError, HttpLimits, Request, Response};
pub use robust::{isolate, AdmissionQueue, AdmitError, Deadline};
pub use server::{Server, ServerConfig};
pub use service::{RecognizerService, ServiceConfig, ServiceResponse};
