//! `er-gateway`: a consistent-hash scoring router in front of a fleet of
//! `er-serve` backends.
//!
//! One gateway process owns the client-facing listener and fans `/score`
//! traffic out across N backend processes:
//!
//! ```text
//!                         ┌──────────────┐
//!   clients ──────────────▶  er-gateway  │── hash(pair_id) ──▶ er-serve #0
//!             keep-alive  │  ring+canary │── (hedge) ────────▶ er-serve #1
//!                         └──────────────┘── /healthz probes ▶ er-serve #2
//! ```
//!
//! * **[`ring`]** — consistent-hash placement: vnode ring over backend
//!   indices, eligibility-filtered clockwise walk, and the independent
//!   percent-slot hash the canary split uses.
//! * **[`upstream`]** — one nonblocking [`upstream::Flight`] per backend
//!   request (connect, send, framed receive), stepped by the server's
//!   readiness loop; a hedge is a second flight, the loser is closed.
//! * **[`health`]** — periodic `/healthz` probes, consecutive-failure
//!   ejection, artifact-digest scraping.
//! * **[`canary`]** — the staged-promotion state machine: shadow scoring,
//!   rung ladder, automatic rollback on score divergence.
//! * **[`server`]** — ties it together on one `gw-driver` thread: the
//!   listener, every downstream connection (the [`er_serve::conn`] state
//!   machine the backend runs too) and every upstream flight share one
//!   [`er_serve::readiness`] loop, with `/score` routing, hedging and shadow
//!   scoring as timers and completions on it, plus the `/reload` +
//!   `/canary/*` control plane.
//!
//! Scores relay **bit-exactly**: the winning backend's response body is
//! forwarded byte-for-byte, never re-serialized, so a client scoring
//! through the gateway sees the identical JSON it would get from the
//! backend directly.

#![warn(missing_docs)]

pub mod canary;
pub mod health;
pub mod ring;
pub mod server;
pub mod upstream;

pub use canary::{Action, CanaryConfig, CanaryController, CanaryStatus, Phase, RoutePlan};
pub use health::{BackendHealth, HealthState};
pub use ring::{percent_slot, splitmix64, HashRing, PERCENT_SLOTS};
pub use server::{GatewayConfig, GatewayServer, GatewayStats};
pub use upstream::UpstreamResponse;
