//! A concurrent planning service for the droplet-streaming engine.
//!
//! `dmf-serve` turns [`dmf_engine::StreamingEngine`] into a long-lived
//! TCP service speaking line-delimited JSON (the [`dmf_obs::json`]
//! subset — the workspace stays dependency-free). Each request names a
//! target CF ratio, a demand and optional engine-config overrides; the
//! response carries the plan summary (`Tms`, waste, passes, storage
//! peak) and the plan's content-addressed fingerprint, or a typed
//! error. See [`protocol`] for the grammar.
//!
//! The server answers each connection on its own [`std::thread::scope`]d
//! thread, over one shared, bounded-LRU [`dmf_engine::PlanCache`], so
//! repeated requests for the same `(config, target, demand)` key are
//! answered from cache — byte-identically, since a plan is a pure
//! function of its key — while the cache's memory stays capped under
//! churn. A cache miss is planned on its connection thread while it
//! holds one of [`ServeConfig::workers`] planner permits; with none free
//! it waits in arrival order behind at most [`ServeConfig::queue_depth`]
//! others. Overload sheds as fast `busy` rejections; a deadline bounds
//! how long a plan request may wait for a permit; `{"op":"shutdown"}`
//! drains the waiting requests before [`Server::run`] returns.
//!
//! # Examples
//!
//! ```
//! use dmf_serve::{Client, ServeConfig, Server};
//!
//! # fn main() -> std::io::Result<()> {
//! let server = Server::bind(ServeConfig::default())?; // 127.0.0.1:0
//! let addr = server.local_addr()?;
//! std::thread::scope(|s| -> std::io::Result<()> {
//!     let handle = s.spawn(|| server.run());
//!     let mut client = Client::connect(addr)?;
//!     let line = client.request(
//!         r#"{"op":"plan","ratio":"2:1:1:1:1:1:9","demand":20}"#,
//!     )?;
//!     assert!(line.contains("\"tms\":27")); // paper Fig. 3
//!     client.request(r#"{"op":"shutdown"}"#)?;
//!     handle.join().unwrap_or(Ok(()))
//! })
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod protocol;

mod client;
mod permits;
mod server;

pub use client::Client;
pub use protocol::{PlanSpec, ProtocolError, Request};
pub use server::{ServeConfig, Server, MAX_LINE_BYTES};
