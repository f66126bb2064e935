//! Sharded multi-replica serving tier for plan narration.
//!
//! A single `lantern-serve` node already pipelines, sheds load, and
//! caches narrations by plan fingerprint. This crate scales that node
//! horizontally without giving up the cache economics: a **coordinator**
//! fronts N replicas and routes every request by the *canonical plan
//! fingerprint* of its document over a consistent-hash ring. The same
//! plan — however it is re-serialized — always lands on the same
//! replica, so N small per-replica LRUs partition the keyspace and
//! behave like one dedicated cache per shard instead of N overlapping
//! copies.
//!
//! The pieces:
//!
//! * [`ring`] — the consistent-hash ring ([`HashRing`]): virtual-node
//!   placement, deterministic across independently built coordinators,
//!   minimal key movement on join/leave, and a successor order that
//!   doubles as the failover sequence.
//! * [`shard`] — request body → ring key ([`shard_key`]): canonical
//!   fingerprint for parseable plans, exact-text digest (under a
//!   routing-only domain) for everything else.
//! * [`coordinator`] — the HTTP tier itself ([`serve_cluster`]), run
//!   on the same `lantern-serve` event core as the replicas (so
//!   Unix-only): forwarding with pooled keep-alive connections, health
//!   probing,
//!   retry-with-backoff failover to ring successors, per-shard batch
//!   splitting with in-order re-stitching, ordered catalog-mutation
//!   broadcast with gap-triggered replay, and aggregated `/stats`.
//!
//! The coordinator holds no narration state: replicas can restart
//! freely (rebuilding their caches and catalogs from traffic and
//! replay), and killing the coordinator loses only connection pools and
//! the in-memory catalog log.

pub mod coordinator;
pub mod ring;
pub mod shard;

#[cfg(unix)]
pub use coordinator::{serve_cluster, ClusterHandle};
pub use coordinator::{ClusterConfig, ClusterStats};
pub use ring::HashRing;
pub use shard::{document_key, group_by_node, item_key, shard_key};
