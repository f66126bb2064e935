//! Shard-key derivation: the bridge from an opaque request body to a
//! point on the [`HashRing`].
//!
//! The routing key for a plan document is its **canonical lax
//! fingerprint** ([`fingerprint_tree`]) — the same digest the replica's
//! narration cache keys on. That identity is the whole point of shard
//! affinity: every re-submission of a plan (re-`EXPLAIN`ed with
//! different whitespace, key order, or cost jitter) lands on the same
//! replica, so N per-replica LRUs behave like one dedicated cache per
//! key range instead of N overlapping ones.
//!
//! A document that fails to detect or parse still needs a home — the
//! replica is the one that owns producing the structured 4xx for it —
//! so unparseable bodies fall back to an exact-text digest under a
//! routing-only domain tag. Deterministic either way: the same body
//! always routes to the same node.

use crate::ring::HashRing;
use lantern_cache::{fingerprint_document, fingerprint_tree, Fingerprint, FingerprintOptions};
use lantern_core::PlanSource;
use std::collections::BTreeMap;

/// Format tag for the routing-only document digest. Distinct from the
/// vendor tags the narration cache feeds [`fingerprint_document`], so a
/// routing key can never alias a cache key.
const ROUTE_DOC_TAG: u8 = 0xC1;

/// Exact-text digest of a request body under the routing-only domain.
/// The memoization key for [`shard_key`] results, and the fallback
/// routing key for bodies that are not parseable plans.
pub fn document_key(doc: &str) -> Fingerprint {
    fingerprint_document(ROUTE_DOC_TAG, doc)
}

/// The ring key for one plan document: canonical lax fingerprint when
/// the document parses, exact-text digest otherwise.
pub fn shard_key(doc: &str) -> u128 {
    match PlanSource::parse_auto(doc) {
        Ok(tree) => fingerprint_tree(&tree, FingerprintOptions::default()).0,
        Err(_) => document_key(doc).0,
    }
}

/// The ring key for one non-string `/narrate/batch` entry, given as its
/// raw JSON bytes. Every replica answers such an entry with the same
/// per-item error, so it only needs a deterministic home: the exact-text
/// digest of its bytes. (String entries key like single documents.)
pub fn item_key(raw: &str) -> u128 {
    document_key(raw).0
}

/// Group batch-entry indices by owning node: `keys[i]` is the ring key
/// of entry `i`, and the result maps each routed node to the entry
/// indices it owns, in input order. Entries always land somewhere on a
/// non-empty ring, so the groups partition `0..keys.len()`.
pub fn group_by_node(keys: &[u128], ring: &HashRing) -> BTreeMap<usize, Vec<usize>> {
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (index, &key) in keys.iter().enumerate() {
        if let Some(node) = ring.route(key) {
            groups.entry(node).or_default().push(index);
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    const PG_DOC: &str = r#"{"Plan": {"Node Type": "Seq Scan", "Relation Name": "orders"}}"#;

    #[test]
    fn reformatted_documents_share_a_shard_key() {
        // Same plan, different whitespace and key order: the canonical
        // fingerprint ignores the serialization, so both route alike.
        let reformatted =
            "  {\"Plan\":\n  {\"Relation Name\": \"orders\", \"Node Type\": \"Seq Scan\"}}\n";
        assert_eq!(shard_key(PG_DOC), shard_key(reformatted));
        // But their exact-text digests differ — the memo key sees the
        // bytes, the ring key sees the plan.
        assert_ne!(document_key(PG_DOC), document_key(reformatted));
    }

    #[test]
    fn unparseable_documents_still_key_deterministically() {
        let a = shard_key("EXPLAIN SELECT 1");
        let b = shard_key("EXPLAIN SELECT 1");
        assert_eq!(a, b);
        assert_ne!(a, shard_key("EXPLAIN SELECT 2"));
        // Truncated JSON detects as pg but fails to parse: falls back
        // to the text digest rather than erroring.
        let broken = r#"{"Plan": {"Node Type"#;
        assert_eq!(shard_key(broken), document_key(broken).0);
    }

    #[test]
    fn routing_keys_never_alias_cache_document_keys() {
        // Tag separation: the same text under the routing domain and
        // under a vendor cache domain digests differently.
        for vendor_tag in [0u8, 1, 2] {
            assert_ne!(
                document_key(PG_DOC),
                fingerprint_document(vendor_tag, PG_DOC)
            );
        }
    }

    #[test]
    fn non_string_batch_items_route_deterministically() {
        assert_eq!(item_key("42"), item_key("42"));
        assert_ne!(item_key("42"), item_key("42.0"));
        assert_eq!(item_key("{\"a\": 1}"), document_key("{\"a\": 1}").0);
    }

    #[test]
    fn grouping_partitions_every_index_in_order() {
        let ring = HashRing::new(&["a", "b", "c"], 32);
        let keys: Vec<u128> = (0..200).map(|i| shard_key(&format!("doc {i}"))).collect();
        let groups = group_by_node(&keys, &ring);
        let mut seen: Vec<usize> = groups.values().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..keys.len()).collect::<Vec<_>>());
        for indices in groups.values() {
            assert!(indices.windows(2).all(|w| w[0] < w[1]), "input order kept");
        }
        // Three nodes at 32 vnodes over 200 keys: each should own some.
        assert_eq!(groups.len(), 3);
    }
}
