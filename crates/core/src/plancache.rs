//! Admission plan cache: memoized augmentation plans with residual-epoch
//! invalidation.
//!
//! The scenario streams are popularity-skewed (Zipf endpoints, a small VNF
//! catalog, a handful of reliability thresholds), so a million-request run
//! resolves the *same* admission problem — same source, same chain, same
//! threshold, same radius — thousands of times. This module caches the solved
//! plan (primary placement, per-function secondary counts, and the merged
//! per-node capacity debits the plan implies) keyed by the canonical request
//! signature `(source, chain-signature hash, threshold bucket, l)`.
//!
//! ## Hits are re-validated, never trusted
//!
//! Residual state moves between occurrences, so a cache hit replays the
//! plan's capacity footprint through the same two-phase feasibility discipline
//! a fresh solve would use, and re-checks the achieved reliability against the
//! catalog. A validation failure removes the entry and falls through to a
//! fresh solve whose result repopulates it. The cache therefore never changes
//! *what* is admitted being feasible — only how much work admission costs.
//!
//! ## Epoch fast path
//!
//! Every permanent residual decrease bumps a per-node epoch counter
//! ([`mecnet::network::NodeEpochs`]). An entry is stamped with the epochs of
//! the nodes its debits touch, together with the residual each node held
//! immediately *after* the entry's own commit, plus a precomputed `refit`
//! flag: "would the plan fit again on top of its own footprint". A later hit
//! whose stamps are all unchanged knows those residuals are bit-identical to
//! the recorded ones, so when `refit` is set it applies the debits with no
//! feasibility walk at all. An entry without stamps always takes the full
//! `try_reserve` revalidation path.
//!
//! ## Reject gate
//!
//! On saturated streams most requests are *rejected*, and each rejection pays
//! a full candidate scan per chain position. Stream residuals never increase,
//! so the cache also maintains a monotone watermark: the maximum cloudlet
//! residual observed at the most recent full-scan rejection. Once a chain's
//! largest per-function demand exceeds the watermark, no cloudlet anywhere
//! can host that function and admission must fail — the gate short-circuits
//! the scan with a sound, permanently-valid rejection.
//!
//! The cache is bounded and direct-mapped: one flat slot array,
//! `O(capacity)` memory, eviction by slot replacement.

use mecnet::graph::NodeId;
use mecnet::network::NodeEpochs;
use mecnet::vnf::{VnfCatalog, VnfTypeId};
use mecnet::SfcRequest;

use crate::reliability::function_reliability;

/// splitmix64 finalizer (same mixer as the stream engine's seed derivation).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Canonical request signature: two requests with equal keys pose the same
/// admission problem up to capacity state (and sub-micro differences in
/// threshold, which validation re-checks against the live expectation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanKey {
    /// Ingress access point of the request.
    pub source: NodeId,
    /// Interned [`mecnet::chain_signature`] of the VNF chain.
    pub chain_sig: u64,
    /// Reliability expectation quantized to 1e-6 — requests in the same
    /// bucket differ by less than one part per million, and validation uses
    /// the incoming request's *exact* expectation, so bucketing is safe.
    pub threshold_bucket: u64,
    /// Neighborhood radius the plan was solved under.
    pub l: u32,
}

impl PlanKey {
    pub fn for_request(req: &SfcRequest, l: u32) -> PlanKey {
        PlanKey {
            source: req.source,
            chain_sig: req.chain_sig,
            threshold_bucket: (req.expectation * 1e6).round() as u64,
            l,
        }
    }

    fn hash(&self) -> u64 {
        let mut h = splitmix64(self.chain_sig ^ (self.source.index() as u64));
        h = splitmix64(h ^ self.threshold_bucket);
        splitmix64(h ^ (self.l as u64))
    }
}

/// A cached, previously-committed admission plan: where the primaries went,
/// how many secondaries each function received, and the merged per-node
/// capacity debits the whole plan (primaries + secondaries) implies.
#[derive(Debug, Clone)]
pub struct PlanEntry {
    pub key: PlanKey,
    /// Full chain — collision guard; a candidate only validates if the
    /// incoming chain is equal element-for-element.
    pub chain: Vec<VnfTypeId>,
    /// Primary cloudlet per chain position.
    pub primaries: Vec<NodeId>,
    /// Secondary count per chain position.
    pub counts: Vec<usize>,
    /// Merged `(node, amount)` debits, sorted ascending by node — the shape
    /// `MecNetwork::try_reserve` takes, so a hit revalidates without
    /// converting.
    pub debits: Vec<(NodeId, f64)>,
    pub base_reliability: f64,
    pub achieved_reliability: f64,
    pub secondaries: usize,
    /// Paper cost of the secondaries — a function of `counts` only, so it
    /// transfers between occurrences unchanged.
    pub cost: f64,
    /// Epoch stamps aligned with `debits` (empty ⇒ no fast path; always
    /// revalidate through `try_reserve`).
    pub stamps: Vec<u64>,
    /// Residual at each touched node immediately after the last validated
    /// apply, aligned with `debits`.
    pub post_residual: Vec<f64>,
    /// Precomputed at stamping: `post_residual[i] >= debits[i].1` for all i —
    /// the plan fits again on top of its own footprint.
    pub refit: bool,
}

impl PlanEntry {
    /// Build an entry from a freshly committed plan. `raw_debits` may repeat
    /// nodes (primaries and secondaries on the same cloudlet); they are
    /// merged and sorted here.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        key: PlanKey,
        chain: Vec<VnfTypeId>,
        primaries: Vec<NodeId>,
        counts: Vec<usize>,
        raw_debits: &[(NodeId, f64)],
        base_reliability: f64,
        achieved_reliability: f64,
        cost: f64,
    ) -> Self {
        let mut debits: Vec<(NodeId, f64)> = Vec::with_capacity(raw_debits.len());
        for &(node, amount) in raw_debits {
            if amount == 0.0 {
                continue;
            }
            match debits.iter_mut().find(|(n, _)| *n == node) {
                Some((_, a)) => *a += amount,
                None => debits.push((node, amount)),
            }
        }
        debits.sort_unstable_by_key(|&(node, _)| node.index());
        let secondaries = counts.iter().sum();
        PlanEntry {
            key,
            chain,
            primaries,
            counts,
            debits,
            base_reliability,
            achieved_reliability,
            secondaries,
            cost,
            stamps: Vec::new(),
            post_residual: Vec::new(),
            refit: false,
        }
    }

    /// Recompute the plan's achieved reliability from the catalog — the live
    /// recheck a hit performs instead of trusting the stored value. Plans are
    /// only cached from streams where backups are unshared, so no
    /// `existing_backups` term appears.
    pub fn recomputed_reliability(&self, catalog: &VnfCatalog) -> f64 {
        self.chain
            .iter()
            .zip(&self.counts)
            .map(|(&f, &m)| function_reliability(catalog.reliability(f), m))
            .product()
    }

    /// Recomputed reliability against the *incoming* request's expectation.
    pub fn meets_expectation(&self, catalog: &VnfCatalog, expectation: f64) -> bool {
        self.recomputed_reliability(catalog) >= expectation
    }

    /// True when every stamped epoch is unchanged — the touched residuals are
    /// bit-identical to `post_residual`.
    pub fn epochs_unchanged(&self, epochs: &NodeEpochs) -> bool {
        !self.stamps.is_empty()
            && self
                .debits
                .iter()
                .zip(&self.stamps)
                .all(|(&(node, _), &stamp)| epochs.get(node.index()) == stamp)
    }

    /// Re-stamp after a validated apply: record the epochs and post-apply
    /// residuals of every touched node and precompute the refit flag.
    pub fn stamp(&mut self, epochs: &NodeEpochs, residual_of: impl Fn(usize) -> f64) {
        self.stamps.clear();
        self.post_residual.clear();
        let mut refit = true;
        for &(node, amount) in &self.debits {
            self.stamps.push(epochs.get(node.index()));
            let r = residual_of(node.index());
            self.post_residual.push(r);
            refit &= r >= amount;
        }
        self.refit = refit;
    }
}

/// Result of a cache probe.
#[derive(Debug, PartialEq)]
pub enum Probe<R> {
    /// No entry under this key (or a hash-collided entry with a different
    /// chain, which is left in place).
    Miss,
    /// A candidate validated and applied; carries the validator's result.
    Hit(R),
    /// A candidate was found but failed validation; it has been removed and
    /// the caller should fall through to a fresh solve.
    Stale,
}

/// Bounded, direct-mapped plan cache plus the monotone reject-gate
/// watermark. Memory is `O(capacity)`: one optional slot per cache line, no
/// chaining, eviction by replacement.
#[derive(Debug)]
pub struct PlanCache {
    /// `groups` consecutive runs of `slots_per_group` slots each.
    slots: Vec<Option<PlanEntry>>,
    groups: usize,
    slots_per_group: usize,
    capacity: usize,
    /// Monotone max-residual upper bound (starts at +∞ — nothing can be
    /// gate-rejected until a real rejection calibrates it).
    watermark: f64,
}

impl PlanCache {
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "plan cache capacity must be >= 1");
        let groups = capacity.min(8);
        let slots_per_group = capacity.div_ceil(groups);
        PlanCache {
            slots: vec![None; groups * slots_per_group],
            groups,
            slots_per_group,
            capacity,
            watermark: f64::INFINITY,
        }
    }

    /// Configured bound (the number of slots; live entries never exceed it).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Live entry count (test/diagnostic).
    pub fn len(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat slot index: the high hash half picks a group of slots, the low
    /// half a slot inside it.
    fn slot_for(&self, key: &PlanKey) -> usize {
        let h = key.hash();
        let group = ((h >> 32) as usize) % self.groups;
        group * self.slots_per_group + (h as usize) % self.slots_per_group
    }

    /// Probe for a plan under `key` whose chain equals `chain`, and let
    /// `validate` re-check it against live state. The validator returns
    /// `Some(r)` to accept (it has applied the plan; it may mutate the entry
    /// to re-stamp it) or `None` to reject, which removes the entry.
    pub fn probe<R>(
        &mut self,
        key: &PlanKey,
        chain: &[VnfTypeId],
        validate: impl FnOnce(&mut PlanEntry) -> Option<R>,
    ) -> Probe<R> {
        let i = self.slot_for(key);
        let slot = &mut self.slots[i];
        match slot {
            Some(entry) if entry.key == *key && entry.chain == chain => match validate(entry) {
                Some(r) => Probe::Hit(r),
                None => {
                    *slot = None;
                    Probe::Stale
                }
            },
            _ => Probe::Miss,
        }
    }

    /// Insert (or repopulate) an entry. Returns `true` when a live entry with
    /// a *different* key was displaced — an eviction, as opposed to a refresh.
    pub fn insert(&mut self, entry: PlanEntry) -> bool {
        let i = self.slot_for(&entry.key);
        let slot = &mut self.slots[i];
        let evicted = matches!(slot, Some(prev) if prev.key != entry.key);
        *slot = Some(entry);
        evicted
    }

    /// Current upper bound on the maximum cloudlet residual ( +∞ until the
    /// first full-scan rejection calibrates it).
    pub fn max_residual_watermark(&self) -> f64 {
        self.watermark
    }

    /// A request whose largest per-function demand exceeds the watermark
    /// cannot place that function on any cloudlet; admission must fail.
    pub fn gate_rejects(&self, max_demand: f64) -> bool {
        max_demand > self.watermark
    }

    /// Tighten the watermark after a full-scan rejection measured the current
    /// maximum cloudlet residual. Monotone: only ever lowers the bound, which
    /// is what keeps gate rejections permanently sound on streams whose
    /// residuals never increase.
    pub fn observe_max_residual(&mut self, max_residual: f64) {
        self.watermark = self.watermark.min(max_residual);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mecnet::vnf::VnfType;

    fn key(src: usize, sig: u64) -> PlanKey {
        PlanKey { source: NodeId(src), chain_sig: sig, threshold_bucket: 990_000, l: 2 }
    }

    fn entry(k: PlanKey, chain: Vec<VnfTypeId>) -> PlanEntry {
        PlanEntry::new(
            k,
            chain,
            vec![NodeId(1)],
            vec![2],
            &[(NodeId(1), 300.0), (NodeId(1), 200.0), (NodeId(3), 100.0)],
            0.9,
            0.999,
            1.25,
        )
    }

    #[test]
    fn entry_merges_and_sorts_debits() {
        let e = entry(key(0, 7), vec![VnfTypeId(0)]);
        assert_eq!(e.debits, vec![(NodeId(1), 500.0), (NodeId(3), 100.0)]);
        assert_eq!(e.secondaries, 2);
    }

    #[test]
    fn probe_roundtrip_hit_miss_and_stale() {
        let mut cache = PlanCache::new(16);
        let k = key(0, 7);
        let chain = vec![VnfTypeId(0)];
        assert_eq!(cache.probe(&k, &chain, |_| Some(1u32)), Probe::<u32>::Miss);
        assert!(!cache.insert(entry(k, chain.clone())));
        assert_eq!(cache.len(), 1);
        // Validator accepts: hit.
        assert_eq!(cache.probe(&k, &chain, |e| Some(e.secondaries)), Probe::Hit(2));
        // A different chain under the same key (signature collision) is a miss
        // and leaves the entry alone.
        assert_eq!(cache.probe(&k, &[VnfTypeId(5)], |_| Some(0usize)), Probe::Miss);
        assert_eq!(cache.len(), 1);
        // Validator rejects: entry removed.
        assert_eq!(cache.probe(&k, &chain, |_| Option::<u32>::None), Probe::Stale);
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.probe(&k, &chain, |_| Some(1u32)), Probe::Miss);
    }

    #[test]
    fn cache_is_bounded_and_evicts_by_replacement() {
        let mut cache = PlanCache::new(4);
        let mut evictions = 0;
        for sig in 0..256u64 {
            if cache.insert(entry(key(0, sig), vec![VnfTypeId(0)])) {
                evictions += 1;
            }
        }
        assert!(cache.len() <= 4, "live entries exceed capacity");
        assert!(evictions >= 252 - 4, "most inserts must displace a live entry");
        // Refreshing an existing key is not an eviction.
        let mut cache = PlanCache::new(4);
        assert!(!cache.insert(entry(key(0, 1), vec![VnfTypeId(0)])));
        assert!(!cache.insert(entry(key(0, 1), vec![VnfTypeId(0)])));
    }

    #[test]
    fn epoch_stamps_detect_later_commits() {
        let mut epochs = NodeEpochs::new(8);
        let mut e = entry(key(0, 7), vec![VnfTypeId(0)]);
        assert!(!e.epochs_unchanged(&epochs), "unstamped entries never take the fast path");
        e.stamp(&epochs, |idx| if idx == 1 { 600.0 } else { 100.0 });
        assert!(e.epochs_unchanged(&epochs));
        assert!(e.refit, "600 >= 500 and 100 >= 100");
        // A later commit on a touched node invalidates the fast path.
        epochs.bump(1);
        assert!(!e.epochs_unchanged(&epochs));
        // Re-stamping with less headroom clears refit.
        e.stamp(&epochs, |idx| if idx == 1 { 499.0 } else { 100.0 });
        assert!(e.epochs_unchanged(&epochs));
        assert!(!e.refit, "499 < 500 must force the feasibility walk next time");
    }

    #[test]
    fn reliability_recheck_uses_live_expectation() {
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 100.0, reliability: 0.9 });
        let e = entry(key(0, 7), vec![VnfTypeId(0)]);
        // counts = [2] => 1 - 0.1^3 = 0.999.
        assert!(e.meets_expectation(&cat, 0.999));
        assert!(!e.meets_expectation(&cat, 0.9995));
    }

    #[test]
    fn watermark_is_monotone_and_gates_rejections() {
        let mut cache = PlanCache::new(1);
        assert!(!cache.gate_rejects(1e12), "uncalibrated watermark rejects nothing");
        cache.observe_max_residual(700.0);
        cache.observe_max_residual(900.0); // stale higher observation: ignored
        assert_eq!(cache.max_residual_watermark(), 700.0);
        assert!(cache.gate_rejects(700.1));
        assert!(!cache.gate_rejects(700.0), "equal demand might still fit");
        cache.observe_max_residual(200.0);
        assert!(cache.gate_rejects(250.0));
    }

    #[test]
    fn key_is_derived_from_request_fields() {
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 100.0, reliability: 0.9 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 100.0, reliability: 0.9 });
        let req = SfcRequest::new(3, vec![VnfTypeId(0), VnfTypeId(1)], 0.99, NodeId(4), NodeId(5));
        let k = PlanKey::for_request(&req, 2);
        assert_eq!(k.source, NodeId(4));
        assert_eq!(k.chain_sig, req.chain_sig);
        assert_eq!(k.threshold_bucket, 990_000);
        let k2 = PlanKey::for_request(&req, 3);
        assert_ne!(k.hash(), k2.hash(), "radius is part of the signature");
    }
}
