//! Lazy, reproducible request streams.
//!
//! [`RequestStream`] synthesizes [`SfcRequest`]s one at a time — it never
//! materializes the stream, so 10^6+ request experiments run in O(1) memory
//! on the generator side. Every draw for position `k` comes from its own
//! `(seed, k, salt)`-derived RNG ([`crate::position_rng`]):
//!
//! * **content** (`REQ` salt): chain, expectation and endpoints; endpoints
//!   are re-sampled from the scenario's popularity distribution (per-tier
//!   weights × Zipf skew) instead of uniformly. When the spec carries a
//!   [`crate::spec::ServiceSpec`], the chain itself comes from a bounded,
//!   Zipf-popular catalog of service templates (drawn once per scenario from
//!   the `SVC` salt) instead of an ad-hoc per-request sample — so popular
//!   admission problems genuinely recur across the stream.
//! * **arrival** (`ARR` salt): the exponential gap to the previous arrival,
//!   with the instantaneous rate modulated by a diurnal sinusoid and
//!   per-epoch flash crowds (`FLS` salt decides which epochs flash).
//! * **TTL** (`TTL` salt): exponential or Pareto holding time.
//!
//! Because position `k`'s draws never depend on how much randomness earlier
//! positions consumed, any prefix is byte-identical across re-instantiations
//! and consumption patterns; arrival times are the prefix sums of the
//! per-position gaps and therefore equally reproducible.

use mecnet::graph::NodeId;
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use rand::Rng;

use mecnet::vnf::VnfTypeId;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::spec::{BuiltScenario, StreamSpec, TtlSpec};
use crate::{
    derive_seed, position_rng, unit_hash, ARRIVAL_SALT, FLASH_SALT, REQ_SALT, SERVICE_SALT,
    TTL_SALT,
};

/// A request with its arrival time and holding time (TTL) attached — what a
/// discrete-event simulator consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedRequest {
    pub arrival: f64,
    pub ttl: f64,
    pub request: SfcRequest,
}

/// Lazy `Iterator<Item = SfcRequest>` over a built scenario. Construct with
/// [`RequestStream::new`]; wrap with [`RequestStream::timed`] when arrival
/// times and TTLs matter.
pub struct RequestStream {
    catalog: VnfCatalog,
    num_nodes: usize,
    sfc_len_range: (usize, usize),
    expectation: f64,
    /// Node ids eligible as endpoints (popularity weight > 0), id order.
    endpoints: Vec<usize>,
    /// Cumulative Zipf-skewed weights over `endpoints`.
    cum: Vec<f64>,
    /// Service templates (chains), popularity order: index 0 is the hottest.
    /// Empty when the spec has no [`crate::spec::ServiceSpec`].
    services: Vec<Vec<VnfTypeId>>,
    /// Cumulative Zipf-skewed weights over `services`.
    svc_cum: Vec<f64>,
    spec: StreamSpec,
    seed: u64,
    k: u64,
    limit: u64,
    /// Arrival time of the previously yielded request.
    t: f64,
}

impl RequestStream {
    /// Stream over `built`, yielding at most `limit` requests.
    pub fn new(built: &BuiltScenario, limit: u64) -> RequestStream {
        let endpoints: Vec<usize> =
            (0..built.network.num_nodes()).filter(|&i| built.node_weights[i] > 0.0).collect();
        assert!(!endpoints.is_empty(), "scenario has no endpoint-eligible nodes");
        let skew = built.spec.stream.popularity_skew.max(0.0);
        let mut cum = Vec::with_capacity(endpoints.len());
        let mut total = 0.0;
        for (rank, &i) in endpoints.iter().enumerate() {
            // Zipf skew over the deterministic id-order ranking: rank 0 is
            // the hottest access point.
            total += built.node_weights[i] / ((rank + 1) as f64).powf(skew);
            cum.push(total);
        }
        // Service templates: one salted draw per scenario, so the catalog of
        // popular chains is a pure function of (seed, spec), independent of
        // how many requests any consumer materializes.
        let mut services = Vec::new();
        let mut svc_cum = Vec::new();
        if let Some(svc) = &built.spec.stream.services {
            let mut rng = StdRng::seed_from_u64(derive_seed(built.spec.seed, 0, SERVICE_SALT));
            let (lo, hi) = built.spec.stream.sfc_len_range;
            let mut total = 0.0;
            for rank in 0..svc.count {
                let len = rng.gen_range(lo..=hi.max(lo));
                let chain: Vec<VnfTypeId> = if len <= built.catalog.len() {
                    rand::seq::index::sample(&mut rng, built.catalog.len(), len)
                        .into_iter()
                        .map(VnfTypeId)
                        .collect()
                } else {
                    (0..len).map(|_| VnfTypeId(rng.gen_range(0..built.catalog.len()))).collect()
                };
                services.push(chain);
                total += 1.0 / ((rank + 1) as f64).powf(svc.skew.max(0.0));
                svc_cum.push(total);
            }
        }
        RequestStream {
            catalog: built.catalog.clone(),
            num_nodes: built.network.num_nodes(),
            sfc_len_range: built.spec.stream.sfc_len_range,
            expectation: built.spec.stream.expectation,
            endpoints,
            cum,
            services,
            svc_cum,
            spec: built.spec.stream.clone(),
            seed: built.spec.seed,
            k: 0,
            limit,
            t: 0.0,
        }
    }

    /// The same stream annotated with arrival times and TTLs.
    pub fn timed(self) -> TimedRequestStream {
        TimedRequestStream(self)
    }

    /// Instantaneous arrival rate at time `t`: base rate × diurnal sinusoid
    /// × flash-crowd multiplier for `t`'s epoch.
    pub fn rate_at(&self, t: f64) -> f64 {
        let s = &self.spec;
        let mut rate = s.arrival_rate;
        if s.diurnal_period > 0.0 {
            let amp = s.diurnal_amplitude.clamp(0.0, 0.95);
            rate *= 1.0 + amp * (2.0 * std::f64::consts::PI * t / s.diurnal_period).sin();
        }
        if s.flash_epoch > 0.0 && s.flash_probability > 0.0 {
            let epoch = (t / s.flash_epoch).floor() as u64;
            if unit_hash(self.seed, epoch, FLASH_SALT) < s.flash_probability {
                rate *= s.flash_multiplier.max(1.0);
            }
        }
        rate.max(1e-9)
    }

    /// Weighted endpoint draw: inverse-CDF over the cumulative weights.
    fn sample_endpoint<R: Rng + ?Sized>(&self, rng: &mut R) -> NodeId {
        let total = *self.cum.last().expect("non-empty endpoint set");
        let u = rng.gen::<f64>() * total;
        let idx = self.cum.partition_point(|&c| c <= u).min(self.endpoints.len() - 1);
        NodeId(self.endpoints[idx])
    }

    fn next_timed(&mut self) -> Option<TimedRequest> {
        if self.k >= self.limit {
            return None;
        }
        let k = self.k;
        self.k += 1;
        // Arrival: exponential gap at the rate in force when the previous
        // request arrived (a piecewise-constant thinning approximation that
        // keeps gap `k` a function of (seed, k) alone).
        let u: f64 = position_rng(self.seed, k, ARRIVAL_SALT).gen();
        let gap = -(1.0 - u).ln() / self.rate_at(self.t);
        self.t += gap;
        // Content: draw the chain from the popular-service catalog when the
        // spec has one (inverse-CDF over the Zipf weights), falling back to
        // the ad-hoc catalog sampler; then re-draw the endpoints from the
        // popularity distribution either way.
        let mut rng = position_rng(self.seed, k, REQ_SALT);
        let mut request = if self.services.is_empty() {
            SfcRequest::random(
                k as usize,
                &self.catalog,
                self.sfc_len_range,
                self.expectation,
                self.num_nodes,
                &mut rng,
            )
        } else {
            let total = *self.svc_cum.last().expect("non-empty service catalog");
            let u = rng.gen::<f64>() * total;
            let idx = self.svc_cum.partition_point(|&c| c <= u).min(self.services.len() - 1);
            SfcRequest::new(
                k as usize,
                self.services[idx].clone(),
                self.expectation,
                NodeId(0),
                NodeId(0),
            )
        };
        request.source = self.sample_endpoint(&mut rng);
        request.destination = self.sample_endpoint(&mut rng);
        // TTL from its own stream so swapping distributions never shifts
        // content or arrivals.
        let v: f64 = position_rng(self.seed, k, TTL_SALT).gen();
        let ttl = match self.spec.ttl {
            TtlSpec::Exponential { mean } => -mean.max(1e-9) * (1.0 - v).ln(),
            TtlSpec::Pareto { scale, shape } => {
                scale.max(1e-9) * (1.0 - v).powf(-1.0 / shape.max(1e-3))
            }
        };
        Some(TimedRequest { arrival: self.t, ttl, request })
    }
}

impl Iterator for RequestStream {
    type Item = SfcRequest;

    fn next(&mut self) -> Option<SfcRequest> {
        self.next_timed().map(|t| t.request)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.limit - self.k) as usize;
        (left, Some(left))
    }
}

/// [`RequestStream`] yielding [`TimedRequest`]s.
pub struct TimedRequestStream(RequestStream);

impl Iterator for TimedRequestStream {
    type Item = TimedRequest;

    fn next(&mut self) -> Option<TimedRequest> {
        self.0.next_timed()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.size_hint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScenarioSpec;

    fn toy() -> BuiltScenario {
        ScenarioSpec::preset("waxman-100").unwrap().build()
    }

    #[test]
    fn prefix_is_reproducible_across_instantiations() {
        let built = toy();
        let a: Vec<TimedRequest> = RequestStream::new(&built, 200).timed().collect();
        let b: Vec<TimedRequest> =
            RequestStream::new(&built, 1_000_000).timed().take(200).collect();
        assert_eq!(a, b, "prefix must not depend on the stream's limit or consumption");
    }

    #[test]
    fn arrivals_are_increasing_and_ttls_positive() {
        let built = toy();
        let mut last = 0.0;
        for tr in RequestStream::new(&built, 500).timed() {
            assert!(tr.arrival > last);
            assert!(tr.ttl > 0.0);
            assert!(!tr.request.is_empty());
            last = tr.arrival;
        }
    }

    #[test]
    fn popularity_skew_concentrates_endpoints() {
        let built = toy();
        let mut hits = vec![0usize; built.network.num_nodes()];
        for req in RequestStream::new(&built, 4000) {
            hits[req.source.index()] += 1;
            hits[req.destination.index()] += 1;
        }
        let mut sorted = hits.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: usize = sorted.iter().take(10).sum();
        let total: usize = sorted.iter().sum();
        assert!(
            top_decile as f64 > 0.3 * total as f64,
            "skew 0.8 should concentrate >30% of endpoints on the top 10 APs ({top_decile}/{total})"
        );
    }

    #[test]
    fn service_catalog_bounds_and_skews_the_chain_population() {
        let built = toy();
        let svc = built.spec.stream.services.clone().expect("presets carry a service catalog");
        let mut seen: std::collections::HashMap<Vec<VnfTypeId>, usize> =
            std::collections::HashMap::new();
        for req in RequestStream::new(&built, 4000) {
            *seen.entry(req.sfc).or_insert(0) += 1;
        }
        assert!(
            seen.len() <= svc.count,
            "{} distinct chains exceed the {}-template service catalog",
            seen.len(),
            svc.count
        );
        // Zipf popularity: the hottest template should dominate a uniform
        // share by a wide margin.
        let top = seen.values().copied().max().unwrap();
        assert!(
            top * svc.count > 2 * 4000,
            "top template drew {top}/4000 — no popularity concentration"
        );
        // Disabling the catalog restores ad-hoc chains: far more distinct
        // chains than any bounded template set.
        let mut adhoc = built.spec.clone();
        adhoc.stream.services = None;
        let adhoc = adhoc.build();
        let distinct: std::collections::HashSet<Vec<VnfTypeId>> =
            RequestStream::new(&adhoc, 4000).map(|r| r.sfc).collect();
        assert!(distinct.len() > 2 * svc.count, "ad-hoc mode yielded {} chains", distinct.len());
    }

    #[test]
    fn flash_crowds_modulate_the_rate() {
        let built = toy();
        let stream = RequestStream::new(&built, 1);
        // Scan epochs: some must flash, most must not (p = 0.02).
        let flashed = (0..2000)
            .filter(|&e| {
                let t = (e as f64 + 0.5) * built.spec.stream.flash_epoch;
                stream.rate_at(t) > built.spec.stream.arrival_rate * 2.0
            })
            .count();
        assert!(flashed > 0, "no epoch flashed out of 2000");
        assert!(flashed < 400, "flash epochs should be rare, got {flashed}/2000");
    }

    #[test]
    fn ttl_distributions_differ_in_tail() {
        let built = toy();
        let mut pareto_spec = built.spec.clone();
        pareto_spec.stream.ttl = TtlSpec::Pareto { scale: 40.0, shape: 1.5 };
        let pareto = pareto_spec.build();
        let exp_max =
            RequestStream::new(&built, 3000).timed().map(|t| t.ttl).fold(0.0f64, f64::max);
        let par_max =
            RequestStream::new(&pareto, 3000).timed().map(|t| t.ttl).fold(0.0f64, f64::max);
        assert!(par_max > exp_max, "Pareto tail {par_max} should exceed Exp tail {exp_max}");
    }
}
