//! Seeded inputs: one `--seed` drives model order, tenant names, manifest
//! positions and the training seeds.

/// The zoo models every serve and train operation draws from: two light
/// graphs, one transformer, and the two deepest convolutional graphs.
pub const POOL_MODELS: [&str; 5] = [
    "alexnet",
    "mobilenet_v3",
    "vit_base_16",
    "resnet152",
    "densenet201",
];

/// Tenants in serve_warm's key pool (pool size = tenants × models, well
/// under the daemon's 256-entry memory tier).
pub const WARM_TENANTS: usize = 6;

/// One request in this many carries its model as an inline manifest.
pub const MANIFEST_EVERY: u64 = 5;

/// SplitMix64: small, seedable and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A uniformly shuffled `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
        v
    }
}

/// Derives an independent stream seed for one purpose from the run seed.
pub fn derive(seed: u64, purpose: u64) -> u64 {
    Rng::new(seed ^ purpose.wrapping_mul(0xa076_1d64_78bd_642f)).next_u64()
}

/// One serve request: which pool model, in which form, for which tenant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReq {
    pub model: usize,
    pub manifest: bool,
    pub tenant: String,
}

/// The first `n` requests of a serve workload. Requests come in seeded
/// rounds of `MANIFEST_EVERY` × models: each model once per form slot, one
/// slot of which is the inline manifest, so every run sends the same mix.
/// Warm requests draw their tenant from the fixed pool; cold requests each
/// get a fresh tenant.
pub fn serve_sequence(cold: bool, seed: u64, n: usize) -> Vec<ServeReq> {
    let mut rng = Rng::new(derive(seed, 1));
    let models = POOL_MODELS.len();
    let round = models * MANIFEST_EVERY as usize;
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        for slot in rng.permutation(round) {
            let i = out.len();
            let tenant = if cold {
                format!("cold-{seed:x}-{i}")
            } else {
                format!("warm-{}", rng.below(WARM_TENANTS as u64))
            };
            out.push(ServeReq {
                model: slot % models,
                manifest: slot / models == 0,
                tenant,
            });
        }
    }
    out.truncate(n);
    out
}

/// `rounds` seeded permutations of `0..items`, concatenated: every item
/// runs once per round, in a fresh order each round.
pub fn round_order(seed: u64, items: usize, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(derive(seed, 2));
    (0..rounds).flat_map(|_| rng.permutation(items)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_an_identical_request_sequence() {
        for cold in [false, true] {
            assert_eq!(serve_sequence(cold, 7, 500), serve_sequence(cold, 7, 500));
        }
        assert_eq!(round_order(7, 8, 20), round_order(7, 8, 20));
        assert_eq!(derive(7, 3), derive(7, 3));
    }

    #[test]
    fn different_seeds_give_different_sequences() {
        for cold in [false, true] {
            assert_ne!(serve_sequence(cold, 7, 500), serve_sequence(cold, 8, 500));
        }
        assert_ne!(round_order(7, 8, 20), round_order(8, 8, 20));
        assert_ne!(derive(7, 3), derive(8, 3));
    }

    #[test]
    fn sequences_cover_the_mix() {
        let warm = serve_sequence(false, 1, 2000);
        let manifests = warm.iter().filter(|r| r.manifest).count();
        assert_eq!(manifests, 400, "one request in five is a manifest");
        for m in 0..POOL_MODELS.len() {
            assert!(warm.iter().any(|r| r.model == m));
        }
        let tenants: std::collections::BTreeSet<_> = warm.iter().map(|r| &r.tenant).collect();
        assert_eq!(tenants.len(), WARM_TENANTS);
        let cold = serve_sequence(true, 1, 100);
        let tenants: std::collections::BTreeSet<_> = cold.iter().map(|r| &r.tenant).collect();
        assert_eq!(tenants.len(), 100, "every cold request has its own tenant");
        let order = round_order(3, 8, 5);
        for round in order.chunks(8) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, (0..8).collect::<Vec<_>>());
        }
    }
}
