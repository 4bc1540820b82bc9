//! The front end: cache-through planning, single and batch.

use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use powerlens::{PlanOutcome, PowerLens, PowerLensError};
use powerlens_dnn::Graph;
use powerlens_lint::{
    lint_cached_plan, lint_view, platform_signature, CachedPlanContext, LintConfig,
};
use powerlens_obs as obs;
use powerlens_par as par;

use crate::disk::DiskTier;
use crate::entry::{StoredEntry, SCHEMA_VERSION};
use crate::key::{cache_key_epoch, cache_key_for, CacheKey};
use crate::mem::MemTier;

/// Upper bound on distinct tenants the per-tenant accounting table keeps.
/// Beyond it the least-recently-active tenant's row is evicted, so a churn
/// of one-shot tenants (or an eviction-driven scan) cannot grow the table —
/// or the daemon's `/metrics` payload — without bound.
pub const MAX_TENANT_ROWS: usize = 64;

/// Which tiers a [`PlanStore`] consults.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Bypass the cache entirely: every call plans from scratch.
    Off,
    /// In-memory LRU only.
    Mem,
    /// In-memory LRU over the on-disk tier.
    Disk,
}

impl CacheMode {
    /// Parses the CLI spelling (`off`, `mem`, `disk`).
    pub fn parse(s: &str) -> Option<CacheMode> {
        match s {
            "off" => Some(CacheMode::Off),
            "mem" => Some(CacheMode::Mem),
            "disk" => Some(CacheMode::Disk),
            _ => None,
        }
    }
}

impl std::fmt::Display for CacheMode {
    /// Renders the same spelling [`CacheMode::parse`] accepts.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            CacheMode::Off => "off",
            CacheMode::Mem => "mem",
            CacheMode::Disk => "disk",
        })
    }
}

/// A content-addressed cache of [`PlanOutcome`]s in front of the planner.
///
/// Lookups are keyed by [`crate::cache_key`] — graph fingerprint + configuration +
/// model version + platform signature — so a hit is only ever returned for
/// byte-equivalent planning inputs, and any input change transparently
/// becomes a miss. Concurrent callers are safe (the memory tier is sharded;
/// disk writes are atomic); two simultaneous misses of the same key both
/// plan and converge on the same value, which the planner's determinism
/// makes identical.
#[derive(Debug)]
pub struct PlanStore {
    mode: CacheMode,
    mem: MemTier,
    disk: Option<DiskTier>,
    tenants: Mutex<TenantTable>,
}

/// The bounded per-tenant accounting table: stats plus a logical recency
/// stamp per tenant, evicting the least-recently-active row past
/// [`MAX_TENANT_ROWS`].
#[derive(Debug, Default)]
struct TenantTable {
    rows: HashMap<String, (TenantStats, u64)>,
    clock: u64,
}

impl TenantTable {
    /// Bumps the tenant's stats and recency; inserting a new tenant past the
    /// cap first evicts the stalest existing row.
    fn touch(&mut self, tenant: &str, hit: bool) {
        self.clock += 1;
        if !self.rows.contains_key(tenant) && self.rows.len() >= MAX_TENANT_ROWS {
            if let Some(stalest) = self
                .rows
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(name, _)| name.clone())
            {
                self.rows.remove(&stalest);
            }
        }
        let (stats, stamp) = self.rows.entry(tenant.to_string()).or_default();
        *stamp = self.clock;
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
    }
}

/// Per-tenant cache accounting, tracked by [`PlanStore`] for lookups made
/// through a tenant namespace (see [`PlanStore::lookup_or_plan`]).
///
/// `hits + misses` always equals the number of namespaced lookups that
/// tenant has issued — [`PlanStore::get_cached`] misses count too — unless
/// the tenant was evicted from the bounded table ([`MAX_TENANT_ROWS`]) and
/// re-admitted, in which case its counts restart from zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Lookups served from a cache tier.
    pub hits: u64,
    /// Lookups that had to plan (or, for cached-only lookups, found
    /// nothing).
    pub misses: u64,
}

impl PlanStore {
    /// Creates a store. `capacity` bounds the in-memory tier; `dir` is the
    /// cache directory, required (and created) for [`CacheMode::Disk`].
    ///
    /// # Errors
    ///
    /// `InvalidInput` when disk mode is requested without a directory;
    /// directory-creation failures otherwise.
    pub fn new(mode: CacheMode, capacity: usize, dir: Option<&Path>) -> io::Result<Self> {
        Self::build(mode, MemTier::new(capacity), dir)
    }

    /// Creates a store with an explicit memory-tier shard count (tests use
    /// one shard to make the eviction order exact).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PlanStore::new`].
    pub fn with_shards(
        mode: CacheMode,
        capacity: usize,
        shards: usize,
        dir: Option<&Path>,
    ) -> io::Result<Self> {
        Self::build(mode, MemTier::with_shards(capacity, shards), dir)
    }

    fn build(mode: CacheMode, mem: MemTier, dir: Option<&Path>) -> io::Result<Self> {
        Ok(PlanStore {
            mode,
            mem,
            disk: DiskTier::for_mode(mode, dir)?,
            tenants: Mutex::new(TenantTable::default()),
        })
    }

    /// The mode this store was created with.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Number of outcomes resident in the memory tier.
    pub fn resident(&self) -> usize {
        self.mem.len()
    }

    /// Returns the plan for `graph`, from cache when possible.
    ///
    /// Equivalent to [`PlanStore::lookup_or_plan`] with no tenant,
    /// discarding the hit flag.
    ///
    /// # Errors
    ///
    /// Propagates planner errors on a miss.
    pub fn get_or_plan(
        &self,
        pl: &PowerLens<'_>,
        graph: &Graph,
    ) -> Result<PlanOutcome, PowerLensError> {
        self.lookup_or_plan(pl, graph, None).map(|(o, _)| o)
    }

    /// Returns the plan for `graph` in the given tenant namespace, plus
    /// whether a cache tier served it (`true` = hit).
    ///
    /// Tier order: memory, then disk (lint-gated; bad entries are
    /// quarantined and treated as misses), then a real planning run whose
    /// outcome back-fills both tiers. Counts `store.hits` / `store.misses`
    /// and records disk-load latency in the `store.load_ms` histogram;
    /// namespaced lookups additionally update that tenant's
    /// [`TenantStats`].
    ///
    /// # Errors
    ///
    /// Propagates planner errors on a miss.
    pub fn lookup_or_plan(
        &self,
        pl: &PowerLens<'_>,
        graph: &Graph,
        tenant: Option<&str>,
    ) -> Result<(PlanOutcome, bool), PowerLensError> {
        self.lookup_or_plan_epoch(pl, graph, tenant, 0)
    }

    /// Returns the plan for `graph` at a hybrid-governor drift epoch.
    ///
    /// Epoch `0` is exactly [`PlanStore::lookup_or_plan`] — same key, same
    /// entry. A positive epoch (one per re-plan the hybrid ladder grants)
    /// addresses its own cache slot via [`crate::cache_key_epoch`], so the
    /// fresh plan a drifted run asks for can never be served by — nor
    /// clobber — the stale entry whose drift triggered it. Tier order and
    /// accounting are identical to the epoch-zero path.
    ///
    /// # Errors
    ///
    /// Propagates planner errors on a miss.
    pub fn lookup_or_plan_epoch(
        &self,
        pl: &PowerLens<'_>,
        graph: &Graph,
        tenant: Option<&str>,
        epoch: u64,
    ) -> Result<(PlanOutcome, bool), PowerLensError> {
        if self.mode == CacheMode::Off {
            return plan_uncached(pl, graph).map(|o| (o, false));
        }
        let key = cache_key_epoch(pl, graph, tenant, epoch);
        if let Some(hit) = self.mem.get(key.0) {
            self.count(tenant, true);
            return Ok((hit, true));
        }
        if let Some(disk) = &self.disk {
            let start = Instant::now();
            let loaded = self.load_gated(disk, key, pl, graph);
            obs::histogram("store.load_ms", start.elapsed().as_secs_f64() * 1e3);
            if let Some(outcome) = loaded {
                self.count(tenant, true);
                self.mem.insert(key.0, outcome.clone());
                return Ok((outcome, true));
            }
        }
        self.count(tenant, false);
        let outcome = plan_uncached(pl, graph)?;
        self.mem.insert(key.0, outcome.clone());
        if let Some(disk) = &self.disk {
            let entry = StoredEntry::from_outcome(
                key,
                &platform_signature(pl.platform()),
                graph.name(),
                graph.fingerprint(),
                &outcome,
            );
            // A failed persist only costs a future re-plan; the outcome in
            // hand is still valid.
            if let Err(e) = disk.store(key, &entry) {
                eprintln!("store: failed to persist entry {key}: {e}");
            }
        }
        Ok((outcome, false))
    }

    /// Cached-only lookup: memory tier, no disk I/O and **no planning**.
    ///
    /// This is the degraded tier of the serving ladder (`docs/SERVING.md`):
    /// under load the daemon answers from whatever is already resident
    /// rather than queueing an expensive planning run. Counts the same
    /// hit/miss accounting as [`PlanStore::lookup_or_plan`].
    pub fn get_cached(
        &self,
        pl: &PowerLens<'_>,
        graph: &Graph,
        tenant: Option<&str>,
    ) -> Option<PlanOutcome> {
        if self.mode == CacheMode::Off {
            return None;
        }
        let key = cache_key_for(pl, graph, tenant);
        let hit = self.mem.get(key.0);
        self.count(tenant, hit.is_some());
        hit
    }

    /// Records one lookup in the global obs counters and, when namespaced,
    /// in the tenant's stats.
    fn count(&self, tenant: Option<&str>, hit: bool) {
        obs::counter(if hit { "store.hits" } else { "store.misses" }, 1);
        if let Some(t) = tenant {
            let mut table = self.tenants.lock().expect("tenant stats poisoned");
            table.touch(t, hit);
        }
    }

    /// Per-tenant hit/miss accounting, sorted by tenant name (served by the
    /// daemon's `/metrics` endpoint). Tenants appear after their first
    /// namespaced lookup; at most [`MAX_TENANT_ROWS`] rows are retained,
    /// least-recently-active evicted first.
    pub fn tenant_stats(&self) -> Vec<(String, TenantStats)> {
        let table = self.tenants.lock().expect("tenant stats poisoned");
        let mut out: Vec<(String, TenantStats)> = table
            .rows
            .iter()
            .map(|(k, (v, _))| (k.clone(), *v))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Loads and lint-gates a disk entry. Entries that fail the gate —
    /// wrong platform (`PL301`), wrong schema (`PL302`), invalid levels,
    /// view/plan inconsistencies, or a fingerprint that no longer matches
    /// the graph — are quarantined and reported as a miss.
    fn load_gated(
        &self,
        disk: &DiskTier,
        key: CacheKey,
        pl: &PowerLens<'_>,
        graph: &Graph,
    ) -> Option<PlanOutcome> {
        let entry = disk.load(key)?;
        if entry.graph_fingerprint != format!("{:016x}", graph.fingerprint()) {
            disk.quarantine(&disk.path_for(key));
            return None;
        }
        let outcome = entry.to_outcome();
        let config = LintConfig {
            max_blocks: pl.config().max_blocks,
        };
        let mut report = lint_cached_plan(
            &CachedPlanContext {
                plan: &outcome.plan,
                platform: pl.platform(),
                entry_platform: &entry.platform,
                entry_schema: entry.schema_version,
                expected_schema: SCHEMA_VERSION,
            },
            &config,
        );
        report.merge(lint_view(&outcome.view, Some(graph), &config));
        powerlens_lint::record_to_obs(&report);
        if report.has_errors() {
            disk.quarantine(&disk.path_for(key));
            return None;
        }
        Some(outcome)
    }
}

/// One real planning run: model-driven when models are loaded, exhaustive
/// oracle search otherwise (mirrors the CLI's planner selection).
fn plan_uncached(pl: &PowerLens<'_>, graph: &Graph) -> Result<PlanOutcome, PowerLensError> {
    if pl.models().is_some() {
        pl.plan(graph)
    } else {
        pl.plan_oracle(graph)
    }
}

/// Plans every graph through the store with `powerlens_par` workers
/// (`threads == 0` means all cores). Results are in input order; each
/// element is that graph's outcome or planning error.
pub fn plan_batch(
    store: &PlanStore,
    pl: &PowerLens<'_>,
    graphs: &[Graph],
    threads: usize,
) -> Vec<Result<PlanOutcome, PowerLensError>> {
    let _span = obs::span("plan_batch");
    par::map_slice(graphs, threads, |_, g| store.get_or_plan(pl, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::cache_key;
    use powerlens::PowerLensConfig;
    use powerlens_dnn::zoo;
    use powerlens_platform::Platform;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "powerlens_store_service_{tag}_{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mem_cache_returns_identical_outcome() {
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let store = PlanStore::new(CacheMode::Mem, 16, None).unwrap();
        let g = zoo::alexnet();
        let cold = store.get_or_plan(&pl, &g).unwrap();
        let warm = store.get_or_plan(&pl, &g).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(store.resident(), 1);
    }

    #[test]
    fn disk_cache_round_trips_across_store_instances() {
        let dir = temp_dir("roundtrip");
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let g = zoo::alexnet();

        let first = PlanStore::new(CacheMode::Disk, 16, Some(&dir)).unwrap();
        let cold = first.get_or_plan(&pl, &g).unwrap();

        // Fresh store, empty memory tier: must come back from disk, equal.
        let second = PlanStore::new(CacheMode::Disk, 16, Some(&dir)).unwrap();
        assert_eq!(second.resident(), 0);
        let warm = second.get_or_plan(&pl, &g).unwrap();
        assert_eq!(cold, warm);
        assert_eq!(second.resident(), 1, "disk hit back-fills memory");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn platform_drift_in_entry_is_quarantined_and_replanned() {
        let dir = temp_dir("drift");
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let g = zoo::alexnet();

        let store = PlanStore::new(CacheMode::Disk, 16, Some(&dir)).unwrap();
        let original = store.get_or_plan(&pl, &g).unwrap();

        // Doctor the entry's recorded platform: same key on disk, but the
        // provenance now claims tx2 — the PL301 gate must reject it.
        let key = cache_key(&pl, &g);
        let path = dir.join(format!("{}.json", key.hex()));
        let agx_sig = platform_signature(&platform);
        let tx2_sig = platform_signature(&Platform::tx2());
        let doctored = fs::read_to_string(&path)
            .unwrap()
            .replace(&agx_sig, &tx2_sig);
        assert_ne!(doctored, fs::read_to_string(&path).unwrap());
        fs::write(&path, doctored).unwrap();

        let fresh = PlanStore::new(CacheMode::Disk, 16, Some(&dir)).unwrap();
        let replanned = fresh.get_or_plan(&pl, &g).unwrap();
        // Fresh planning run ⇒ fresh timings; the artifacts must match.
        assert_eq!(replanned.plan, original.plan);
        assert_eq!(replanned.view, original.view);
        let quarantined = dir.join(format!("{}.json.quarantine", key.hex()));
        assert!(quarantined.exists(), "bad entry moved aside");
        // The re-plan re-persisted a clean entry under the original name.
        assert!(path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_mode_requires_a_directory() {
        let err = PlanStore::new(CacheMode::Disk, 16, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn batch_planning_is_concurrent_safe_and_deduplicated() {
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let store = PlanStore::new(CacheMode::Mem, 16, None).unwrap();
        // Duplicates force concurrent hit/miss traffic on the same keys.
        let graphs: Vec<_> = (0..3)
            .flat_map(|_| [zoo::alexnet(), zoo::mobilenet_v3()])
            .collect();
        let results = plan_batch(&store, &pl, &graphs, 4);
        assert_eq!(results.len(), graphs.len());
        let outcomes: Vec<_> = results.into_iter().map(|r| r.unwrap()).collect();
        // Concurrent first-misses of one key may both plan, so wall-clock
        // timings can differ between duplicates; the planned artifacts are
        // deterministic and must not.
        for pair in outcomes.chunks(2).skip(1) {
            assert_eq!(pair[0].plan, outcomes[0].plan, "same graph, same plan");
            assert_eq!(pair[0].view, outcomes[0].view);
            assert_eq!(pair[1].plan, outcomes[1].plan);
            assert_eq!(pair[1].view, outcomes[1].view);
        }
        assert_eq!(store.resident(), 2, "two distinct keys cached");
    }

    #[test]
    fn cache_off_always_plans() {
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let store = PlanStore::new(CacheMode::Off, 16, None).unwrap();
        let g = zoo::alexnet();
        store.get_or_plan(&pl, &g).unwrap();
        assert_eq!(store.resident(), 0);
    }

    #[test]
    fn epoch_zero_lookup_shares_the_tenant_entry_and_epochs_get_their_own() {
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let store = PlanStore::new(CacheMode::Mem, 16, None).unwrap();
        let g = zoo::alexnet();

        let (base, hit) = store.lookup_or_plan(&pl, &g, Some("acme")).unwrap();
        assert!(!hit);
        // Epoch 0 is the same slot: warm hit, no new resident entry.
        let (same, hit) = store
            .lookup_or_plan_epoch(&pl, &g, Some("acme"), 0)
            .unwrap();
        assert!(hit);
        assert_eq!(base, same);
        assert_eq!(store.resident(), 1);

        // Each positive epoch misses once into its own slot.
        let (e1, hit) = store
            .lookup_or_plan_epoch(&pl, &g, Some("acme"), 1)
            .unwrap();
        assert!(!hit);
        let (_, hit) = store
            .lookup_or_plan_epoch(&pl, &g, Some("acme"), 1)
            .unwrap();
        assert!(hit, "same epoch re-hits");
        let (e2, hit) = store
            .lookup_or_plan_epoch(&pl, &g, Some("acme"), 2)
            .unwrap();
        assert!(!hit);
        assert_eq!(store.resident(), 3);
        // Deterministic planner: distinct slots, identical artifacts.
        assert_eq!(e1.plan, base.plan);
        assert_eq!(e2.plan, base.plan);
    }

    #[test]
    fn tenant_table_evicts_the_least_recently_active_row() {
        let platform = Platform::agx();
        let pl = PowerLens::untrained(&platform, PowerLensConfig::default());
        let store = PlanStore::new(CacheMode::Mem, 256, None).unwrap();
        let g = zoo::alexnet();

        for i in 0..MAX_TENANT_ROWS {
            store
                .lookup_or_plan(&pl, &g, Some(&format!("t{i:03}")))
                .unwrap();
        }
        assert_eq!(store.tenant_stats().len(), MAX_TENANT_ROWS);

        // Keep t000 fresh, then admit a new tenant: the stalest row (t001)
        // must go, not the oldest-inserted one.
        store.lookup_or_plan(&pl, &g, Some("t000")).unwrap();
        store.lookup_or_plan(&pl, &g, Some("zzz-new")).unwrap();
        let stats = store.tenant_stats();
        assert_eq!(stats.len(), MAX_TENANT_ROWS, "table stays bounded");
        let names: Vec<&str> = stats.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"t000"), "recently-touched row survives");
        assert!(names.contains(&"zzz-new"));
        assert!(!names.contains(&"t001"), "stalest row evicted");
        // The survivor kept its accumulated counts.
        let t000 = &stats.iter().find(|(n, _)| n == "t000").unwrap().1;
        assert_eq!(t000.hits + t000.misses, 2);
    }

    #[test]
    fn cache_mode_parses_cli_spellings() {
        assert_eq!(CacheMode::parse("off"), Some(CacheMode::Off));
        assert_eq!(CacheMode::parse("mem"), Some(CacheMode::Mem));
        assert_eq!(CacheMode::parse("disk"), Some(CacheMode::Disk));
        assert_eq!(CacheMode::parse("ram"), None);
        // Display round-trips through parse.
        for mode in [CacheMode::Off, CacheMode::Mem, CacheMode::Disk] {
            assert_eq!(CacheMode::parse(&mode.to_string()), Some(mode));
        }
    }
}
