//! Content-addressed lint-report cache, on the plan store's own tiers.
//!
//! A lint run is a pure function of the graph structure, the rule catalog,
//! the platform, and the batch size — so its reports can be memoized the
//! same way plans are. [`lint_cache_key`] folds [`Graph::fingerprint`], the
//! lint crate's [`RULES_VERSION`], the platform signature, and the batch
//! into one [`CacheKey`]; bumping the rule catalog invalidates every cached
//! report automatically, with no manual flush.
//!
//! [`LintCache`] keeps its reports in a [`MemTier`] LRU over an optional
//! [`DiskTier`] — the same tiers, eviction, atomic writes, tmp sweep and
//! numbered quarantine the plan store uses. The disk tier lives in a `lint`
//! subdirectory of the cache directory: the two file populations share a
//! naming scheme but not a schema, and a shared directory would let one
//! cache quarantine the other's entries.
//!
//! Reports are persisted via `powerlens_lint::report_to_value`, whose
//! inverse *fails* on unknown rule codes or unparseable locations — a stale
//! entry from an older catalog is discarded, never half-trusted.
//!
//! [`Graph::fingerprint`]: powerlens_dnn::Graph::fingerprint
//! [`RULES_VERSION`]: powerlens_lint::RULES_VERSION

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use powerlens_dnn::Graph;
use powerlens_lint::{
    platform_signature, report_from_value, report_to_value, LintReport, RULES_VERSION,
};
use powerlens_obs as obs;
use powerlens_platform::Platform;
use serde::Value;

use crate::disk::DiskTier;
use crate::key::{CacheKey, Fnv1a};
use crate::mem::MemTier;
use crate::service::CacheMode;

/// Envelope schema for on-disk lint entries. Bump on layout changes; old
/// files then read as misses and are quarantined.
pub const LINT_SCHEMA_VERSION: u32 = 1;

/// The content address of one lint outcome: graph structure × rule catalog
/// version × platform × batch. Any change to any component re-lints.
pub fn lint_cache_key(graph: &Graph, platform: &Platform, batch: usize) -> CacheKey {
    let mut h = Fnv1a::new();
    h.write_u64(graph.fingerprint());
    h.write_u64(u64::from(RULES_VERSION));
    h.write_bytes(platform_signature(platform).as_bytes());
    h.write_u64(batch as u64);
    CacheKey(h.finish())
}

/// A two-tier (memory + optional disk) cache of full lint runs.
#[derive(Debug)]
pub struct LintCache {
    mem: MemTier<Vec<LintReport>>,
    disk: Option<DiskTier>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl LintCache {
    /// The lint cache a frontend running its plan store in `mode` uses:
    /// `None` when caching is off, else an LRU of `capacity` entries, over
    /// a disk tier under `<dir>/lint` in [`CacheMode::Disk`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`crate::PlanStore::new`].
    pub fn open(mode: CacheMode, capacity: usize, dir: Option<&Path>) -> io::Result<Option<Self>> {
        if mode == CacheMode::Off {
            return Ok(None);
        }
        let lint_dir = dir.map(|d| d.join("lint"));
        Ok(Some(LintCache {
            mem: MemTier::new(capacity),
            disk: DiskTier::for_mode(mode, lint_dir.as_deref())?,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }))
    }

    /// Cache hits served so far (memory or disk).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a real lint run.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Returns the cached reports for `key`, consulting memory then disk.
    /// A disk hit back-fills the memory tier.
    pub fn get(&self, key: CacheKey) -> Option<Vec<LintReport>> {
        let found = self.mem.get(key.0).or_else(|| {
            let disk = self.disk.as_ref()?;
            let reports = disk.read(key, |text| decode_envelope(text, key).ok())?;
            self.mem.insert(key.0, reports.clone());
            Some(reports)
        });
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter("lint.cache.hits", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            obs::counter("lint.cache.misses", 1);
        }
        found
    }

    /// Stores `reports` under `key` in both tiers. Disk-write failures are
    /// swallowed: a cache that cannot persist degrades to memory-only
    /// rather than failing the lint run that produced the reports.
    pub fn put(&self, key: CacheKey, reports: &[LintReport]) {
        self.mem.insert(key.0, reports.to_vec());
        if let Some(disk) = &self.disk {
            let _ = disk.write(key, &encode_envelope(key, reports));
        }
    }
}

fn encode_envelope(key: CacheKey, reports: &[LintReport]) -> Value {
    Value::Object(vec![
        (
            "schema_version".to_string(),
            Value::Num(f64::from(LINT_SCHEMA_VERSION)),
        ),
        ("key".to_string(), Value::Str(key.hex())),
        (
            "rules_version".to_string(),
            Value::Num(f64::from(RULES_VERSION)),
        ),
        (
            "reports".to_string(),
            Value::Array(reports.iter().map(report_to_value).collect()),
        ),
    ])
}

fn decode_envelope(text: &str, key: CacheKey) -> Result<Vec<LintReport>, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let num = |name: &str| -> Result<u32, String> {
        match doc.field(name) {
            Ok(Value::Num(x)) => Ok(*x as u32),
            Ok(other) => Err(format!("`{name}` must be a number, got {}", other.kind())),
            Err(e) => Err(e.to_string()),
        }
    };
    if num("schema_version")? != LINT_SCHEMA_VERSION {
        return Err("schema version mismatch".to_string());
    }
    if num("rules_version")? != RULES_VERSION {
        return Err("rule catalog changed since this entry was written".to_string());
    }
    match doc.field("key") {
        Ok(Value::Str(s)) if *s == key.hex() => {}
        _ => return Err("entry recorded under a different key".to_string()),
    }
    let items = match doc.field("reports") {
        Ok(Value::Array(a)) => a,
        Ok(other) => return Err(format!("`reports` must be an array, got {}", other.kind())),
        Err(e) => return Err(e.to_string()),
    };
    items.iter().map(report_from_value).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powerlens_dnn::zoo;
    use powerlens_lint::{lint_dataflow, lint_graph, DataflowContext, LintConfig};
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("powerlens_lintcache_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn disk_cache(dir: &Path) -> LintCache {
        LintCache::open(CacheMode::Disk, 16, Some(dir))
            .unwrap()
            .expect("disk mode opens a cache")
    }

    /// Where a disk cache opened on `dir` keeps the entry for `key`.
    fn entry_path(dir: &Path, key: CacheKey) -> PathBuf {
        dir.join("lint").join(format!("{}.json", key.hex()))
    }

    fn lint_once(graph: &Graph) -> Vec<LintReport> {
        let config = LintConfig::default();
        vec![
            lint_graph(graph, &config),
            lint_dataflow(&DataflowContext::new(graph), &config),
        ]
    }

    #[test]
    fn key_separates_graphs_platforms_batches_not_reruns() {
        let agx = Platform::agx();
        let g = zoo::alexnet();
        let k = lint_cache_key(&g, &agx, 1);
        assert_eq!(k, lint_cache_key(&g, &agx, 1));
        assert_ne!(k, lint_cache_key(&zoo::resnet34(), &agx, 1));
        assert_ne!(k, lint_cache_key(&g, &Platform::tx2(), 1));
        assert_ne!(k, lint_cache_key(&g, &agx, 8));
    }

    #[test]
    fn off_mode_opens_no_cache() {
        assert!(LintCache::open(CacheMode::Off, 16, None).unwrap().is_none());
    }

    #[test]
    fn mem_cache_serves_second_lookup_without_relinting() {
        let cache = LintCache::open(CacheMode::Mem, 16, None).unwrap().unwrap();
        let g = zoo::googlenet();
        let key = lint_cache_key(&g, &Platform::agx(), 1);

        let mut runs = 0;
        let mut lookup = || {
            cache.get(key).unwrap_or_else(|| {
                runs += 1;
                let reports = lint_once(&g);
                cache.put(key, &reports);
                reports
            })
        };
        let cold = lookup();
        let warm = lookup();
        assert_eq!(runs, 1, "second lookup must be served from memory");
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cold.len(), warm.len());
        // googlenet's dead branch4.pool chains survive the round trip.
        assert!(warm.iter().any(|r| r.fired("PL502")));
    }

    #[test]
    fn memory_tier_is_bounded_by_its_capacity() {
        let cache = LintCache::open(CacheMode::Mem, 4, None).unwrap().unwrap();
        let g = zoo::alexnet();
        let agx = Platform::agx();
        let reports = lint_once(&g);
        for batch in 1..=10 {
            cache.put(lint_cache_key(&g, &agx, batch), &reports);
        }
        assert!(cache.mem.len() <= 4, "{} entries resident", cache.mem.len());
        assert!(cache.get(lint_cache_key(&g, &agx, 10)).is_some());
    }

    #[test]
    fn disk_entries_survive_a_reopen() {
        let dir = temp_dir("reopen");
        let g = zoo::alexnet();
        let key = lint_cache_key(&g, &Platform::agx(), 1);
        {
            let cache = disk_cache(&dir);
            cache.put(key, &lint_once(&g));
        }
        let reopened = disk_cache(&dir);
        let reports = reopened.get(key).expect("entry must persist");
        assert_eq!(reopened.hits(), 1);
        assert_eq!(reports.len(), 2);
        assert_eq!(reports[0].subject, "alexnet");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_and_miskeyed_entries_are_quarantined_misses() {
        let dir = temp_dir("corrupt");
        let cache = disk_cache(&dir);
        let g = zoo::alexnet();
        let key = lint_cache_key(&g, &Platform::agx(), 1);
        let path = entry_path(&dir, key);

        fs::write(&path, "{ nope").unwrap();
        assert!(cache.get(key).is_none());
        assert!(path.with_extension("json.quarantine").exists());

        // A valid envelope recorded under a different key must not serve.
        let other = lint_cache_key(&g, &Platform::tx2(), 1);
        let json = serde_json::to_string(&encode_envelope(other, &lint_once(&g))).unwrap();
        fs::write(&path, json).unwrap();
        assert!(cache.get(key).is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_corruption_keeps_every_quarantined_payload() {
        let dir = temp_dir("requarantine");
        let cache = disk_cache(&dir);
        let key = lint_cache_key(&zoo::alexnet(), &Platform::agx(), 1);
        let path = entry_path(&dir, key);
        for round in 0..3 {
            fs::write(&path, format!("bad payload round {round}")).unwrap();
            assert!(cache.get(key).is_none());
        }
        for (round, suffix) in ["quarantine", "quarantine.1", "quarantine.2"]
            .iter()
            .enumerate()
        {
            let kept = path.with_extension(format!("json.{suffix}"));
            assert_eq!(
                fs::read_to_string(&kept).unwrap(),
                format!("bad payload round {round}")
            );
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_rules_version_invalidates_the_entry() {
        let dir = temp_dir("stale");
        let cache = disk_cache(&dir);
        let g = zoo::alexnet();
        let key = lint_cache_key(&g, &Platform::agx(), 1);
        cache.put(key, &lint_once(&g));

        let path = entry_path(&dir, key);
        let text = fs::read_to_string(&path).unwrap();
        let aged = text.replace(
            &format!("\"rules_version\": {RULES_VERSION}"),
            "\"rules_version\": 0",
        );
        assert_ne!(text, aged, "fixture must actually rewrite the version");
        fs::write(&path, aged).unwrap();

        // Memory still holds it; a fresh cache reading only disk must miss.
        let fresh = disk_cache(&dir);
        assert!(fresh.get(key).is_none());
        assert_eq!(fresh.misses(), 1);
        fs::remove_dir_all(&dir).ok();
    }
}
