//! The on-disk tier: one JSON file per key, written atomically, read
//! defensively.
//!
//! Writes go to a `.tmp` sibling first and are moved into place with
//! `rename`, so a crash mid-write can never leave a half-entry under the
//! final name. Every write gets its own tmp name, so concurrent writers of
//! the same key never truncate each other's file and settle on one complete
//! entry. Opening a tier sweeps any `.tmp` files a crashed writer left
//! behind. Reads never trust the bytes: anything that fails to parse, or
//! whose recorded key disagrees with its file name, is *quarantined* —
//! renamed to `<name>.quarantine` (suffixed `.quarantine.1`, `.2`, … when
//! that name is taken, so repeat offenders never clobber earlier evidence)
//! — and reported as a miss.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process;
use std::sync::atomic::{AtomicU64, Ordering};

use powerlens_obs as obs;
use serde::Serialize;

use crate::entry::StoredEntry;
use crate::key::CacheKey;
use crate::service::CacheMode;

/// Process-wide write counter; with the process id it makes every tmp
/// file name unique.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A cache directory holding one `<key-hex>.json` per entry.
#[derive(Debug, Clone)]
pub struct DiskTier {
    dir: PathBuf,
}

impl DiskTier {
    /// Opens (creating if needed) the cache directory, sweeping any stale
    /// `.tmp` files left by writers that crashed mid-write. A tmp file is
    /// garbage by construction — the rename that would have published it
    /// never happened — so removal is always safe.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures. Sweep failures (e.g. a tmp
    /// file vanishing concurrently) are ignored; the file was unreachable
    /// by any load path anyway.
    pub fn new(dir: &Path) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        let tier = DiskTier {
            dir: dir.to_path_buf(),
        };
        tier.sweep_stale_tmp();
        Ok(tier)
    }

    /// The disk tier `mode` asks for: opened under `dir` in
    /// [`CacheMode::Disk`] (an `InvalidInput` error without one), absent
    /// otherwise.
    pub(crate) fn for_mode(mode: CacheMode, dir: Option<&Path>) -> io::Result<Option<Self>> {
        if mode != CacheMode::Disk {
            return Ok(None);
        }
        let dir = dir.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "disk cache mode requires a cache directory",
            )
        })?;
        Self::new(dir).map(Some)
    }

    fn sweep_stale_tmp(&self) {
        let Ok(entries) = fs::read_dir(&self.dir) else {
            return;
        };
        let mut swept = 0u64;
        for entry in entries.flatten() {
            let path = entry.path();
            let is_tmp = path.extension().is_some_and(|e| e == "tmp");
            if is_tmp && path.is_file() && fs::remove_file(&path).is_ok() {
                swept += 1;
            }
        }
        if swept > 0 {
            obs::counter("store.tmp_swept", swept);
        }
    }

    /// The directory this tier stores entries under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an entry for `key` lives in.
    pub fn path_for(&self, key: CacheKey) -> PathBuf {
        self.dir.join(format!("{}.json", key.hex()))
    }

    /// Loads the entry for `key`. Absent files return `None`; present but
    /// unreadable, unparsable, or mis-keyed files are quarantined and also
    /// return `None`.
    pub fn load(&self, key: CacheKey) -> Option<StoredEntry> {
        self.read(key, |text| {
            serde_json::from_str::<StoredEntry>(text)
                .ok()
                .filter(|entry| entry.key == key.hex())
        })
    }

    /// Persists an entry under its key (atomic tmp+rename).
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn store(&self, key: CacheKey, entry: &StoredEntry) -> io::Result<()> {
        self.write(key, entry)
    }

    /// Reads the file for `key` through `decode`, the codec shared with
    /// the lint cache. Absent files return `None`; files that cannot be
    /// read, or that `decode` rejects, are quarantined and also return
    /// `None`.
    pub(crate) fn read<T>(
        &self,
        key: CacheKey,
        decode: impl FnOnce(&str) -> Option<T>,
    ) -> Option<T> {
        let path = self.path_for(key);
        let decoded = match fs::read_to_string(&path) {
            Ok(text) => decode(&text),
            Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
            Err(_) => None,
        };
        if decoded.is_none() {
            self.quarantine(&path);
        }
        decoded
    }

    /// Publishes `value` as pretty JSON under `key`: written to a tmp file
    /// named `<key-hex>.json.<pid>-<n>.tmp`, unique to this write, then
    /// renamed into place. A failed write removes its tmp file and returns
    /// the serialization or I/O error.
    pub(crate) fn write(&self, key: CacheKey, value: &impl Serialize) -> io::Result<()> {
        let json = serde_json::to_string_pretty(value).map_err(io::Error::other)?;
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = format!("{}.json.{}-{seq}.tmp", key.hex(), process::id());
        let tmp = self.dir.join(tmp);
        let published = fs::write(&tmp, json).and_then(|()| fs::rename(&tmp, self.path_for(key)));
        if published.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        published
    }

    /// Quarantines the file a bad entry was read from. When the quarantine
    /// name is already taken (the same key went bad before), a numeric
    /// suffix is appended instead of overwriting the earlier evidence.
    /// Removal (rather than quarantine) of an already-vanished file is
    /// fine; other rename failures only cost a retry on the next load.
    pub fn quarantine(&self, path: &Path) {
        let base = {
            let mut t = path.as_os_str().to_owned();
            t.push(".quarantine");
            PathBuf::from(t)
        };
        let mut target = base.clone();
        let mut suffix = 0u32;
        while target.exists() {
            suffix += 1;
            if suffix > 10_000 {
                // Pathological collision storm; give up on preserving more
                // evidence and reuse the base name.
                target = base;
                break;
            }
            let mut t = base.as_os_str().to_owned();
            t.push(format!(".{suffix}"));
            target = PathBuf::from(t);
        }
        if fs::rename(path, &target).is_ok() {
            obs::counter("store.quarantined", 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{StoredBlock, StoredPoint, StoredTimings, SCHEMA_VERSION};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("powerlens_store_disk_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn entry_for(key: CacheKey) -> StoredEntry {
        StoredEntry {
            schema_version: SCHEMA_VERSION,
            key: key.hex(),
            platform: "agx:g14:c14".into(),
            model: "sample".into(),
            graph_fingerprint: format!("{:016x}", 99),
            num_layers: 2,
            blocks: vec![StoredBlock { start: 0, end: 2 }],
            points: vec![StoredPoint {
                layer: 0,
                gpu_level: 1,
            }],
            cpu_level: 0,
            scheme_index: 0,
            timings: StoredTimings {
                feature_extraction_ns: 1,
                hyperparameter_prediction_ns: 2,
                clustering_ns: 3,
                decision_ns: 4,
            },
        }
    }

    #[test]
    fn store_then_load_round_trips() {
        let dir = temp_dir("roundtrip");
        let tier = DiskTier::new(&dir).unwrap();
        let key = CacheKey(0xabcd);
        assert!(tier.load(key).is_none());
        let entry = entry_for(key);
        tier.store(key, &entry).unwrap();
        assert_eq!(tier.load(key).unwrap(), entry);
        // No stray tmp file left behind.
        assert!(!tier.dir().join(format!("{}.json.tmp", key.hex())).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_file_is_quarantined_not_fatal() {
        let dir = temp_dir("corrupt");
        let tier = DiskTier::new(&dir).unwrap();
        let key = CacheKey(0x1234);
        fs::write(tier.path_for(key), "{ this is not json").unwrap();
        assert!(tier.load(key).is_none());
        assert!(!tier.path_for(key).exists(), "corrupt file moved aside");
        let quarantined = dir.join(format!("{}.json.quarantine", key.hex()));
        assert!(quarantined.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mis_keyed_file_is_quarantined() {
        let dir = temp_dir("miskey");
        let tier = DiskTier::new(&dir).unwrap();
        let key = CacheKey(0x10);
        // Valid JSON, but recorded under a different key: a renamed or
        // colliding file must not be served.
        tier.store(key, &entry_for(CacheKey(0x20))).unwrap();
        assert!(tier.load(key).is_none());
        assert!(!tier.path_for(key).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_collisions_do_not_clobber_earlier_evidence() {
        let dir = temp_dir("collide");
        let tier = DiskTier::new(&dir).unwrap();
        let key = CacheKey(0x77);
        for round in 0..3 {
            fs::write(tier.path_for(key), format!("bad payload round {round}")).unwrap();
            assert!(tier.load(key).is_none());
        }
        let base = dir.join(format!("{}.json.quarantine", key.hex()));
        let s1 = dir.join(format!("{}.json.quarantine.1", key.hex()));
        let s2 = dir.join(format!("{}.json.quarantine.2", key.hex()));
        assert!(base.exists() && s1.exists() && s2.exists());
        // Each quarantine file preserved its own round's payload.
        assert_eq!(fs::read_to_string(&base).unwrap(), "bad payload round 0");
        assert_eq!(fs::read_to_string(&s2).unwrap(), "bad payload round 2");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_stale_tmp_files() {
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        // Simulate crashed writers: tmp files written but never renamed.
        for i in 0..4 {
            fs::write(dir.join(format!("{i:016x}.json.tmp")), "half-written").unwrap();
        }
        let tier = DiskTier::new(&dir).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "stale tmp files must be swept on open"
        );
        // A healthy entry written after the sweep is untouched.
        let key = CacheKey(0x5a);
        tier.store(key, &entry_for(key)).unwrap();
        assert!(tier.load(key).is_some());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_stores_of_one_key_all_publish() {
        let dir = temp_dir("concurrent");
        let tier = DiskTier::new(&dir).unwrap();
        let key = CacheKey(0xc0c0);
        let entry = entry_for(key);
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        tier.store(key, &entry).expect("every store publishes");
                    }
                });
            }
        });
        assert_eq!(tier.load(key).unwrap(), entry);
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names,
            [format!("{}.json", key.hex())],
            "only the entry is left"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn seeded_crash_injection_never_loses_published_entries() {
        // Reuse the fault layer's seeded stream to decide which writes
        // "crash" (tmp written, rename skipped). Published entries must
        // survive a reopen; crashed ones are swept, reported as misses,
        // and never served half-written.
        use powerlens_faults::stream_seed;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let dir = temp_dir("crashes");
        let tier = DiskTier::new(&dir).unwrap();
        let mut rng = StdRng::seed_from_u64(stream_seed(2024, "store-crash"));
        let mut published = Vec::new();
        let mut crashed = Vec::new();
        for i in 0..32u64 {
            let key = CacheKey(0x9000 + i);
            let entry = entry_for(key);
            if rng.gen_bool(0.3) {
                // Crash mid-write: the tmp file exists, the rename never ran.
                let json = serde_json::to_string_pretty(&entry).unwrap();
                fs::write(dir.join(format!("{}.json.tmp", key.hex())), json).unwrap();
                crashed.push(key);
            } else {
                tier.store(key, &entry).unwrap();
                published.push(key);
            }
        }
        assert!(!published.is_empty() && !crashed.is_empty());

        let reopened = DiskTier::new(&dir).unwrap();
        for key in &published {
            assert!(reopened.load(*key).is_some(), "published entry lost");
        }
        for key in &crashed {
            assert!(reopened.load(*key).is_none(), "crashed write must miss");
            assert!(
                !dir.join(format!("{}.json.tmp", key.hex())).exists(),
                "crashed tmp must be swept on reopen"
            );
        }
        fs::remove_dir_all(&dir).ok();
    }
}
