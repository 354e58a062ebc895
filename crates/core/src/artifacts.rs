//! Cross-campaign artifact retention — the build cache promoted to a
//! shareable, bounded, process-lifetime store.
//!
//! A [`Campaign`](crate::campaign::Campaign) already deduplicates
//! builds *within* one run: jobs with equal content keys share one
//! assembled image and one predecoded program. Everything still dies
//! with the campaign, though — the next run of the identical suite
//! re-assembles, re-links, re-decodes and re-executes every prefix from
//! scratch. An [`ArtifactStore`] hoists all three artifact kinds out of
//! the run into a handle that can outlive it:
//!
//! * **image slots** — the `Prebuilt { image, DecodedProgram }` pairs,
//!   keyed by the campaign's content fingerprints (equal keys imply
//!   equal images, so reuse is sound across jobs and submitters);
//! * **ES ROM slots** — the shared embedded-software ROM assembly,
//!   keyed by its source hash;
//! * **prefix snapshots** — fault-free prefix machine states that
//!   campaigns fork their runs from (see [`crate::prefix`]), evicted
//!   alongside their image. A campaign forks only from its store's
//!   snapshots; [`ArtifactStore::with_prefix_budget`] sets how far each
//!   prefix runs, and a budget of 0 switches forking off.
//!
//! The store is a bounded LRU: `advm-serve` keeps one for its whole
//! lifetime, so an unbounded map would grow with every distinct
//! scenario any client ever submitted. A
//! [`FaultAudit`](crate::audit::FaultAudit) without one makes a fresh
//! default store per run, so its matrix shares builds and prefixes
//! exactly as a served audit does. Hit/miss/eviction counters are
//! surfaced through [`ArtifactStore::stats`] (the daemon's `status`
//! response) and per-campaign through the
//! [`artifact_hits`](crate::campaign::CampaignPerf::artifact_hits) perf
//! counter.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use advm_soc::PlatformId;
use parking_lot::Mutex;

use crate::campaign::{EsSlot, ImageSlot};
use crate::prefix::{PrefixSlot, DEFAULT_PREFIX_BUDGET};

/// Default image-slot capacity: comfortably holds the standard system
/// suite across all platforms plus generated-scenario churn, while
/// bounding a long-lived daemon's footprint.
pub const DEFAULT_ARTIFACT_CAPACITY: usize = 256;

/// A point-in-time snapshot of one store's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArtifactStoreStats {
    /// Configured image-slot capacity.
    pub capacity: usize,
    /// Image slots currently resident.
    pub entries: usize,
    /// Lookups served by an already-resident content key.
    pub hits: u64,
    /// Lookups that created a fresh slot.
    pub misses: u64,
    /// Image slots evicted to stay within capacity (their prefix
    /// snapshots go with them).
    pub evictions: u64,
    /// `(content key, platform)` prefix snapshots currently resident.
    pub prefix_entries: usize,
}

impl ArtifactStoreStats {
    /// Renders the stats as one JSON object (embedded in the daemon's
    /// `status` response).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"capacity\":{},\"entries\":{},\"hits\":{},\"misses\":{},\
             \"evictions\":{},\"prefix_entries\":{}}}",
            self.capacity,
            self.entries,
            self.hits,
            self.misses,
            self.evictions,
            self.prefix_entries
        )
    }
}

/// One LRU side of the store: slots stamped with a logical clock, the
/// oldest stamp evicted first.
struct Lru<T> {
    map: HashMap<u64, (T, u64)>,
    clock: u64,
}

impl<T: Clone + Default> Lru<T> {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
            clock: 0,
        }
    }

    /// Returns the slot for `key` (creating a default one when absent,
    /// true in the second position iff it already existed) and
    /// refreshes its recency.
    fn get_or_insert(&mut self, key: u64) -> (T, bool) {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(&key) {
            Some((slot, stamp)) => {
                *stamp = clock;
                (slot.clone(), true)
            }
            None => {
                let slot = T::default();
                self.map.insert(key, (slot.clone(), clock));
                (slot, false)
            }
        }
    }

    /// Evicts the least-recently-used key past `capacity`, returning it.
    fn evict_past(&mut self, capacity: usize) -> Option<u64> {
        if self.map.len() <= capacity {
            return None;
        }
        let key = self
            .map
            .iter()
            .min_by_key(|(_, (_, stamp))| *stamp)
            .map(|(&key, _)| key)?;
        self.map.remove(&key);
        Some(key)
    }
}

/// A bounded, thread-safe, campaign-spanning artifact cache. See the
/// [module docs](self).
///
/// Attach one to a campaign with
/// [`Campaign::artifact_store`](crate::campaign::Campaign::artifact_store)
/// (or to a [`FaultAudit`](crate::audit::FaultAudit) /
/// [`Exploration`](crate::stimulus::Exploration), which thread it into
/// every campaign they run); share the `Arc` across submissions to
/// share the artifacts.
pub struct ArtifactStore {
    capacity: usize,
    images: Mutex<Lru<ImageSlot>>,
    es: Mutex<Lru<EsSlot>>,
    /// Instructions each shared prefix runs before its snapshot.
    prefix_budget: u64,
    /// Fault-free prefix snapshots by `(image content key, platform)`,
    /// evicted with their image.
    prefixes: Mutex<HashMap<(u64, PlatformId), PrefixSlot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ArtifactStore")
            .field("capacity", &stats.capacity)
            .field("entries", &stats.entries)
            .field("hits", &stats.hits)
            .field("misses", &stats.misses)
            .field("evictions", &stats.evictions)
            .finish()
    }
}

impl Default for ArtifactStore {
    fn default() -> Self {
        Self::new(DEFAULT_ARTIFACT_CAPACITY)
    }
}

impl ArtifactStore {
    /// A store holding at most `capacity` image slots (minimum 1), whose
    /// prefixes run [`DEFAULT_PREFIX_BUDGET`] instructions.
    pub fn new(capacity: usize) -> Self {
        Self::with_prefix_budget(capacity, DEFAULT_PREFIX_BUDGET)
    }

    /// A store whose shared prefix snapshots are taken after
    /// `prefix_budget` instructions; 0 switches prefix forking off for
    /// every campaign on the store, which then runs from reset.
    pub fn with_prefix_budget(capacity: usize, prefix_budget: u64) -> Self {
        Self {
            capacity: capacity.max(1),
            images: Mutex::new(Lru::new()),
            es: Mutex::new(Lru::new()),
            prefix_budget,
            prefixes: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Instructions each shared prefix runs before its snapshot point
    /// (clamped to each campaign's fuel at use).
    pub(crate) fn prefix_budget(&self) -> u64 {
        self.prefix_budget
    }

    /// The shared once-slot for one `(content key, platform)` prefix.
    /// The first worker to arrive runs the prefix; everyone else reuses
    /// the captured entry (or the `None` marker for unforkable images).
    pub(crate) fn prefix_slot(&self, content_key: u64, platform: PlatformId) -> PrefixSlot {
        Arc::clone(
            self.prefixes
                .lock()
                .entry((content_key, platform))
                .or_default(),
        )
    }

    /// The image slot for one content key: present slots are returned
    /// with `true` (a cross-campaign hit — the artifact, or at least
    /// its in-flight build, is reused), fresh ones with `false`.
    /// Campaigns call this once per distinct content key per run.
    pub(crate) fn image_slot(&self, key: u64) -> (ImageSlot, bool) {
        let mut images = self.images.lock();
        let (slot, existed) = images.get_or_insert(key);
        if existed {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            while let Some(evicted) = images.evict_past(self.capacity) {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                // The snapshots forked off an image die with it.
                self.prefixes.lock().retain(|&(key, _), _| key != evicted);
            }
        }
        (slot, existed)
    }

    /// The ES ROM slot for one source hash. Bounded by the same
    /// capacity; distinct ES sources are rare (one per release), so
    /// eviction here is a formality.
    pub(crate) fn es_slot(&self, key: u64) -> EsSlot {
        let mut es = self.es.lock();
        let (slot, _) = es.get_or_insert(key);
        while es.evict_past(self.capacity).is_some() {}
        slot
    }

    /// A point-in-time snapshot of the counters.
    pub fn stats(&self) -> ArtifactStoreStats {
        ArtifactStoreStats {
            capacity: self.capacity,
            entries: self.images.lock().map.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            prefix_entries: self.prefixes.lock().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_oldest_key_and_its_prefixes() {
        let store = ArtifactStore::new(2);
        let (_, hit) = store.image_slot(1);
        assert!(!hit);
        store.prefix_slot(1, PlatformId::GoldenModel);
        assert_eq!(store.stats().prefix_entries, 1);
        store.image_slot(2);
        // Touch key 1 so key 2 is the LRU victim.
        let (_, hit) = store.image_slot(1);
        assert!(hit);
        store.image_slot(3);
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        // Key 2 was evicted; key 1 (and its prefix snapshot) survives.
        assert_eq!(store.stats().prefix_entries, 1);
        let (_, hit) = store.image_slot(2);
        assert!(!hit, "evicted key re-enters as a miss");
        // Re-admitting key 2 evicted key 1, dropping its snapshot too.
        assert_eq!(store.stats().prefix_entries, 0);
    }

    #[test]
    fn counters_and_json_track_lookups() {
        let store = ArtifactStore::new(8);
        store.image_slot(10);
        store.image_slot(10);
        store.image_slot(11);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (1, 2, 0));
        assert_eq!(stats.entries, 2);
        let json = stats.to_json();
        let value = crate::wire::JsonValue::parse(&json).unwrap();
        assert_eq!(value.u64_field("hits").unwrap(), 1);
        assert_eq!(value.u64_field("misses").unwrap(), 2);
        assert_eq!(value.u64_field("capacity").unwrap(), 8);
    }

    #[test]
    fn shared_slots_are_the_same_allocation() {
        let store = ArtifactStore::new(8);
        let (a, _) = store.image_slot(42);
        let (b, _) = store.image_slot(42);
        assert!(Arc::ptr_eq(&a, &b));
        let ea = store.es_slot(7);
        let eb = store.es_slot(7);
        assert!(Arc::ptr_eq(&ea, &eb));
    }
}
