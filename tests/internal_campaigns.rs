//! What the multi-campaign builders hand their internal campaigns.
//!
//! [`FaultAudit`], [`Exploration`] and [`Fuzz`] each run one or more
//! internal campaigns. Run at one worker with a store, an observer
//! factory and (where the builder takes one) a fuel budget, every
//! internal campaign must get all four: one fresh observer that sees one
//! `started`…`finished` pair, one worker, lookups on the store, and the
//! fuel budget.

use std::sync::{Arc, Mutex};

use advm::campaign::{CampaignEvent, CampaignObserver, ObserverFactory};
use advm::presets::{default_config, page_env, uart_env};
use advm::stimulus::Exploration;
use advm::{ArtifactStore, FaultAudit, Fuzz};
use advm_sim::PlatformFault;
use advm_soc::PlatformId;

/// The fuel budget the audit and the fuzz run hand their campaigns.
/// Every clean run fits in it, while the audit's hung faulted runs,
/// on the default budget, would retire more than `FUEL` per planned job.
const FUEL: u64 = 5_000;

/// Each observer the factory built, with every event it received.
type Streams = Arc<Mutex<Vec<Vec<CampaignEvent>>>>;

/// Records one observer's events into its own slot of the streams.
struct Recorder {
    streams: Streams,
    index: usize,
}

impl CampaignObserver for Recorder {
    fn on_event(&mut self, event: &CampaignEvent) {
        self.streams.lock().unwrap()[self.index].push(event.clone());
    }
}

/// A factory whose every call opens a new stream.
fn recording() -> (Streams, ObserverFactory) {
    let streams: Streams = Arc::default();
    let shared = Arc::clone(&streams);
    let factory: ObserverFactory = Arc::new(move || {
        let mut streams = shared.lock().unwrap();
        streams.push(Vec::new());
        Box::new(Recorder {
            streams: Arc::clone(&shared),
            index: streams.len() - 1,
        }) as Box<dyn CampaignObserver>
    });
    (streams, factory)
}

/// Checks the streams of one builder run and returns how many campaigns
/// it ran: one factory call each, whose observer saw exactly one
/// `started` first and one `finished` last; one worker each; one store
/// lookup per distinct build; and, given the run's `fuel`, at most that
/// many instructions per planned job.
fn campaigns(
    streams: &Streams,
    store: &ArtifactStore,
    fuel: Option<u64>,
    instructions: u64,
) -> usize {
    let streams = streams.lock().unwrap();
    let (mut jobs, mut unique_builds) = (0, 0);
    for stream in streams.iter() {
        let Some(CampaignEvent::Started {
            jobs: planned,
            unique_builds: builds,
            workers,
        }) = stream.first()
        else {
            panic!("a stream opens with `started`: {stream:?}");
        };
        assert_eq!(*workers, 1, "{stream:?}");
        assert!(
            matches!(stream.last(), Some(CampaignEvent::Finished { .. })),
            "{stream:?}"
        );
        let pairs = |started: bool| {
            stream
                .iter()
                .filter(|event| match event {
                    CampaignEvent::Started { .. } => started,
                    CampaignEvent::Finished { .. } => !started,
                    _ => false,
                })
                .count()
        };
        assert_eq!((pairs(true), pairs(false)), (1, 1), "{stream:?}");
        jobs += *planned as u64;
        unique_builds += *builds as u64;
    }
    let stats = store.stats();
    assert_eq!(stats.hits + stats.misses, unique_builds, "{stats:?}");
    if let Some(fuel) = fuel {
        assert!(
            instructions <= fuel * jobs,
            "{instructions} > {fuel} × {jobs}"
        );
    }
    streams.len()
}

#[test]
fn audit_hands_every_campaign_the_audit_knobs() {
    let store = Arc::new(ArtifactStore::default());
    let (streams, factory) = recording();
    // Round 1 detects the read-path and UART faults and masks the dead
    // write-enable on both platforms, so the escape round re-runs two
    // cells against one generated baseline.
    let report = FaultAudit::new()
        .suite([page_env(default_config(), 1), uart_env(default_config())])
        .faults([
            PlatformFault::PageActiveOffByOne,
            PlatformFault::PageMapWriteIgnored,
            PlatformFault::UartDropsBytes,
        ])
        .platforms([PlatformId::RtlSim, PlatformId::GateSim])
        .scenarios(2)
        .fuel(FUEL)
        .workers(1)
        .artifact_store(Arc::clone(&store))
        .observe_with(factory)
        .run()
        .unwrap();
    assert!(report.scenarios_generated() > 0, "the escape round ran");
    let ran = campaigns(&streams, &store, Some(FUEL), report.perf().instructions);
    assert_eq!(
        ran,
        1 + 6 + 1 + 2,
        "baseline, cells, escape baseline, escapes"
    );
}

#[test]
fn exploration_hands_every_round_the_exploration_knobs() {
    let store = Arc::new(ArtifactStore::default());
    let (streams, factory) = recording();
    let report = Exploration::new()
        .rounds(2)
        .batch(2)
        .master_seed(7)
        .workers(1)
        .artifact_store(Arc::clone(&store))
        .observe_with(factory)
        .run()
        .unwrap();
    let instructions = report
        .rounds()
        .iter()
        .map(|round| round.campaign.perf().instructions)
        .sum();
    assert_eq!(campaigns(&streams, &store, None, instructions), 2);
}

#[test]
fn fuzz_hands_its_campaign_the_fuzz_knobs() {
    let store = Arc::new(ArtifactStore::default());
    let (streams, factory) = recording();
    let report = Fuzz::new()
        .programs(4)
        .seed(11)
        .mine(true)
        .fuel(FUEL)
        .workers(1)
        .artifact_store(Arc::clone(&store))
        .observe_with(factory)
        .run()
        .unwrap();
    assert!(!report.mined().is_empty());
    let instructions = report.campaign().perf().instructions;
    assert_eq!(campaigns(&streams, &store, Some(FUEL), instructions), 1);
}
