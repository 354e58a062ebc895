//! Cross-crate property tests: invariants that hold over randomised
//! inputs spanning assembler, SoC model, simulator and methodology.

mod common;
use common::strip_perf;

use std::sync::Arc;

use advm::artifacts::{ArtifactStore, DEFAULT_ARTIFACT_CAPACITY};
use advm::audit::{CellOutcome, FaultAudit};
use advm::build::build_cell;
use advm::campaign::{Campaign, CampaignEvent, CampaignObserver, EventLog};
use advm::env::{EnvConfig, ModuleTestEnv, TestCell};
use advm::porting::{port_env, test_files_touched};
use advm::presets::{default_config, page_env, uart_env};
use advm::testplan::Testplan;
use advm_gen::{
    ConstrainedRandom, CoverageDirected, CoverageFeedback, GlobalsConstraints, ScenarioEngine,
    ScenarioSource, StimulusPlan,
};
use advm_sim::{DecodedProgram, Platform, PlatformFault, RunResult};
use advm_soc::{DerivativeId, GlobalsSpec, PlatformId};
use proptest::prelude::*;

fn arb_derivative() -> impl Strategy<Value = DerivativeId> {
    prop_oneof![
        Just(DerivativeId::Sc88A),
        Just(DerivativeId::Sc88B),
        Just(DerivativeId::Sc88C),
        Just(DerivativeId::Sc88D),
    ]
}

fn arb_platform() -> impl Strategy<Value = PlatformId> {
    prop_oneof![
        Just(PlatformId::GoldenModel),
        Just(PlatformId::RtlSim),
        Just(PlatformId::GateSim),
        Just(PlatformId::Accelerator),
        Just(PlatformId::Bondout),
        Just(PlatformId::ProductSilicon),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every (derivative, platform) globals file assembles standalone.
    #[test]
    fn any_globals_file_assembles(d in arb_derivative(), p in arb_platform()) {
        let globals = GlobalsSpec::new(advm_soc::Derivative::from_id(d), p).render();
        let program = advm_asm::assemble_str(&globals.text());
        prop_assert!(program.is_ok(), "{d:?}/{p:?}: {:?}", program.err());
    }

    /// Porting never touches test files, whatever the source and target.
    #[test]
    fn porting_never_touches_tests(
        from_d in arb_derivative(), from_p in arb_platform(),
        to_d in arb_derivative(), to_p in arb_platform(),
    ) {
        let env = page_env(EnvConfig::new(from_d, from_p), 2);
        let outcome = port_env(&env, EnvConfig::new(to_d, to_p));
        prop_assert_eq!(test_files_touched(&outcome.changes), 0);
    }

    /// A ported environment always builds and its first test passes.
    #[test]
    fn ported_env_always_green(d in arb_derivative(), p in arb_platform()) {
        let env = page_env(EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel), 1);
        let ported = port_env(&env, EnvConfig::new(d, p)).env;
        let result = advm::build::run_cell(&ported, "TEST_PAGE_SELECT_01");
        prop_assert!(result.as_ref().map(|r| r.passed()).unwrap_or(false),
            "{d:?}/{p:?}: {result:?}");
    }

    /// Tree rendering and reconstruction are inverse operations for any
    /// configuration.
    #[test]
    fn env_tree_roundtrip(d in arb_derivative(), p in arb_platform()) {
        let env = page_env(EnvConfig::new(d, p), 2);
        let rebuilt = advm::ModuleTestEnv::from_tree("PAGE", &env.tree());
        prop_assert_eq!(rebuilt.expect("tree is complete"), env);
    }

    /// Random seeded globals instances always assemble (gen crate x asm
    /// crate) — whichever scenario source drew them.
    #[test]
    fn random_globals_assemble(d in arb_derivative(), p in arb_platform(), seed in 0u64..1000) {
        let constraints = GlobalsConstraints::new(d, p).with_test_page_count(4);
        let file = constraints.instantiate(seed).expect("space non-empty");
        prop_assert!(advm_asm::assemble_str(&file.text()).is_ok());
        let directed = advm::stimulus::directed_source(
            &Testplan::new("PAGE").with_entry("TEST_PAGE_SELECT_01", "plan entry"),
            EnvConfig::new(d, p),
        ).draw(0, seed).expect("space non-empty");
        prop_assert!(advm_asm::assemble_str(&directed.globals().text()).is_ok());
        let chased = CoverageDirected::new(
            constraints,
            CoverageFeedback::new().with_pages_seen(0..8u32),
        ).draw(0, seed).expect("space non-empty");
        prop_assert!(advm_asm::assemble_str(&chased.globals().text()).is_ok());
    }

    /// `StimulusPlan` batching is deterministic: the same (sources,
    /// master seed) pair yields byte-identical scenario batches across
    /// repeated plans, before and after campaigns, and regardless of the
    /// campaign's worker count.
    #[test]
    fn stimulus_plan_is_deterministic(
        seed in 0u64..1_000_000, batch in 1usize..4, d in arb_derivative(),
    ) {
        let make_plan = || -> StimulusPlan {
            let constraints = GlobalsConstraints::new(d, PlatformId::GoldenModel)
                .with_test_page_count(2)
                .with_knob("RANDOM_BAUD_DIV", 1..=255);
            ScenarioEngine::new(seed)
                .source(advm::stimulus::directed_source(
                    &Testplan::new("PAGE").with_entry("TEST_PAGE_SELECT_01", "directed entry"),
                    EnvConfig::new(d, PlatformId::GoldenModel),
                ))
                .source(ConstrainedRandom::new(constraints.clone()))
                .source(CoverageDirected::new(
                    constraints,
                    CoverageFeedback::new().with_pages_seen(0..16u32),
                ))
                .batch(batch)
                .plan()
                .expect("satisfiable constraints")
        };
        let fingerprint = |plan: &StimulusPlan| -> Vec<(String, u64, String)> {
            plan.scenarios()
                .iter()
                .map(|s| (s.name().to_owned(), s.seed(), s.globals().text()))
                .collect()
        };
        let reference = make_plan();
        prop_assert_eq!(reference.len(), 1 + 2 * batch);
        prop_assert_eq!(fingerprint(&make_plan()), fingerprint(&reference));

        // Campaign execution must neither perturb planning nor depend on
        // worker count for its verdicts.
        let run = |workers: usize| {
            Campaign::new()
                .scenarios(reference.scenarios().iter().cloned())
                .platform(PlatformId::GoldenModel)
                .workers(workers)
                .run()
                .expect("scenario suite builds")
        };
        let serial = run(1);
        let parallel = run(8);
        prop_assert_eq!(serial.total(), parallel.total());
        prop_assert_eq!(serial.passed(), parallel.passed());
        prop_assert_eq!(serial.scenarios().len(), parallel.scenarios().len());
        prop_assert_eq!(fingerprint(&make_plan()), fingerprint(&reference));
    }

    /// A campaign over a randomly generated multi-env suite is
    /// scheduling-independent: serial (workers=1) and parallel
    /// (workers=8) runs produce identical verdicts, cache-hit counts
    /// and divergence sets.
    #[test]
    fn campaign_verdicts_independent_of_worker_count(
        cells_a in 1u32..16, cells_b in 1u32..16, d in arb_derivative(),
    ) {
        // Each env's cell list is decoded from a bitmask: bit i set
        // means TEST_i fails, clear means it passes.
        let suite: Vec<ModuleTestEnv> = [("ALPHA", cells_a), ("BETA", cells_b)]
            .into_iter()
            .map(|(name, mask)| {
                let cells: Vec<TestCell> = (0..4)
                    .map(|i| {
                        let source = if mask & (1 << i) != 0 {
                            ".INCLUDE Globals.inc\n_main:\n    LOAD ArgA, #9\n    \
                             CALL Base_Report_Fail\n    RETURN\n"
                        } else {
                            ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n"
                        };
                        TestCell::new(format!("TEST_{i}"), "generated", source)
                    })
                    .collect();
                ModuleTestEnv::new(name, EnvConfig::new(d, PlatformId::GoldenModel), cells)
            })
            .collect();

        let run = |workers: usize| {
            Campaign::new()
                .envs(suite.iter().cloned())
                .platforms([PlatformId::GoldenModel, PlatformId::RtlSim, PlatformId::GateSim])
                .workers(workers)
                .run()
                .expect("generated suite builds")
        };
        let serial = run(1);
        let parallel = run(8);

        prop_assert_eq!(serial.total(), parallel.total());
        prop_assert_eq!(serial.passed(), parallel.passed());
        prop_assert_eq!(serial.cache_hits(), parallel.cache_hits());
        prop_assert_eq!(serial.unique_builds(), parallel.unique_builds());
        // Platform-independent cells dedupe at least across golden/RTL,
        // whose abstraction-layer knobs agree.
        prop_assert!(serial.cache_hits() > 0);
        for run in serial.runs() {
            let twin = parallel
                .run_of(&run.env, &run.test_id, run.platform)
                .expect("same job set");
            prop_assert_eq!(run.result.passed(), twin.result.passed());
        }
        let serial_div: Vec<&str> = serial.divergences().iter().map(|(t, _)| t.as_str()).collect();
        let parallel_div: Vec<&str> =
            parallel.divergences().iter().map(|(t, _)| t.as_str()).collect();
        prop_assert_eq!(serial_div, parallel_div);
    }
}

/// The suite, faults, audited platforms and fuel of
/// `fault_audit_matrix_independent_of_worker_count`.
fn audit_suite() -> [ModuleTestEnv; 2] {
    [page_env(default_config(), 1), uart_env(default_config())]
}
const AUDIT_FAULTS: [PlatformFault; 3] = [
    PlatformFault::PageActiveOffByOne,
    PlatformFault::PageMapWriteIgnored,
    PlatformFault::UartDropsBytes,
];
const AUDIT_PLATFORMS: [PlatformId; 2] = [PlatformId::RtlSim, PlatformId::GateSim];
const AUDIT_FUEL: u64 = 200_000;

proptest! {
    // Each case sweeps several fault campaigns; a handful of cases keeps
    // the property meaningful without dominating the suite's runtime.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A fault audit is scheduling-independent: serial (workers=1) and
    /// parallel (workers=8) sweeps of the same (fault × platform) matrix
    /// produce identical classifications, kill counts and
    /// (perf-stripped) JSON — the determinism the suite-strength numbers
    /// rely on — with and without an attached store.
    /// [`decode_cache_off_matches_prebuilt_runs`] checks the same
    /// suite's images with the decode cache off.
    #[test]
    fn fault_audit_matrix_independent_of_worker_count(seed in 0u64..1_000) {
        for shared in [false, true] {
            let audit = |workers: usize| {
                let audit = FaultAudit::new()
                    .suite(audit_suite())
                    .faults(AUDIT_FAULTS)
                    .platforms(AUDIT_PLATFORMS)
                    .scenarios(2)
                    .seed(seed)
                    .fuel(AUDIT_FUEL)
                    .workers(workers);
                let audit = if shared {
                    audit.artifact_store(Arc::new(ArtifactStore::default()))
                } else {
                    audit
                };
                audit.run().expect("audit runs")
            };
            let serial = audit(1);
            let parallel = audit(8);
            prop_assert_eq!(serial.cells().len(), parallel.cells().len());
            for (a, b) in serial.cells().iter().zip(parallel.cells()) {
                prop_assert_eq!(a.fault, b.fault);
                prop_assert_eq!(a.platform, b.platform);
                prop_assert_eq!(&a.outcome, &b.outcome);
            }
            prop_assert_eq!(serial.kill_counts(), parallel.kill_counts());
            prop_assert_eq!(strip_perf(&serial.to_json()), strip_perf(&parallel.to_json()));
            // The simulated-instruction total is deterministic even though
            // wall time is not.
            prop_assert_eq!(serial.perf().instructions, parallel.perf().instructions);
            // The sweep shares predecoded artifacts.
            prop_assert!(serial.perf().decode_hits > 0);
            // The audited suite is strong enough to kill the read-path fault
            // everywhere, and PAGE_MAP's dead write-enable dies only to the
            // escape-driven round.
            prop_assert!(serial.killed(PlatformFault::PageActiveOffByOne));
            prop_assert!(serial.killed(PlatformFault::PageMapWriteIgnored));
        }
    }

    /// Snapshot-based prefix forking is perf-only: a fault audit whose
    /// campaigns fork every safe run from the shared fault-free prefix
    /// produces byte-identical (perf-stripped) JSON — classifications,
    /// kill counts, escapes — to a from-reset sweep on a store with
    /// prefix budget 0, at any worker count, while actually skipping
    /// shared-prefix re-execution.
    #[test]
    fn forked_fault_audit_is_byte_identical_to_from_reset(seed in 0u64..1_000) {
        let audit = |workers: usize, budget: u64| {
            FaultAudit::new()
                .suite([page_env(default_config(), 1), uart_env(default_config())])
                .faults([
                    PlatformFault::PageActiveOffByOne,
                    PlatformFault::UartDropsBytes,
                    PlatformFault::TimerNeverExpires,
                ])
                .platforms([advm_soc::PlatformId::RtlSim, advm_soc::PlatformId::GateSim])
                .scenarios(2)
                .seed(seed)
                .fuel(200_000)
                .workers(workers)
                .artifact_store(Arc::new(ArtifactStore::with_prefix_budget(
                    DEFAULT_ARTIFACT_CAPACITY,
                    budget,
                )))
                .run()
                .expect("audit runs")
        };
        let reference = audit(1, 0);
        prop_assert_eq!(reference.perf().forked_runs, 0);
        prop_assert_eq!(reference.perf().prefix_saved, 0);
        for workers in [1usize, 8] {
            let forked = audit(workers, advm::DEFAULT_PREFIX_BUDGET);
            prop_assert!(
                forked.perf().forked_runs > 0,
                "workers={}: {:?}", workers, forked.perf()
            );
            prop_assert!(forked.perf().prefix_saved > 0);
            prop_assert_eq!(
                strip_perf(&reference.to_json()),
                strip_perf(&forked.to_json()),
                "workers={}", workers
            );
            prop_assert_eq!(reference.perf().instructions, forked.perf().instructions);
        }
    }
}

/// The decode cache is perf-only, checked on the platform, where its
/// reference path lives. Every image of the audit suite, built with the
/// public `advm::build` helpers and run on each audited platform both
/// fault-free and under each audited fault, gives the same `RunResult`
/// with the decode cache off as loaded with its shared predecode
/// artifact: every field but the `decode` counters.
#[test]
fn decode_cache_off_matches_prebuilt_runs() {
    for env in audit_suite() {
        let derivative = advm_soc::Derivative::from_id(env.config().derivative);
        for platform in AUDIT_PLATFORMS {
            let mut ported = env.clone();
            ported.reconfigure(EnvConfig {
                platform,
                ..env.config()
            });
            for cell in ported.cells() {
                let image = build_cell(&ported, cell.id()).expect("suite builds");
                let decoded = DecodedProgram::from_image(&image);
                for fault in std::iter::once(PlatformFault::None).chain(AUDIT_FAULTS) {
                    let run = |prebuilt: bool| {
                        let mut machine = Platform::with_fault(platform, &derivative, fault);
                        machine.set_fuel(AUDIT_FUEL);
                        if prebuilt {
                            machine.load_prebuilt(&image, &decoded);
                        } else {
                            machine.set_decode_cache(false);
                            machine.load_image(&image);
                        }
                        machine.run()
                    };
                    let (off, on) = (run(false), run(true));
                    let label =
                        format!("{}/{} on {platform} under {fault:?}", env.name(), cell.id());
                    assert_eq!(off.decode.hits, 0, "{label}");
                    assert!(on.decode.hits > 0, "{label}");
                    assert_eq!(
                        RunResult {
                            decode: on.decode,
                            ..off
                        },
                        on,
                        "{label}"
                    );
                }
            }
        }
    }
}

/// A fault audit's event stream does not depend on its thread count.
/// Every internal campaign feeds one shared log. At workers 1 and 4,
/// with and without a shared artifact store:
/// - the two streams are equal apart from `started.workers`;
/// - each campaign's events form one unbroken run from `started` to
///   `finished`, in sweep order: the suite baseline, the cells
///   fault-major, the scenario baseline, then the escaped cells;
/// - store hits and misses, forked runs and saved prefix instructions
///   are equal.
#[test]
fn fault_audit_event_stream_is_independent_of_worker_count() {
    let faults = [
        PlatformFault::PageActiveOffByOne,
        PlatformFault::PageMapWriteIgnored,
        PlatformFault::UartDropsBytes,
    ];
    let platforms = [PlatformId::RtlSim, PlatformId::GateSim];
    let audit = |workers: usize, store: Option<Arc<ArtifactStore>>| {
        let log = EventLog::new();
        let sink = log.clone();
        let mut audit = FaultAudit::new()
            .suite([page_env(default_config(), 1), uart_env(default_config())])
            .faults(faults)
            .platforms(platforms)
            .scenarios(2)
            .fuel(200_000)
            .workers(workers)
            .observe_with(Arc::new(move || {
                Box::new(sink.clone()) as Box<dyn CampaignObserver>
            }));
        if let Some(store) = &store {
            audit = audit.artifact_store(Arc::clone(store));
        }
        let report = audit.run().expect("audit runs");
        let stats = store.map(|store| {
            let stats = store.stats();
            (stats.hits, stats.misses)
        });
        (report, log.events(), stats)
    };
    let without_workers = |events: &[CampaignEvent]| -> Vec<CampaignEvent> {
        events
            .iter()
            .map(|event| match event {
                CampaignEvent::Started {
                    jobs,
                    unique_builds,
                    ..
                } => CampaignEvent::Started {
                    jobs: *jobs,
                    unique_builds: *unique_builds,
                    workers: 0,
                },
                other => other.clone(),
            })
            .collect()
    };
    for shared in [false, true] {
        let run = |workers| audit(workers, shared.then(|| Arc::new(ArtifactStore::default())));
        let (serial, serial_events, serial_stats) = run(1);
        let (report, events, stats) = run(4);
        assert_eq!(
            without_workers(&serial_events),
            without_workers(&events),
            "shared store: {shared}"
        );
        assert_eq!(serial_stats, stats, "shared store: {shared}");
        assert_eq!(serial.perf().forked_runs, report.perf().forked_runs);
        assert_eq!(serial.perf().prefix_saved, report.perf().prefix_saved);

        // The campaigns the sweep runs, in order, by the one platform
        // each simulates and its worker count: the reference baselines
        // run on the golden model at the sweep's four workers, each cell
        // on its faulted platform at its share of them. That is one
        // each among the first round's six cells, and an even split
        // when fewer cells escape.
        let escaped: Vec<PlatformId> = report
            .cells()
            .iter()
            .filter(|cell| match &cell.outcome {
                CellOutcome::Detected { round, .. } => *round > 1,
                CellOutcome::Masked => true,
                CellOutcome::Broken { .. } => false,
            })
            .map(|cell| cell.platform)
            .collect();
        assert!(!escaped.is_empty(), "the escape round must run");
        let share =
            |index: usize, cells: usize| (4 / cells + usize::from(index < 4 % cells)).max(1);
        let grid: Vec<PlatformId> = faults.iter().flat_map(|_| platforms).collect();
        let mut expected = vec![(PlatformId::GoldenModel, 4)];
        expected.extend(
            grid.iter()
                .enumerate()
                .map(|(i, &p)| (p, share(i, grid.len()))),
        );
        expected.push((PlatformId::GoldenModel, 4));
        expected.extend(
            escaped
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, share(i, escaped.len()))),
        );

        // Split the stream into runs, each from `started` to `finished`
        // with neither in between.
        let mut order: Vec<(PlatformId, usize)> = Vec::new();
        let mut rest = &events[..];
        while let Some(first) = rest.first() {
            let CampaignEvent::Started { jobs, workers, .. } = first else {
                panic!("a campaign's events must open with `started`: {first:?}");
            };
            let end = rest
                .iter()
                .position(|event| matches!(event, CampaignEvent::Finished { .. }))
                .expect("every campaign finishes");
            let run = &rest[..=end];
            assert!(
                !run[1..]
                    .iter()
                    .any(|event| matches!(event, CampaignEvent::Started { .. })),
                "campaign interrupted by another's `started`"
            );
            let platforms: Vec<PlatformId> = run
                .iter()
                .filter_map(|event| match event {
                    CampaignEvent::JobFinished { platform, .. } => Some(*platform),
                    _ => None,
                })
                .collect();
            assert_eq!(platforms.len(), *jobs, "every planned job finishes");
            assert!(platforms.windows(2).all(|pair| pair[0] == pair[1]));
            // So no campaign's worker count is capped by its jobs.
            assert!(*jobs >= 4, "{jobs} jobs");
            order.push((platforms[0], *workers));
            rest = &rest[end + 1..];
        }
        assert_eq!(order, expected, "shared store: {shared}");
    }
}

/// The same guarantee one layer down: a campaign on a store that forks
/// reports byte-identical (perf-stripped) JSON to a from-reset one on a
/// store with prefix budget 0 — verdicts, matrix, divergences — serial
/// or parallel, with the store's snapshots shared across both worker
/// counts.
#[test]
fn forked_campaign_json_is_byte_identical_to_from_reset() {
    let envs = [page_env(default_config(), 2), uart_env(default_config())];
    let run = |workers: usize, store: &Arc<ArtifactStore>| {
        Campaign::new()
            .envs(envs.iter().cloned())
            .fault(PlatformId::RtlSim, PlatformFault::PageActiveOffByOne)
            .workers(workers)
            .artifact_store(Arc::clone(store))
            .run()
            .expect("suite builds")
    };
    let store = |budget: u64| {
        Arc::new(ArtifactStore::with_prefix_budget(
            DEFAULT_ARTIFACT_CAPACITY,
            budget,
        ))
    };
    let reference = run(1, &store(0));
    assert_eq!(reference.perf().forked_runs, 0);
    let shared = store(16);
    for workers in [1usize, 8] {
        let forked = run(workers, &shared);
        assert!(
            forked.perf().forked_runs > 0,
            "workers={workers}: {:?}",
            forked.perf()
        );
        assert_eq!(
            strip_perf(&reference.to_json()),
            strip_perf(&forked.to_json()),
            "workers={workers}"
        );
    }
    assert!(
        shared.stats().prefix_entries > 0,
        "prefixes captured once, reused across runs"
    );
}

/// The build stage is schedule-independent. For a well-formed suite the
/// perf-stripped report JSON — which pins every image-dependent
/// observable: verdicts, instruction and cycle counts, console and UART
/// bytes — is byte-identical at 1, 2 and 8 workers, so the built images
/// are too. For a malformed source the campaign fails with the
/// identical `CampaignError`, attributed to the first failing job in
/// plan order, never to whichever worker happened to parse first.
#[test]
fn build_stage_is_worker_count_independent() {
    let good = [page_env(default_config(), 2), uart_env(default_config())];
    let run = |workers: usize| {
        Campaign::new()
            .envs(good.iter().cloned())
            .platforms([
                PlatformId::GoldenModel,
                PlatformId::RtlSim,
                PlatformId::GateSim,
            ])
            .workers(workers)
            .run()
            .expect("suite builds")
    };
    let reference = strip_perf(&run(1).to_json());
    for workers in [2usize, 8] {
        assert_eq!(
            reference,
            strip_perf(&run(workers).to_json()),
            "workers={workers}"
        );
    }

    // Two malformed cells in different envs: if attribution followed
    // build completion order, racing workers could report either one.
    let broken: Vec<ModuleTestEnv> = [("ALPHA", 1usize), ("BETA", 3)]
        .into_iter()
        .map(|(name, bad)| {
            let cells: Vec<TestCell> = (0..4)
                .map(|i| {
                    let source = if i == bad {
                        ".INCLUDE Globals.inc\n_main:\n    NOT_AN_OPCODE ArgA, #1\n    RETURN\n"
                    } else {
                        ".INCLUDE Globals.inc\n_main:\n    CALL Base_Report_Pass\n    RETURN\n"
                    };
                    TestCell::new(format!("TEST_{i}"), "generated", source)
                })
                .collect();
            ModuleTestEnv::new(
                name,
                EnvConfig::new(DerivativeId::Sc88A, PlatformId::GoldenModel),
                cells,
            )
        })
        .collect();
    let fail = |workers: usize| {
        let error = Campaign::new()
            .envs(broken.iter().cloned())
            .platforms([PlatformId::GoldenModel, PlatformId::RtlSim])
            .workers(workers)
            .run()
            .expect_err("malformed source must not build");
        match error {
            advm::campaign::CampaignError::Build {
                env,
                test_id,
                platform,
                source,
            } => (env, test_id, platform, source.to_string()),
            other => panic!("expected a build error, got {other}"),
        }
    };
    let reference = fail(1);
    for workers in [2usize, 8] {
        assert_eq!(reference, fail(workers), "workers={workers}");
    }
}
