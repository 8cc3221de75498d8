//! One fold per view: the observed entry points build the lifecycle
//! summary and the metrics registry online, once per emitted event, and
//! must agree exactly with the offline folds (`summarize`,
//! `MetricsRegistry::from_events`) over the stream they return.

use ascoma::machine::simulate_measured_streamed;
use ascoma::{Arch, SimConfig};
use ascoma_obs::{
    summarize, summarize_lossy, Event, EventLog, EvictCause, MapMode, MetricsRegistry, Sink,
    StreamSink, SummaryFold,
};
use ascoma_sim::addr::VPage;
use ascoma_sim::NodeId;
use ascoma_workloads::{App, SizeClass};

const WINDOW: u64 = 100_000;
const CADENCE: u64 = 200_000;

fn sampled_cfg() -> SimConfig {
    let mut cfg = SimConfig::at_pressure(0.7);
    cfg.obs_sample_period = 50_000;
    cfg
}

#[test]
fn online_folds_equal_offline_folds_for_every_arch() {
    let cfg = sampled_cfg();
    let trace = App::Em3d.build(SizeClass::Tiny, cfg.geometry.page_bytes());
    for arch in Arch::ALL {
        let name = arch.name();
        let (r, events, online) =
            simulate_measured_streamed(&trace, arch, &cfg, WINDOW, CADENCE, |_| {});
        assert!(!events.is_empty(), "{name}: run must emit events");
        let offline = MetricsRegistry::from_events(&events, trace.nodes, WINDOW);
        assert_eq!(online, offline, "{name}: registry");
        assert_eq!(r.metrics, Some(offline.digest()), "{name}: digest");
        let summary = summarize(&events, trace.nodes);
        assert_eq!(r.obs.as_ref(), Some(&summary), "{name}: measured summary");
        let (lossy, violations) = summarize_lossy(&events, trace.nodes);
        assert!(violations.is_empty(), "{name}: {violations:?}");
        assert_eq!(lossy, summary);

        // The recording-only call `inspect trace` makes.
        let (rt, traced, _) = simulate_measured_streamed(&trace, arch, &cfg, 0, 0, |_| {});
        assert_eq!(traced, events, "{name}: same stream either way");
        assert_eq!(rt.obs, Some(summary), "{name}: traced summary");
    }
}

#[test]
#[should_panic(
    expected = "illegal page lifecycle in event stream: cycle 3: node 0 page 1: evicted before any map"
)]
fn online_summary_panics_on_an_illegal_lifecycle() {
    // The composition the observed entry points run: recording plus the
    // summary fold, inside the snapshot-streaming registry sink.
    let mut sink = StreamSink::new((EventLog::new(), SummaryFold::new(1)), 1, WINDOW, 0, |_| {});
    sink.emit(
        1,
        Event::PageMapped {
            node: NodeId(0),
            page: VPage(2),
            mode: MapMode::Numa,
        },
    );
    sink.emit(
        3,
        Event::PageEvicted {
            node: NodeId(0),
            page: VPage(1),
            cause: EvictCause::Daemon,
        },
    );
    let ((_rec, summary), _registry) = sink.into_parts();
    let _ = summary.finish();
}
