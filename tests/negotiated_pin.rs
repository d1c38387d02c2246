//! Pins the negotiated router's end-to-end output: every row of
//! `qspr suite --router negotiated --m 4` and the QSPR run's routing
//! statistics per circuit. The negotiation loop is performance-tuned
//! under a byte-identical contract, so any drift here is a behaviour
//! change, not noise.

use qspr::{Flow, RouterKind, ToJson};
use qspr_fabric::Fabric;
use qspr_qecc::codes::benchmark_suite;

/// `(row JSON, (epochs, rip iterations, ripped routes))` per suite
/// circuit, in suite order, recorded from the full rip-up loop before
/// settled rounds were fast-forwarded.
const PINNED: &[(&str, (u64, u64, u64))] = &[
    (
        r#"{"circuit":"[[5,1,3]]","baseline_us":610,"quale_us":854,"qspr_us":628,"quale_overhead_us":244,"qspr_overhead_us":18,"improvement_pct":26.46}"#,
        (7, 0, 0),
    ),
    (
        r#"{"circuit":"[[7,1,3]]","baseline_us":510,"quale_us":768,"qspr_us":530,"quale_overhead_us":258,"qspr_overhead_us":20,"improvement_pct":30.99}"#,
        (9, 0, 0),
    ),
    (
        r#"{"circuit":"[[9,1,3]]","baseline_us":700,"quale_us":968,"qspr_us":790,"quale_overhead_us":268,"qspr_overhead_us":90,"improvement_pct":18.39}"#,
        (24, 36, 96),
    ),
    (
        r#"{"circuit":"[[14,8,3]]","baseline_us":3730,"quale_us":5244,"qspr_us":4292,"quale_overhead_us":1514,"qspr_overhead_us":562,"improvement_pct":18.15}"#,
        (65, 12, 31),
    ),
    (
        r#"{"circuit":"[[19,1,7]]","baseline_us":3820,"quale_us":6342,"qspr_us":4312,"quale_overhead_us":2522,"qspr_overhead_us":492,"improvement_pct":32.01}"#,
        (170, 160, 400),
    ),
    (
        r#"{"circuit":"[[23,1,7]]","baseline_us":2200,"quale_us":3725,"qspr_us":2560,"quale_overhead_us":1525,"qspr_overhead_us":360,"improvement_pct":31.28}"#,
        (124, 132, 328),
    ),
];

#[test]
fn negotiated_suite_rows_and_routing_stats_are_pinned() {
    let flow = Flow::on(Fabric::quale_45x85())
        .router(RouterKind::Negotiated)
        .seeds(4);
    let mut got = Vec::new();
    for bench in benchmark_suite() {
        let row = flow.compare(&bench.name, &bench.program).expect("maps");
        let stats = flow.run(&bench.program).expect("maps").summary().routing;
        got.push((
            row.to_json(),
            (stats.epochs, stats.iterations, stats.ripped),
        ));
    }
    let pinned: Vec<(String, (u64, u64, u64))> = PINNED
        .iter()
        .map(|(row, stats)| ((*row).to_owned(), *stats))
        .collect();
    assert_eq!(got, pinned);
}
