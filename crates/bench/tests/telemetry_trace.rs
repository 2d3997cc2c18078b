//! Round-trips the telemetry layer's Chrome trace-event export through
//! the bench crate's JSON parser. A malformed export (bad escaping, missing required fields, spans that
//! don't nest) fails here before it fails inside Perfetto.

use ebc_bench::json::Json;
use ebc_core::suite::by_name;
use ebc_graphs::deterministic::cycle;
use ebc_radio::{Model, Sim};

/// One traced run of a real algorithm with nested protocol phases.
fn traced_run() -> ebc_radio::Telemetry {
    let graph = cycle(24);
    let mut sim = Sim::new(graph, Model::Cd, 11);
    sim.enable_telemetry();
    let alg = by_name("theorem11").expect("registered");
    alg.run(&mut sim, 0);
    sim.take_telemetry().expect("telemetry enabled")
}

#[test]
fn chrome_trace_round_trips_through_the_json_parser() {
    let tel = traced_run();
    let doc = Json::parse(&tel.chrome_trace()).expect("exporter must emit valid JSON");

    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("top-level traceEvents array");
    assert!(!events.is_empty());

    let mut spans = Vec::new();
    for ev in events {
        // Every event carries the fields the trace viewers key on.
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has a ph");
        assert!(ev.get("pid").is_some(), "every event has a pid");
        match ph {
            "M" => {} // metadata events carry no timestamp
            "X" => {
                let ts = ev.get("ts").and_then(Json::as_f64).expect("span ts");
                let dur = ev.get("dur").and_then(Json::as_f64).expect("span dur");
                assert!(dur >= 0.0);
                let name = ev.get("name").and_then(Json::as_str).expect("span name");
                spans.push((name.to_string(), ts, ts + dur));
            }
            "C" | "i" => {
                assert!(ev.get("ts").and_then(Json::as_f64).is_some(), "{ph} ts");
                assert!(ev.get("name").is_some(), "{ph} name");
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }

    // The run produced real protocol phases: the adapter's top-level span
    // plus nested internals, and the parsed intervals actually nest — an
    // inner span never crosses the top-level one's boundary.
    let (top_name, top_start, top_end) = spans
        .iter()
        .cloned()
        .max_by(|a, b| (a.2 - a.1).total_cmp(&(b.2 - b.1)))
        .expect("at least one span");
    assert_eq!(top_name, "theorem11");
    assert!(spans.len() > 1, "no nested phase spans");
    for (name, start, end) in &spans {
        assert!(
            *start >= top_start && *end <= top_end,
            "span {name} [{start}, {end}] escapes the top-level \
             {top_name} [{top_start}, {top_end}]"
        );
    }
    assert!(
        spans.iter().any(|(name, _, _)| name == "relabel"),
        "theorem11's relabel phase missing: {spans:?}"
    );
}

#[test]
fn jsonl_export_round_trips_line_by_line() {
    let tel = traced_run();
    let jsonl = tel.to_jsonl();
    let mut kinds = Vec::new();
    for line in jsonl.lines() {
        let row = Json::parse(line).expect("every JSONL line parses alone");
        let kind = row
            .get("type")
            .and_then(Json::as_str)
            .expect("every row is typed")
            .to_string();
        if !kinds.contains(&kind) {
            kinds.push(kind);
        }
    }
    assert!(kinds.contains(&"meta".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"span".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"counters".to_string()), "{kinds:?}");
    assert!(kinds.contains(&"event".to_string()), "{kinds:?}");
}
