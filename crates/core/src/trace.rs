//! Streaming JSONL run traces.
//!
//! [`TraceWriter`] is a [`RunObserver`] that serializes per-event records to
//! any `Write` sink as JSON lines, one self-describing object per event:
//!
//! ```text
//! {"kind":"arrival","t_s":12.5,"sequence":3,"pair":[0,4]}
//! {"kind":"swap","t_s":12.75,"swap":"balancing"}
//! {"kind":"satisfied","t_s":13.0,"sequence":3,"pair":[0,4],"sojourn_s":0.5,"hops":4}
//! {"kind":"drop","t_s":14.0,"sequence":5,"pair":[1,2]}
//! ```
//!
//! Attach one with [`crate::network::QuantumNetworkWorld::add_observer`];
//! the sink is flushed on drop (or explicitly via [`TraceWriter::into_sink`]).
//! Traces contain only seeded simulation data, so for a fixed configuration
//! the byte stream is deterministic — traces can be diffed like reports.
//!
//! By default only the request-lifecycle and swap events are written (the
//! per-pair generation/loss firehose is opt-in via
//! [`TraceWriter::with_pair_events`]), keeping traces proportional to the
//! workload rather than to `generation_rate × horizon`.

use crate::metrics::SatisfiedRequest;
use crate::observer::{RunObserver, SwapKind};
use crate::workload::ConsumptionRequest;
use qnet_sim::SimTime;
use qnet_topology::NodePair;
use serde::Value;
use std::fmt;
use std::io::Write;

/// A line-oriented JSON writer: one serialized [`Value`] per line, with
/// first-error latching and a line counter.
///
/// This is the I/O core shared by every JSONL event stream in the stack —
/// [`TraceWriter`] uses it for simulation traces, and the campaign
/// orchestrator reuses it for worker progress files and run event logs.
/// Writing stops at the first I/O failure (the producer is never
/// interrupted by a bad sink); the error surfaces through
/// [`JsonlSink::io_error`] / [`JsonlSink::into_sink`].
pub struct JsonlSink<W: Write + Send> {
    /// `Some` until [`JsonlSink::into_sink`] takes it; `Drop` flushes a
    /// still-owned sink best-effort.
    sink: Option<W>,
    /// First I/O error encountered (subsequent writes are skipped).
    error: Option<std::io::Error>,
    lines: u64,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wrap a sink (a `File`, `Vec<u8>`, `Stdout` lock, …).
    pub fn new(sink: W) -> Self {
        JsonlSink {
            sink: Some(sink),
            error: None,
            lines: 0,
        }
    }

    /// Serialize `value` and append it as one line. No-op after the first
    /// I/O error.
    pub fn write_value(&mut self, value: &Value) {
        if self.error.is_some() {
            return;
        }
        let line = serde_json::to_string(value).expect("JSONL record to_string");
        let sink = self.sink.as_mut().expect("sink present until into_sink");
        if let Err(e) = writeln!(sink, "{line}") {
            self.error = Some(e);
        } else {
            self.lines += 1;
        }
    }

    /// Flush the sink, surfacing any latched error.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.sink
            .as_mut()
            .expect("sink present until into_sink")
            .flush()
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.lines
    }

    /// The first I/O error this sink ran into, if any.
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.error.as_ref()
    }

    /// Flush and return the sink, surfacing any I/O error recorded while
    /// writing (the `Drop` flush is best-effort and cannot report one).
    pub fn into_sink(mut self) -> std::io::Result<W> {
        let mut sink = self.sink.take().expect("sink present until into_sink");
        sink.flush()?;
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        Ok(sink)
    }
}

impl<W: Write + Send> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Best-effort: a sink dropped without `into_sink` still flushes;
        // errors here have nowhere to go.
        if let Some(sink) = &mut self.sink {
            let _ = sink.flush();
        }
    }
}

impl<W: Write + Send> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("lines", &self.lines)
            .field("errored", &self.error.is_some())
            .finish()
    }
}

/// A [`RunObserver`] streaming one JSON line per observed event to a sink.
pub struct TraceWriter<W: Write + Send> {
    sink: JsonlSink<W>,
    include_pair_events: bool,
}

impl<W: Write + Send> TraceWriter<W> {
    /// Wrap a sink (a `File`, `Vec<u8>`, `Stdout` lock, …).
    pub fn new(sink: W) -> Self {
        TraceWriter {
            sink: JsonlSink::new(sink),
            include_pair_events: false,
        }
    }

    /// Also stream the high-volume `pair_generated` / `pair_lost` events.
    pub fn with_pair_events(mut self) -> Self {
        self.include_pair_events = true;
        self
    }

    /// Lines written so far.
    pub fn lines_written(&self) -> u64 {
        self.sink.lines_written()
    }

    /// The first I/O error the writer ran into, if any (writing stops at the
    /// first failure; simulation itself is never interrupted by a bad sink).
    pub fn io_error(&self) -> Option<&std::io::Error> {
        self.sink.io_error()
    }

    /// Flush and return the sink, surfacing any I/O error recorded during
    /// the run (the `Drop` flush is best-effort and cannot report one).
    pub fn into_sink(self) -> std::io::Result<W> {
        self.sink.into_sink()
    }

    fn write_record(&mut self, kind: &str, now: SimTime, fields: Vec<(String, Value)>) {
        let mut entries = vec![
            ("kind".to_string(), Value::Str(kind.to_string())),
            ("t_s".to_string(), Value::F64(now.as_secs_f64())),
        ];
        entries.extend(fields);
        self.sink.write_value(&Value::Map(entries));
    }
}

fn pair_value(pair: NodePair) -> Value {
    Value::Seq(vec![
        Value::U64(pair.lo().0 as u64),
        Value::U64(pair.hi().0 as u64),
    ])
}

fn request_fields(sequence: u64, pair: NodePair) -> Vec<(String, Value)> {
    vec![
        ("sequence".to_string(), Value::U64(sequence)),
        ("pair".to_string(), pair_value(pair)),
    ]
}

impl<W: Write + Send> fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("lines", &self.sink.lines_written())
            .field("include_pair_events", &self.include_pair_events)
            .field("errored", &self.sink.io_error().is_some())
            .finish()
    }
}

impl<W: Write + Send> RunObserver for TraceWriter<W> {
    fn on_pair_generated(&mut self, now: SimTime, edge: NodePair) {
        if self.include_pair_events {
            self.write_record(
                "pair_generated",
                now,
                vec![("edge".to_string(), pair_value(edge))],
            );
        }
    }

    fn on_pair_lost(&mut self, now: SimTime, edge: NodePair) {
        if self.include_pair_events {
            self.write_record(
                "pair_lost",
                now,
                vec![("edge".to_string(), pair_value(edge))],
            );
        }
    }

    fn on_pair_expired(&mut self, now: SimTime, pair: NodePair) {
        // Cutoff expiries scale with generation_rate × horizon at short
        // coherence times, so they ride with the pair-event firehose opt-in.
        if self.include_pair_events {
            self.write_record(
                "pair_expired",
                now,
                vec![("pair".to_string(), pair_value(pair))],
            );
        }
    }

    fn on_swap(&mut self, now: SimTime, kind: SwapKind) {
        let label = match kind {
            SwapKind::Balancing => "balancing",
            SwapKind::Repair => "repair",
        };
        self.write_record(
            "swap",
            now,
            vec![("swap".to_string(), Value::Str(label.to_string()))],
        );
    }

    fn on_swap_missed(&mut self, now: SimTime, pair: NodePair) {
        // A stale-knowledge decision was believed feasible but failed
        // against drifted ground truth (stale control plane only).
        self.write_record(
            "swap_missed",
            now,
            vec![("pair".to_string(), pair_value(pair))],
        );
    }

    fn on_request_arrival(&mut self, now: SimTime, request: &ConsumptionRequest) {
        self.write_record(
            "arrival",
            now,
            request_fields(request.sequence, request.pair),
        );
    }

    fn on_request_satisfied(&mut self, now: SimTime, request: &SatisfiedRequest) {
        let mut fields = request_fields(request.sequence, request.pair);
        fields.push(("sojourn_s".to_string(), Value::F64(request.sojourn_s())));
        fields.push((
            "hops".to_string(),
            Value::U64(request.shortest_path_hops as u64),
        ));
        if let Some(f) = request.fidelity {
            fields.push(("fidelity".to_string(), Value::F64(f)));
        }
        self.write_record("satisfied", now, fields);
    }

    fn on_request_dropped(&mut self, now: SimTime, request: &ConsumptionRequest) {
        self.write_record("drop", now, request_fields(request.sequence, request.pair));
    }

    fn on_fidelity_rejected(&mut self, now: SimTime, request: &ConsumptionRequest, fidelity: f64) {
        let mut fields = request_fields(request.sequence, request.pair);
        fields.push(("fidelity".to_string(), Value::F64(fidelity)));
        self.write_record("fidelity_reject", now, fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnet_topology::NodeId;
    use std::sync::{Arc, Mutex};

    fn sample_request() -> ConsumptionRequest {
        ConsumptionRequest {
            sequence: 3,
            pair: NodePair::new(NodeId(0), NodeId(4)),
            arrival_time: SimTime::from_secs(12),
        }
    }

    #[test]
    fn jsonl_sink_counts_lines_and_latches_errors() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.write_value(&Value::Map(vec![(
            "kind".to_string(),
            Value::Str("x".into()),
        )]));
        sink.write_value(&Value::U64(7));
        assert_eq!(sink.lines_written(), 2);
        assert!(sink.io_error().is_none());
        let text = String::from_utf8(sink.into_sink().unwrap()).unwrap();
        assert_eq!(text, "{\"kind\":\"x\"}\n7\n");

        // A failing sink latches the first error and stops counting.
        struct Broken;
        impl Write for Broken {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::Error::other("broken pipe"))
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut broken = JsonlSink::new(Broken);
        broken.write_value(&Value::U64(1));
        broken.write_value(&Value::U64(2));
        assert_eq!(broken.lines_written(), 0);
        assert!(broken.io_error().is_some());
        assert!(broken.into_sink().is_err());
    }

    #[test]
    fn writes_one_tagged_line_per_event() {
        let mut w = TraceWriter::new(Vec::new());
        let t = SimTime::from_secs(12);
        w.on_request_arrival(t, &sample_request());
        w.on_swap(t, SwapKind::Balancing);
        let sat = SatisfiedRequest {
            sequence: 3,
            pair: NodePair::new(NodeId(0), NodeId(4)),
            arrival_time: SimTime::from_secs(12),
            satisfied_at: SimTime::from_secs(13),
            shortest_path_hops: 4,
            repair_swaps: 0,
            fidelity: None,
        };
        w.on_request_satisfied(SimTime::from_secs(13), &sat);
        w.on_request_dropped(SimTime::from_secs(14), &sample_request());
        assert_eq!(w.lines_written(), 4);

        let text = String::from_utf8(w.into_sink().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let arrival: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(arrival["kind"], "arrival");
        assert_eq!(arrival["sequence"], 3);
        assert_eq!(arrival["pair"][1], 4);
        let satisfied: Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(satisfied["kind"], "satisfied");
        assert_eq!(satisfied["sojourn_s"], 1.0);
        assert_eq!(satisfied["hops"], 4);
        let dropped: Value = serde_json::from_str(lines[3]).unwrap();
        assert_eq!(dropped["kind"], "drop");
    }

    #[test]
    fn pair_events_are_opt_in() {
        let edge = NodePair::new(NodeId(0), NodeId(1));
        let mut quiet = TraceWriter::new(Vec::new());
        quiet.on_pair_generated(SimTime::ZERO, edge);
        quiet.on_pair_lost(SimTime::ZERO, edge);
        quiet.on_pair_expired(SimTime::ZERO, edge);
        assert_eq!(quiet.lines_written(), 0);

        let mut loud = TraceWriter::new(Vec::new()).with_pair_events();
        loud.on_pair_generated(SimTime::ZERO, edge);
        loud.on_pair_lost(SimTime::ZERO, edge);
        loud.on_pair_expired(SimTime::ZERO, edge);
        assert_eq!(loud.lines_written(), 3);
        let text = String::from_utf8(loud.into_sink().unwrap()).unwrap();
        assert!(text.contains("\"pair_generated\""));
        assert!(text.contains("\"pair_lost\""));
        assert!(text.contains("\"pair_expired\""));
    }

    #[test]
    fn physics_records_carry_fidelity() {
        let mut w = TraceWriter::new(Vec::new());
        let sat = SatisfiedRequest {
            sequence: 1,
            pair: NodePair::new(NodeId(0), NodeId(4)),
            arrival_time: SimTime::ZERO,
            satisfied_at: SimTime::from_secs(2),
            shortest_path_hops: 3,
            repair_swaps: 0,
            fidelity: Some(0.87),
        };
        w.on_request_satisfied(SimTime::from_secs(2), &sat);
        w.on_fidelity_rejected(SimTime::from_secs(3), &sample_request(), 0.41);
        let text = String::from_utf8(w.into_sink().unwrap()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let satisfied: Value = serde_json::from_str(lines[0]).unwrap();
        assert_eq!(satisfied["fidelity"], 0.87);
        let rejected: Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(rejected["kind"], "fidelity_reject");
        assert_eq!(rejected["fidelity"], 0.41);
    }

    #[test]
    fn traces_a_full_run_deterministically() {
        use crate::classical::KnowledgeModel;
        use crate::config::NetworkConfig;
        use crate::network::QuantumNetworkWorld;
        use crate::policy::PolicyId;
        use crate::test_support::drive;
        use crate::workload::WorkloadSpec;
        use qnet_topology::Topology;

        let run = || {
            let spec = WorkloadSpec::open_loop(7, 5, 0.5, 100.0);
            let trace = Arc::new(Mutex::new(TraceWriter::new(Vec::new())));
            let world = drive(300, |queue| {
                let mut world = QuantumNetworkWorld::new(
                    NetworkConfig::new(Topology::Cycle { nodes: 7 }),
                    spec.generate(5),
                    PolicyId::OBLIVIOUS.instantiate(),
                    KnowledgeModel::Global,
                    5,
                    queue,
                );
                world.add_observer(Box::new(Arc::clone(&trace)));
                world
            });
            drop(world); // releases the world's clone of the observer Arc
            let writer = Arc::into_inner(trace)
                .expect("sole owner after the run")
                .into_inner()
                .unwrap();
            String::from_utf8(writer.into_sink().unwrap()).unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "traces must be seed-deterministic");
        assert!(a.lines().any(|l| l.contains("\"arrival\"")));
        assert!(a.lines().any(|l| l.contains("\"satisfied\"")));
        for line in a.lines() {
            let v: Value = serde_json::from_str(line).expect("valid JSON line");
            assert!(!v["kind"].is_null());
        }
    }
}
