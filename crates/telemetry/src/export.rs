//! Chrome trace-event export: renders timeline samplers, flow spans, and
//! flight-recorder events as a JSON trace loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping onto the trace-event model:
//!
//! * sampler tracks → counter events (`"ph":"C"`), one counter track per
//!   sampler track, grouped under the owning node's process;
//! * flow spans → async nestable spans (`"ph":"b"` / `"ph":"e"`,
//!   `cat:"flow"`), begun at flow start and closed at finish — or at the
//!   horizon, tagged `"outcome":"stalled-at-end"`;
//! * flight-recorder events → instant events (`"ph":"i"`) for the sparse
//!   kinds (stage crossings, hold-and-wait enter/exit, drops, rate
//!   changes); the dense kinds (enqueue/deliver/ctrl) are already
//!   summarized by the counter tracks and are skipped.
//!
//! Timestamps are microseconds (the trace-event unit); one simulated
//! picosecond is 1e-6 µs, so sub-microsecond structure survives as
//! fractional timestamps. JSON is hand-rolled for the same reason as
//! [`Snapshot::to_json`](crate::Snapshot::to_json): the vendored `serde`
//! is an API stub.
//!
//! # Rendering model
//!
//! A debugging run's trace is almost all sampler counters (tracks ×
//! samples: three million events on a k = 8 fat-tree) next to a few
//! thousand sparse events, so the two are rendered differently:
//!
//! * **Sparse sections** — process names, flow spans, recorder instants,
//!   causal spans and arrows — are rendered eagerly, as they are added,
//!   straight into one body buffer. No event owns an allocation.
//! * **The sampler section** is borrowed, not rendered:
//!   [`ChromeTrace::add_samplers`] keeps the `&'a SamplerSet` and its
//!   position in the body, and [`ChromeTrace::to_json`] renders the
//!   counters at that position directly into the output document. Each
//!   track's name and unit are escaped once, each sample row's timestamp
//!   is rendered once for all tracks. The lifetime `'a` ties the builder
//!   to the samplers it will read.
//!
//! Rendering therefore costs about one copy of the document: the output
//! `String`, plus the small sparse body. Every number goes through one
//! exact writer, `push_f64`: integral values below 2^53 take an integer
//! path, all others `Display`, so the bytes equal `format!("{v}")`.

use crate::causal::CausalReport;
use crate::recorder::{EventRecord, RecordKind};
use crate::timeline::{FlowSpan, FlowSpans, SamplerSet, SpanOutcome};
use gfc_core::json::push_json_str;
use std::fmt::Write as _;

/// Document head. Every event after it ends in [`SEP`]; `to_json` turns
/// the last one's into a bare newline.
const HEAD: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

/// Event separator.
const SEP: &str = ",\n";

/// Builder for one Chrome trace-event JSON document.
///
/// Feed it any combination of samplers, spans, recorder events, and
/// process labels, then render with [`ChromeTrace::to_json`]. See the
/// module docs for what is rendered when.
#[derive(Debug, Clone, Default)]
pub struct ChromeTrace<'a> {
    /// The sparse events rendered so far, each followed by [`SEP`].
    body: String,
    /// Sampler sections, each with the `body` offset it renders at.
    samplers: Vec<(usize, &'a SamplerSet)>,
    events: usize,
    counter_events: usize,
    span_begins: usize,
    span_ends: usize,
    instant_events: usize,
    flow_arrows: usize,
}

impl<'a> ChromeTrace<'a> {
    /// An empty trace.
    pub fn new() -> ChromeTrace<'a> {
        ChromeTrace::default()
    }

    /// Close the event just written into the body.
    fn end_event(&mut self) {
        self.body.push_str(SEP);
        self.events += 1;
    }

    /// Label node `pid`'s process track (`"ph":"M"` metadata).
    pub fn process_name(&mut self, pid: u32, name: &str) {
        let b = &mut self.body;
        let _ = write!(
            b,
            "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{pid},\"tid\":0,\"args\":{{\"name\":"
        );
        push_json_str(b, name);
        b.push_str("}}");
        self.end_event();
    }

    /// One counter sample on track `name` under node `pid`; `unit` is the
    /// series key shown in the counter's args.
    pub fn counter(&mut self, t_ps: u64, pid: u32, name: &str, unit: &str, value: f64) {
        let mut ts = String::new();
        push_ts(&mut ts, t_ps);
        CounterTrack::new(pid, name, unit).push(&mut self.body, &ts, value);
        self.counter_events += 1;
        self.events += 1;
    }

    /// Render every sampler track as a counter track under its node, at
    /// this point of the document. The counters are rendered by
    /// [`Self::to_json`]; until then the trace borrows `samplers`.
    pub fn add_samplers(&mut self, samplers: &'a SamplerSet) {
        let n = samplers.tracks().len() * samplers.len();
        self.samplers.push((self.body.len(), samplers));
        self.counter_events += n;
        self.events += n;
    }

    /// Render every flow span as an async nestable span under its source
    /// node; unfinished spans are closed at `horizon_ps` and tagged with
    /// their [`SpanOutcome`].
    pub fn add_spans(&mut self, spans: &FlowSpans, horizon_ps: u64) {
        let mut name = String::new();
        for span in spans.spans() {
            name.clear();
            let _ = write!(name, "flow {} {}->{}", span.id, span.src, span.dst);
            self.add_span(span, &name, spans.outcome(span, horizon_ps), horizon_ps);
        }
    }

    fn add_span(&mut self, s: &FlowSpan, name: &str, outcome: SpanOutcome, horizon_ps: u64) {
        let b = &mut self.body;
        let id = ("0x", s.id);
        push_async_head(b, 'b', name, "flow", id, s.src, 0);
        push_ts(b, s.start_ps);
        let _ = write!(b, ",\"args\":{{\"dst\":{},\"prio\":{},\"bytes\":", s.dst, s.prio);
        match s.bytes {
            Some(n) => push_u64(b, n),
            None => b.push_str("\"inf\""),
        }
        let _ = write!(b, ",\"path_links\":{}}}}}", s.path_links);
        self.end_event();
        self.span_begins += 1;

        let (end_ps, idle_ps) = match outcome {
            SpanOutcome::Finished => (s.end_ps.unwrap_or(horizon_ps), None),
            SpanOutcome::StalledAtEnd { idle_ps } => (horizon_ps, Some(idle_ps)),
        };
        let b = &mut self.body;
        push_async_head(b, 'e', name, "flow", id, s.src, 0);
        push_ts(b, end_ps);
        let _ = write!(
            b,
            ",\"args\":{{\"delivered\":{},\"stalls\":{},\"stall_ps\":{},\"outcome\":",
            s.delivered, s.stalls, s.stall_ps,
        );
        match idle_ps {
            None => b.push_str("\"finished\"}}"),
            Some(idle_ps) => {
                let _ = write!(b, "\"stalled-at-end\",\"idle_ps\":{idle_ps}}}}}");
            }
        }
        self.end_event();
        self.span_ends += 1;
    }

    /// Render the sparse flight-recorder kinds as instant events (thread
    /// = port); returns how many were emitted.
    pub fn add_recorder_events<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r EventRecord>,
    ) -> usize {
        let mut emitted = 0;
        for r in records {
            let (name, detail) = match r.kind {
                RecordKind::StageCross { stage } => {
                    ("stage-cross", Some(("stage", u64::from(stage))))
                }
                RecordKind::PauseEnter => ("hold-enter", None),
                RecordKind::PauseExit => ("hold-exit", None),
                RecordKind::Drop { bytes } => ("drop", Some(("bytes", bytes))),
                RecordKind::RateChange { bps } => ("rate-change", Some(("bps", bps))),
                RecordKind::Enqueue { .. }
                | RecordKind::Deliver { .. }
                | RecordKind::CtrlTx { .. }
                | RecordKind::CtrlRx { .. } => continue,
            };
            let b = &mut self.body;
            let _ = write!(
                b,
                "{{\"ph\":\"i\",\"s\":\"t\",\"name\":\"{name}\",\"pid\":{},\"tid\":{},\"ts\":",
                r.node, r.port,
            );
            push_ts(b, r.t_ps);
            let _ = write!(b, ",\"args\":{{\"prio\":{}", r.prio);
            if let Some((key, v)) = detail {
                let _ = write!(b, ",\"{key}\":{v}");
            }
            b.push_str("}}");
            self.end_event();
            emitted += 1;
            self.instant_events += 1;
        }
        emitted
    }

    /// One Perfetto flow arrow (`"ph":"s"` / `"ph":"f"` pair) from
    /// `(src_pid, src_tid)` at `src_ps` to `(dst_pid, dst_tid)` at
    /// `dst_ps`; `id` must be unique per arrow within `cat`.
    pub fn flow_arrow(
        &mut self,
        cat: &str,
        name: &str,
        id: u64,
        src: (u32, u32, u64),
        dst: (u32, u32, u64),
    ) {
        let (src_pid, src_tid, src_ps) = src;
        let (dst_pid, dst_tid, dst_ps) = dst;
        for (ph, pid, tid, ts_ps) in [
            ("\"s\"", src_pid, src_tid, src_ps),
            ("\"f\",\"bp\":\"e\"", dst_pid, dst_tid, dst_ps.max(src_ps)),
        ] {
            let b = &mut self.body;
            let _ = write!(b, "{{\"ph\":{ph},\"cat\":");
            push_json_str(b, cat);
            b.push_str(",\"name\":");
            push_json_str(b, name);
            let _ = write!(b, ",\"id\":\"0x{id:x}\",\"pid\":{pid},\"tid\":{tid},\"ts\":");
            push_ts(b, ts_ps);
            b.push('}');
            self.end_event();
        }
        self.flow_arrows += 1;
    }

    /// Render a causal report: one async span per backpressure episode
    /// (`cat:"causal"`, thread = port) and one flow arrow per
    /// parent→child propagation edge, linking cause to effect.
    pub fn add_causal(&mut self, report: &CausalReport) {
        let mut name = String::new();
        for e in &report.episodes {
            name.clear();
            let kind = if e.hard { "pause" } else { "throttle" };
            let _ = write!(name, "{kind} {} d={}", e.label(), e.depth);
            let id = ("0xc", u64::from(e.id));
            let tid = u32::from(e.port);
            let b = &mut self.body;
            push_async_head(b, 'b', &name, "causal", id, e.node, tid);
            push_ts(b, e.start_ps);
            let _ = write!(
                b,
                ",\"args\":{{\"prio\":{},\"hard\":{},\"root\":{},\"depth\":{}}}}}",
                e.prio, e.hard, e.root, e.depth,
            );
            self.end_event();
            self.span_begins += 1;
            let b = &mut self.body;
            push_async_head(b, 'e', &name, "causal", id, e.node, tid);
            push_ts(b, e.end_ps.unwrap_or(report.horizon_ps));
            b.push_str(",\"args\":{}}");
            self.end_event();
            self.span_ends += 1;
        }
        for e in &report.episodes {
            if let Some(p) = e.parent {
                let parent = &report.episodes[p as usize];
                self.flow_arrow(
                    "causal",
                    "backpressure",
                    u64::from(e.id),
                    (parent.node, u32::from(parent.port), e.start_ps),
                    (e.node, u32::from(e.port), e.start_ps),
                );
            }
        }
    }

    /// Number of flow arrows emitted so far.
    pub fn flow_arrows(&self) -> usize {
        self.flow_arrows
    }

    /// Number of counter events emitted so far.
    pub fn counter_events(&self) -> usize {
        self.counter_events
    }

    /// Number of async span begin events emitted so far.
    pub fn span_begins(&self) -> usize {
        self.span_begins
    }

    /// Number of async span end events emitted so far (always paired
    /// with begins by this builder).
    pub fn span_ends(&self) -> usize {
        self.span_ends
    }

    /// Number of instant events emitted so far.
    pub fn instant_events(&self) -> usize {
        self.instant_events
    }

    /// Total events (including metadata).
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Render the JSON document (`{"displayTimeUnit":…,"traceEvents":[…]}`),
    /// the sampler sections in place between the sparse events.
    pub fn to_json(&self) -> String {
        let mut out = String::from(HEAD);
        let mut at = 0;
        for &(pos, samplers) in &self.samplers {
            out.push_str(&self.body[at..pos]);
            render_samplers(&mut out, samplers);
            at = pos;
        }
        out.push_str(&self.body[at..]);
        if out.ends_with(SEP) {
            out.truncate(out.len() - SEP.len());
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// Write an async nestable event (`ph` `b` or `e`) up to its `"ts":`
/// value; `id` is the hex id's prefix and value.
fn push_async_head(
    b: &mut String,
    ph: char,
    name: &str,
    cat: &str,
    id: (&str, u64),
    pid: u32,
    tid: u32,
) {
    let _ = write!(b, "{{\"ph\":\"{ph}\",\"name\":");
    push_json_str(b, name);
    let (prefix, id) = id;
    let _ = write!(
        b,
        ",\"cat\":\"{cat}\",\"id\":\"{prefix}{id:x}\",\"pid\":{pid},\"tid\":{tid},\"ts\":"
    );
}

/// The constant parts of one counter track's events, escaped once.
struct CounterTrack {
    /// `{"ph":"C","name":…,"pid":…,"tid":0,"ts":`
    head: String,
    /// `,"args":{"<unit>":`
    args: String,
}

impl CounterTrack {
    fn new(pid: u32, name: &str, unit: &str) -> CounterTrack {
        let mut head = String::from("{\"ph\":\"C\",\"name\":");
        push_json_str(&mut head, name);
        let _ = write!(head, ",\"pid\":{pid},\"tid\":0,\"ts\":");
        let mut args = String::from(",\"args\":{");
        push_json_str(&mut args, unit);
        args.push(':');
        CounterTrack { head, args }
    }

    /// Append one sample event; `ts` is its rendered timestamp.
    fn push(&self, out: &mut String, ts: &str, value: f64) {
        out.push_str(&self.head);
        out.push_str(ts);
        out.push_str(&self.args);
        push_json_num(out, value);
        out.push_str("}}");
        out.push_str(SEP);
    }
}

/// Render every track of `s` as counter events into `out`.
fn render_samplers(out: &mut String, s: &SamplerSet) {
    // Each sample row's timestamp, rendered once for all tracks.
    let mut ts = String::new();
    let ends: Vec<usize> = s
        .times()
        .iter()
        .map(|&t| {
            push_ts(&mut ts, t);
            ts.len()
        })
        .collect();
    for (idx, meta) in s.tracks().iter().enumerate() {
        let track = CounterTrack::new(meta.node, &meta.name, meta.kind.unit());
        let mut start = 0;
        for (&end, &v) in ends.iter().zip(s.track_values(idx)) {
            track.push(out, &ts[start..end], v);
            start = end;
        }
    }
}

/// Picoseconds → trace-event microseconds.
fn push_ts(out: &mut String, t_ps: u64) {
    push_json_num(out, t_ps as f64 / 1e6);
}

/// Append `v` as a JSON number: [`push_f64`] for finite values, `0` for
/// NaN and the infinities, which JSON cannot represent (a stray one
/// would otherwise poison the whole document).
pub(crate) fn push_json_num(out: &mut String, v: f64) {
    if v.is_finite() {
        push_f64(out, v);
    } else {
        out.push('0');
    }
}

/// Append `v` exactly as `format!("{v}")` renders it, for every `f64`.
/// Integral values below 2^53 — bytes, bits per second, sample
/// timestamps — take the integer path; everything else goes through
/// `Display`, which never emits an exponent, so finite output is
/// JSON-safe.
pub(crate) fn push_f64(out: &mut String, v: f64) {
    /// 2^53: every integer below it is exact in an `f64`.
    const EXACT: f64 = 9_007_199_254_740_992.0;
    if v.fract() == 0.0 && v.abs() < EXACT {
        // `Display` keeps the sign of -0.0, and so does this.
        if v.is_sign_negative() {
            out.push('-');
        }
        push_u64(out, v.abs() as u64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `n` in decimal.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("decimal digits are ASCII"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::CtrlClass;
    use crate::timeline::{TrackKind, TrackMeta};

    #[test]
    fn counters_from_sampler_tracks() {
        let mut s = SamplerSet::new(1_000_000, 100);
        s.track(TrackMeta {
            name: "S1:p0 ingress".into(),
            node: 1,
            port: 0,
            kind: TrackKind::IngressOccupancy,
        });
        s.sample(0, &[12.0]);
        s.sample(1_000_000, &[34.5]);
        let mut tr = ChromeTrace::new();
        tr.process_name(1, "S1");
        tr.add_samplers(&s);
        assert_eq!(tr.counter_events(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"ph\":\"C\""), "json: {json}");
        assert!(json.contains("\"name\":\"S1:p0 ingress\""));
        assert!(json.contains("\"ts\":1,\"args\":{\"bytes\":34.5}"), "json: {json}");
        assert!(json.contains("\"process_name\""));
    }

    #[test]
    fn spans_close_finished_and_stalled() {
        let mut fs = FlowSpans::new(100);
        fs.on_start(1, 0, 2, 0, Some(1000), 3, 0);
        fs.on_delivery(1, 1000, 5_000_000);
        fs.on_finish(1, 5_000_000);
        fs.on_start(2, 1, 3, 0, None, 2, 0);
        let mut tr = ChromeTrace::new();
        tr.add_spans(&fs, 10_000_000);
        assert_eq!(tr.span_begins(), 2);
        assert_eq!(tr.span_ends(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"ph\":\"b\""));
        assert!(json.contains("\"ph\":\"e\""));
        assert!(json.contains("\"outcome\":\"finished\""));
        assert!(json.contains("\"outcome\":\"stalled-at-end\""));
        assert!(json.contains("\"bytes\":\"inf\""));
        assert!(json.contains("\"id\":\"0x2\""));
    }

    #[test]
    fn recorder_instants_filter_dense_kinds() {
        let recs = [
            EventRecord {
                t_ps: 10,
                node: 0,
                port: 1,
                prio: 0,
                kind: RecordKind::StageCross { stage: 2 },
            },
            EventRecord { t_ps: 20, node: 0, port: 1, prio: 0, kind: RecordKind::PauseEnter },
            EventRecord {
                t_ps: 30,
                node: 0,
                port: 1,
                prio: 0,
                kind: RecordKind::Enqueue { bytes: 1, occupancy: 1 },
            },
            EventRecord {
                t_ps: 40,
                node: 0,
                port: 1,
                prio: 0,
                kind: RecordKind::CtrlRx { ctrl: CtrlClass::Pause },
            },
        ];
        let mut tr = ChromeTrace::new();
        let n = tr.add_recorder_events(recs.iter());
        assert_eq!(n, 2);
        assert_eq!(tr.instant_events(), 2);
        let json = tr.to_json();
        assert!(json.contains("\"name\":\"stage-cross\""));
        assert!(json.contains("\"stage\":2"));
        assert!(!json.contains("enqueue"));
    }

    #[test]
    fn causal_report_renders_spans_and_arrows() {
        use crate::causal::{CausalTracker, CtrlSense};
        let mut t = CausalTracker::new(100);
        let root = t.on_ctrl_tx(1_000_000, 2, 0, 0, CtrlSense::AssertHard, None);
        t.on_ctrl_apply(1, 3, 0, root);
        t.on_ctrl_tx(2_000_000, 1, 0, 0, CtrlSense::AssertHard, Some(3));
        let r = t.report(5_000_000, &[]);
        let mut tr = ChromeTrace::new();
        tr.add_causal(&r);
        assert_eq!(tr.span_begins(), 2);
        assert_eq!(tr.span_ends(), 2);
        assert_eq!(tr.flow_arrows(), 1);
        let json = tr.to_json();
        assert!(json.contains("\"cat\":\"causal\""), "json: {json}");
        assert!(json.contains("\"ph\":\"s\""), "json: {json}");
        assert!(json.contains("\"ph\":\"f\",\"bp\":\"e\""), "json: {json}");
        assert!(json.contains("pause n2:p0/0 d=0"), "json: {json}");
        assert!(json.contains("\"hard\":true"), "json: {json}");
    }

    #[test]
    fn json_document_shape() {
        let tr = ChromeTrace::new();
        assert!(tr.is_empty());
        assert_eq!(tr.to_json(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n");
    }

    #[test]
    fn sampler_section_renders_in_place_between_sparse_events() {
        let mut s = SamplerSet::new(10, 100);
        s.track(TrackMeta { name: "a".into(), node: 0, port: 0, kind: TrackKind::HoldState });
        s.sample(0, &[1.0]);
        let mut tr = ChromeTrace::new();
        tr.process_name(0, "first");
        tr.add_samplers(&s);
        tr.process_name(1, "last");
        assert_eq!(tr.len(), 3);
        let json = tr.to_json();
        let first = json.find("first").expect("first event");
        let counter = json.find("\"ph\":\"C\"").expect("counter event");
        let last = json.find("last").expect("last event");
        assert!(first < counter && counter < last, "json: {json}");
        // A trailing sampler section is the last event: no dangling comma.
        let mut tail = ChromeTrace::new();
        tail.add_samplers(&s);
        assert!(tail.to_json().ends_with("{\"state\":1}}\n]}\n"), "{}", tail.to_json());
    }

    fn json_num(v: f64) -> String {
        let mut out = String::new();
        push_json_num(&mut out, v);
        out
    }

    fn f64_text(v: f64) -> String {
        let mut out = String::new();
        push_f64(&mut out, v);
        out
    }

    #[test]
    fn number_writer_matches_display() {
        let two53 = 9_007_199_254_740_992.0_f64;
        let mut cases = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            1.25,
            two53 - 1.0,
            -(two53 - 1.0),
            two53,
            -two53,
            two53 * 2.0,
            two53 + 2.0,
            1e20,
            -1e22,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 3.0,
            5e-324,
            -5e-324,
            u64::MAX as f64,
            1e-6,
            0.1,
            1.0 / 3.0,
            0.999_999_999_999_999_9,
            10_000_000_000.0,
        ];
        // Link-utilization fractions and picosecond → microsecond stamps.
        cases.extend((0..=1000).map(|i| f64::from(i) / 1000.0));
        cases.extend((0..1000u64).map(|i| (i * 7_919_993) as f64 / 1e6));
        // splitmix64-derived bit patterns, plus the integers they make.
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for _ in 0..100_000 {
            let bits = next();
            cases.push(f64::from_bits(bits));
            cases.push((bits >> (bits % 64)) as f64);
            cases.push(-((bits >> 11) as f64));
        }
        for v in cases.into_iter().filter(|v| v.is_finite()) {
            assert_eq!(json_num(v), format!("{v}"), "bits 0x{:016x}", v.to_bits());
        }
        for v in [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(json_num(v), "0", "{v}");
            assert_eq!(f64_text(v), format!("{v}"), "the CSV writer keeps Display");
        }
        let mut digits = String::new();
        for n in [0, 7, 10, 1_000_000, u64::MAX] {
            digits.clear();
            push_u64(&mut digits, n);
            assert_eq!(digits, n.to_string());
        }
    }
}
