//! Chrome `trace_event` export.
//!
//! The merged timeline becomes a JSON document loadable in `chrome://
//! tracing` / Perfetto: each LWP is a "thread" track, [`Tag::Dispatch`] /
//! [`Tag::SwitchOut`] pairs become duration slices named after the user
//! thread, and every other tag becomes a thread-scoped instant.

use std::fmt::Write as _;

use crate::tag::Tag;
use crate::Event;

/// How the exporter renders one tag. Every [`Tag`] variant is classified
/// explicitly in [`render_class`]; adding a tag without deciding its
/// rendering is a compile error, not a silently dropped event.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum RenderClass {
    /// Opens a "run" duration slice on the LWP track.
    SliceBegin,
    /// Closes the LWP track's open slice.
    SliceEnd,
    /// A thread-scoped instant mark.
    Instant,
}

/// Classifies a tag for export. Exhaustive on purpose — no `_` arm.
fn render_class(tag: Tag) -> RenderClass {
    match tag {
        Tag::Dispatch => RenderClass::SliceBegin,
        Tag::SwitchOut => RenderClass::SliceEnd,
        Tag::RunqPush
        | Tag::RunqPop
        | Tag::ThreadCreate
        | Tag::ThreadExit
        | Tag::Sleep
        | Tag::Wakeup
        | Tag::Stop
        | Tag::Continue
        | Tag::MutexBlock
        | Tag::CvBlock
        | Tag::SemaBlock
        | Tag::RwBlock
        | Tag::SignalDeliver
        | Tag::SigwaitingPost
        | Tag::PoolGrow
        | Tag::LwpSpawn
        | Tag::LwpExit
        | Tag::LwpPark
        | Tag::LwpUnpark
        | Tag::IoRegister
        | Tag::IoReady
        | Tag::IoPark
        | Tag::IoUnpark
        | Tag::IoTimeout
        | Tag::SleepTimeout
        | Tag::MutexAcquire
        | Tag::MutexRelease
        | Tag::CvSignal
        | Tag::CvBroadcast
        | Tag::SemaPost
        | Tag::RwAcquire
        | Tag::RwRelease
        | Tag::RunqSteal
        | Tag::RunqInject
        | Tag::MutexSpin
        | Tag::SleepqShard
        | Tag::MagazineHit
        | Tag::MagazineMiss
        | Tag::FutexWake
        | Tag::ChanSend
        | Tag::ChanRecv
        | Tag::ChanPark
        | Tag::SelectWake
        | Tag::Preempt
        | Tag::PrioDecay
        | Tag::PiBoost
        | Tag::PiStrip => RenderClass::Instant,
    }
}

/// Serializes `events` (as returned by [`crate::drain`]) into Chrome
/// `trace_event` JSON. Timestamps are microseconds relative to the first
/// event. Dispatch slices left open at the end of the capture are closed
/// at the final timestamp so the document always balances.
pub fn export_chrome(events: &[Event]) -> String {
    let base = events.first().map_or(0, |e| e.ts_ns);
    let last_us = events.last().map_or(0.0, |e| us(e.ts_ns, base));
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    // LWPs with an open "B" slice, so we emit balanced "E"s.
    let mut open: Vec<u32> = Vec::new();
    for e in events {
        let ts = us(e.ts_ns, base);
        match render_class(e.tag) {
            RenderClass::SliceBegin => {
                if open.contains(&e.lwp) {
                    // Two dispatches without a switch-out (lost event or
                    // overwritten ring tail): close the stale slice first.
                    push_record(&mut out, &mut first, "run", "E", e.lwp, ts, None);
                    open.retain(|l| *l != e.lwp);
                }
                push_record(&mut out, &mut first, "run", "B", e.lwp, ts, Some(e));
                open.push(e.lwp);
            }
            RenderClass::SliceEnd => {
                if open.contains(&e.lwp) {
                    push_record(&mut out, &mut first, "run", "E", e.lwp, ts, Some(e));
                    open.retain(|l| *l != e.lwp);
                }
            }
            RenderClass::Instant => push_instant(&mut out, &mut first, e, ts),
        }
    }
    for lwp in open {
        push_record(&mut out, &mut first, "run", "E", lwp, last_us, None);
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

fn us(ts_ns: u64, base: u64) -> f64 {
    (ts_ns - base) as f64 / 1_000.0
}

fn push_record(
    out: &mut String,
    first: &mut bool,
    name: &str,
    ph: &str,
    lwp: u32,
    ts: f64,
    args_of: Option<&Event>,
) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"pid\":1,\"tid\":{lwp},\"ts\":{ts}"
    );
    if let Some(e) = args_of {
        let _ = write!(
            out,
            ",\"args\":{{\"thread\":{},\"a\":{},\"b\":{}}}",
            e.thread, e.a, e.b
        );
    }
    out.push('}');
}

fn push_instant(out: &mut String, first: &mut bool, e: &Event, ts: f64) {
    if !*first {
        out.push(',');
    }
    *first = false;
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{ts},\
         \"args\":{{\"thread\":{},\"a\":{},\"b\":{}}}}}",
        e.tag.name(),
        e.lwp,
        e.thread,
        e.a,
        e.b
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_ns: u64, lwp: u32, tag: Tag, a: u64) -> Event {
        Event {
            ts_ns,
            lwp,
            thread: 42,
            tag,
            a,
            b: 0,
        }
    }

    // ------------------------------------------------------------------
    // A minimal JSON value + recursive-descent parser, used only to prove
    // the export is well-formed and structurally right.

    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(kv) => kv.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
        fn as_arr(&self) -> &[Json] {
            match self {
                Json::Arr(v) => v,
                other => panic!("expected array, got {other:?}"),
            }
        }
        fn as_str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("expected string, got {other:?}"),
            }
        }
        fn as_num(&self) -> f64 {
            match self {
                Json::Num(n) => *n,
                other => panic!("expected number, got {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl<'a> Parser<'a> {
        fn parse(text: &'a str) -> Json {
            let mut p = Parser {
                s: text.as_bytes(),
                i: 0,
            };
            let v = p.value();
            p.ws();
            assert_eq!(p.i, p.s.len(), "trailing garbage after JSON value");
            v
        }
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(
                self.s.get(self.i),
                Some(&c),
                "expected {:?} at byte {}",
                c as char,
                self.i
            );
            self.i += 1;
        }
        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.i]
        }
        fn value(&mut self) -> Json {
            match self.peek() {
                b'{' => self.object(),
                b'[' => self.array(),
                b'"' => Json::Str(self.string()),
                b't' => self.lit("true", Json::Bool(true)),
                b'f' => self.lit("false", Json::Bool(false)),
                b'n' => self.lit("null", Json::Null),
                _ => self.number(),
            }
        }
        fn lit(&mut self, word: &str, v: Json) -> Json {
            self.ws();
            assert!(self.s[self.i..].starts_with(word.as_bytes()));
            self.i += word.len();
            v
        }
        fn object(&mut self) -> Json {
            self.eat(b'{');
            let mut kv = Vec::new();
            if self.peek() != b'}' {
                loop {
                    let k = self.string();
                    self.eat(b':');
                    kv.push((k, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        break;
                    }
                }
            }
            self.eat(b'}');
            Json::Obj(kv)
        }
        fn array(&mut self) -> Json {
            self.eat(b'[');
            let mut v = Vec::new();
            if self.peek() != b']' {
                loop {
                    v.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        break;
                    }
                }
            }
            self.eat(b']');
            Json::Arr(v)
        }
        fn string(&mut self) -> String {
            self.eat(b'"');
            let mut out = String::new();
            loop {
                match self.s[self.i] {
                    b'"' => {
                        self.i += 1;
                        return out;
                    }
                    b'\\' => {
                        self.i += 1;
                        match self.s[self.i] {
                            b'n' => out.push('\n'),
                            b't' => out.push('\t'),
                            b'r' => out.push('\r'),
                            c => out.push(c as char),
                        }
                        self.i += 1;
                    }
                    c => {
                        out.push(c as char);
                        self.i += 1;
                    }
                }
            }
        }
        fn number(&mut self) -> Json {
            self.ws();
            let start = self.i;
            while self.i < self.s.len()
                && matches!(
                    self.s[self.i],
                    b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                )
            {
                self.i += 1;
            }
            let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
            Json::Num(text.parse().expect("bad number"))
        }
    }

    #[test]
    fn export_parses_back_and_balances_slices() {
        let events = vec![
            ev(1_000, 7, Tag::Dispatch, 42),
            ev(1_200, 7, Tag::RunqPop, 43),
            ev(2_000, 8, Tag::Dispatch, 43),
            ev(3_000, 7, Tag::SwitchOut, 42),
            // LWP 8's slice is left open: the exporter must close it.
        ];
        let doc = Parser::parse(&export_chrome(&events));
        let arr = doc.get("traceEvents").expect("traceEvents").as_arr();
        // B + i + B + E + trailing synthetic E.
        assert_eq!(arr.len(), 5);
        let mut depth_by_tid = std::collections::HashMap::new();
        let mut last_ts = f64::MIN;
        for rec in arr {
            let ph = rec.get("ph").unwrap().as_str();
            let tid = rec.get("tid").unwrap().as_num() as u32;
            let ts = rec.get("ts").unwrap().as_num();
            assert!(ts >= 0.0);
            last_ts = last_ts.max(ts);
            match ph {
                "B" => *depth_by_tid.entry(tid).or_insert(0i32) += 1,
                "E" => *depth_by_tid.entry(tid).or_insert(0i32) -= 1,
                "i" => assert_eq!(rec.get("s").unwrap().as_str(), "t"),
                other => panic!("unexpected phase {other}"),
            }
        }
        assert!(
            depth_by_tid.values().all(|d| *d == 0),
            "unbalanced B/E per tid: {depth_by_tid:?}"
        );
        assert_eq!(last_ts, 2.0, "timestamps are relative microseconds");
        let instant = arr
            .iter()
            .find(|r| r.get("ph").unwrap().as_str() == "i")
            .unwrap();
        assert_eq!(instant.get("name").unwrap().as_str(), "runq-pop");
        assert_eq!(
            instant.get("args").unwrap().get("a").unwrap().as_num(),
            43.0
        );
    }

    #[test]
    fn every_tag_is_classified_and_only_dispatch_pairs_make_slices() {
        for t in Tag::ALL {
            let c = render_class(t);
            match t {
                Tag::Dispatch => assert_eq!(c, RenderClass::SliceBegin),
                Tag::SwitchOut => assert_eq!(c, RenderClass::SliceEnd),
                _ => assert_eq!(c, RenderClass::Instant, "{t:?}"),
            }
        }
    }

    #[test]
    fn empty_capture_exports_an_empty_document() {
        let doc = Parser::parse(&export_chrome(&[]));
        assert!(doc.get("traceEvents").unwrap().as_arr().is_empty());
    }

    #[test]
    fn double_dispatch_closes_the_stale_slice() {
        let events = vec![
            ev(0, 3, Tag::Dispatch, 1),
            ev(100, 3, Tag::Dispatch, 2),
            ev(200, 3, Tag::SwitchOut, 2),
        ];
        let doc = Parser::parse(&export_chrome(&events));
        let arr = doc.get("traceEvents").unwrap().as_arr();
        let phases: Vec<&str> = arr.iter().map(|r| r.get("ph").unwrap().as_str()).collect();
        assert_eq!(phases, ["B", "E", "B", "E"]);
    }
}
