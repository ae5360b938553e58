//! The benchmark's own span recorder (choosing-metrics §4): spans are
//! recorded in the benchmark's files, round each call into a layer's
//! public function, kept in per-thread vectors and analysed at exit.
//!
//! Every operation has a root `op` span; the calls it makes are its
//! children and share its operation id. A layer call has no children of
//! its own yet (spans inside the library are a later issue), so its self
//! time is its duration, and the root's self time — the operation time
//! not inside any layer call — is `budget.residual_share`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use crate::harness::{cycles_to_ns, now, LatHist, SPANS_ON};

/// The layers a span can belong to, as attributed by the discrimination
/// check. `sunmt-context` and `sunmt-lwp` are only reachable through
/// `sunmt`, so from outside they are part of `core`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    Core = 0,
    Sync = 1,
    Chan = 2,
    Io = 3,
}

/// Every layer, in discriminant order: `share[layer as usize]`.
pub const LAYERS: [Layer; 4] = [Layer::Core, Layer::Sync, Layer::Chan, Layer::Io];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Core => "core",
            Layer::Sync => "sync",
            Layer::Chan => "chan",
            Layer::Io => "io",
        }
    }
}

/// Span names: the root, then one per public function the workloads call.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[repr(u8)]
pub enum Name {
    Op,
    CoreCreate,
    CoreJoin,
    SyncRwReadEnter,
    SyncRwWriteEnter,
    SyncRwExit,
    SyncMutexEnter,
    SyncMutexExit,
    SyncSemaP,
    SyncSemaV,
    ChanSend,
    ChanRecv,
    IoWrite,
    IoRead,
    IoWake,
    /// Not recorded but derived: `chan.send` start to the matching
    /// `chan.recv` end, so that a message's wait in the ring counts as
    /// time in the channel layer.
    ChanHop,
}

impl Name {
    /// The name as printed; with `_ns`/`_us` appended it is the metric.
    pub fn text(self) -> &'static str {
        match self {
            Name::Op => "op",
            Name::CoreCreate => "core.create",
            Name::CoreJoin => "core.join",
            Name::SyncRwReadEnter => "sync.rw_read_enter",
            Name::SyncRwWriteEnter => "sync.rw_write_enter",
            Name::SyncRwExit => "sync.rw_exit",
            Name::SyncMutexEnter => "sync.mutex_enter",
            Name::SyncMutexExit => "sync.mutex_exit",
            Name::SyncSemaP => "sync.sema_p",
            Name::SyncSemaV => "sync.sema_v",
            Name::ChanSend => "chan.send",
            Name::ChanRecv => "chan.recv",
            Name::IoWrite => "io.write",
            Name::IoRead => "io.read",
            Name::IoWake => "io.wake",
            Name::ChanHop => "chan.hop",
        }
    }

    fn layer(self) -> Option<Layer> {
        match self {
            Name::Op => None,
            Name::CoreCreate | Name::CoreJoin => Some(Layer::Core),
            Name::ChanSend | Name::ChanRecv | Name::ChanHop => Some(Layer::Chan),
            Name::IoWrite | Name::IoRead | Name::IoWake => Some(Layer::Io),
            _ => Some(Layer::Sync),
        }
    }
}

#[derive(Clone, Copy)]
pub struct Span {
    pub name: Name,
    /// Which of several like calls in one operation (the pipeline hop).
    pub aux: u8,
    /// Shared by all spans of one operation.
    pub op: u64,
    pub start: u64,
    pub end: u64,
}

static ALL: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// Whether spans are being recorded now and operation `seq` is one of
/// the `1 / 2^shift` sampled. Sampling is by operation, never by span:
/// a sampled operation has all its spans, on whichever threads they are
/// recorded. The sequence number is hashed first, so that the sample does
/// not fall in step with anything a workload does every n-th operation.
#[inline]
pub fn sampled(seq: u64, shift: u32) -> bool {
    SPANS_ON.load(Ordering::Relaxed) && seq.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - shift) == 0
}

/// One thread's span vector; handed to the global list on drop.
pub struct Spans(Vec<Span>);

impl Spans {
    pub fn new() -> Spans {
        Spans(Vec::new())
    }

    #[inline]
    pub fn push(&mut self, name: Name, aux: u8, op: u64, start: u64, end: u64) {
        self.0.push(Span {
            name,
            aux,
            op,
            start,
            end,
        });
    }

    /// Times `f` as a child span of operation `op` when `on`.
    #[inline]
    pub fn call<R>(&mut self, on: bool, name: Name, aux: u8, op: u64, f: impl FnOnce() -> R) -> R {
        if !on {
            return f();
        }
        let start = now();
        let r = f();
        self.push(name, aux, op, start, now());
        r
    }
}

impl Drop for Spans {
    fn drop(&mut self) {
        if !self.0.is_empty() {
            ALL.lock()
                .expect("span list poisoned")
                .push(std::mem::take(&mut self.0));
        }
    }
}

/// What the traced run reports from the spans.
pub struct Analysis {
    pub ops: u64,
    pub spans: u64,
    /// Share of operation time attributed to each layer, as `LAYERS`.
    pub share: [f64; 4],
    pub residual_share: f64,
    /// Duration histogram per child span name.
    pub by_name: BTreeMap<Name, LatHist>,
}

/// Takes every recorded span and attributes operation time to layers.
///
/// Within one operation the children are swept in start order and each
/// instant of the root interval goes to the first child covering it, so
/// overlapping children (a sender and a parked receiver, say) are not
/// counted twice and the shares and the residual sum to one.
pub fn analyse() -> (Analysis, Vec<Span>) {
    let mut spans: Vec<Span> = std::mem::take(&mut *ALL.lock().expect("span list poisoned"))
        .into_iter()
        .flatten()
        .collect();
    spans.sort_by_key(|s| (s.op, s.start));

    let mut a = Analysis {
        ops: 0,
        spans: spans.len() as u64,
        share: [0.0; 4],
        residual_share: 0.0,
        by_name: BTreeMap::new(),
    };
    let mut layer_time = [0u64; 4];
    let (mut root_time, mut residual) = (0u64, 0u64);
    for op in spans.chunk_by(|x, y| x.op == y.op) {
        // An operation that straddled the recorder being switched may
        // lack its root; its spans say nothing about a whole operation.
        let Some(root) = op.iter().find(|s| s.name == Name::Op) else {
            continue;
        };
        a.ops += 1;
        root_time += root.end.saturating_sub(root.start);
        let mut children: Vec<Span> = op.iter().filter(|s| s.name != Name::Op).copied().collect();
        let hops: Vec<Span> = children
            .iter()
            .filter(|r| r.name == Name::ChanRecv)
            .filter_map(|r| {
                let sent = children
                    .iter()
                    .find(|s| s.name == Name::ChanSend && s.aux == r.aux)?;
                Some(Span {
                    name: Name::ChanHop,
                    start: sent.start,
                    ..*r
                })
            })
            .collect();
        children.extend(hops);
        children.sort_by_key(|s| s.start);
        let mut cursor = root.start;
        for s in &children {
            a.by_name
                .entry(s.name)
                .or_default()
                .record(s.end.saturating_sub(s.start));
            let (lo, hi) = (s.start.max(cursor), s.end.min(root.end));
            if hi > lo {
                residual += lo - cursor;
                let layer = s.name.layer().expect("child spans have a layer");
                layer_time[layer as usize] += hi - lo;
                cursor = hi;
            }
        }
        residual += root.end.saturating_sub(cursor);
    }
    if root_time > 0 {
        for (share, t) in a.share.iter_mut().zip(layer_time) {
            *share = t as f64 / root_time as f64;
        }
        a.residual_share = residual as f64 / root_time as f64;
    }
    (a, spans)
}

/// Writes the first `limit` spans as JSON: one object per span with its
/// name, operation id, parent (`"op"`, or null for the root) and start
/// and end in nanoseconds from the first span.
pub fn dump(path: &std::path::Path, workload: &str, spans: &[Span], limit: usize) {
    let base = spans.iter().map(|s| s.start).min().unwrap_or(0);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\": \"{workload}\", \"recorded\": {}, \"written\": {}, \"spans\": [",
        spans.len(),
        spans.len().min(limit)
    );
    for (i, s) in spans.iter().take(limit).enumerate() {
        let parent = if s.name == Name::Op { "null" } else { "\"op\"" };
        let _ = write!(
            out,
            "{}\n{{\"name\": \"{}\", \"aux\": {}, \"op_id\": {}, \"parent\": {parent}, \
             \"start_ns\": {:.0}, \"end_ns\": {:.0}}}",
            if i == 0 { "" } else { "," },
            s.name.text(),
            s.aux,
            s.op,
            cycles_to_ns((s.start - base) as f64),
            cycles_to_ns(s.end.saturating_sub(base) as f64),
        );
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("benchmark: cannot write {}: {e}", path.display());
    }
}
