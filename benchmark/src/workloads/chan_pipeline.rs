//! `chan_pipeline` — the actor pipeline over `sunmt-chan`.
//!
//! source → 3 stages × 2 workers → sink over `bounded(64)` MPMC channels,
//! 16-byte messages (id + source send stamp). A credit channel from sink
//! to source keeps at most 64 messages in flight: closed loop, window 64.
//! The channel ring, the eventcount park/unpark and the `sunmt` wake path
//! dominate; no I/O and no mutex/rwlock call.
//!
//! Operation = one message through all stages; latency = source send →
//! sink receive. Oracle: message count and id sum, source against sink.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sunmt_chan::{bounded, Receiver, Sender};

use super::Prepared;
use crate::harness::{
    join_all, now, past_end, unbound, wait_go, Checksum, Rec, SmallRng, SPANS_ON,
};
use crate::span::{sampled, Name, Spans};

pub const STAGES: usize = 3;
pub const WORKERS: usize = 2;
pub const CAP: usize = 64;
pub const IN_FLIGHT: usize = 64;
/// Payload ids generated from the seed; the source cycles through them.
const IDS: usize = 1 << 16;
const SPAN_SHIFT: u32 = 5;

/// The message: `(id, source send stamp)`. The id's upper bits are the
/// message's sequence number, its low 16 bits come from the seed.
type Msg = (u64, u64);

fn seq_of(id: u64) -> u64 {
    id >> 16
}

#[derive(Default)]
struct Totals {
    sent: AtomicU64,
    sent_sum: AtomicU64,
    got: AtomicU64,
    got_sum: AtomicU64,
}

pub fn setup(seed: u64) -> Prepared {
    let mut rng = SmallRng::new(seed);
    let mut sum = Checksum::new();
    let low: Vec<u16> = (0..IDS)
        .map(|_| {
            let v = rng.next_u64() as u16;
            sum.add(u64::from(v));
            v
        })
        .collect();

    let totals = Arc::new(Totals::default());
    let mut hops: Vec<(Sender<Msg>, Receiver<Msg>)> =
        (0..=STAGES).map(|_| bounded::<Msg>(CAP)).collect();
    let (credit_tx, credit_rx) = bounded::<()>(IN_FLIGHT);
    for _ in 0..IN_FLIGHT {
        credit_tx
            .send(())
            .expect("credit channel holds the whole window");
    }

    let mut threads = Vec::new();
    for s in 0..STAGES {
        for _ in 0..WORKERS {
            let (rx, tx) = (hops[s].1.clone(), hops[s + 1].0.clone());
            threads.push(unbound(move || stage(s as u8, rx, tx)));
        }
    }
    let (source_tx, _) = hops.remove(0);
    let (_, sink_rx) = hops.pop().expect("the last hop feeds the sink");
    // Only the workers' clones keep the inner hops open, so the source's
    // hang-up travels down the pipeline stage by stage.
    drop(hops);
    let t = Arc::clone(&totals);
    threads.push(unbound(move || sink(sink_rx, credit_tx, &t)));
    let t = Arc::clone(&totals);
    threads.push(unbound(move || source(source_tx, credit_rx, &low, &t)));

    Prepared {
        checksum: sum.get(),
        sizes: format!(
            "stages={STAGES} workers_per_stage={WORKERS} channel_cap={CAP} in_flight={IN_FLIGHT} \
             msg_bytes={}",
            std::mem::size_of::<Msg>()
        ),
        op_unit: "msgs/s",
        span_shift: SPAN_SHIFT,
        finish: Box::new(move || {
            join_all(threads);
            let (sent, got) = (
                totals.sent.load(Ordering::Relaxed),
                totals.got.load(Ordering::Relaxed),
            );
            let sums_differ =
                totals.sent_sum.load(Ordering::Relaxed) != totals.got_sum.load(Ordering::Relaxed);
            sent.abs_diff(got).max(u64::from(sums_differ))
        }),
    }
}

fn source(tx: Sender<Msg>, credits: Receiver<()>, low: &[u16], totals: &Totals) {
    let mut spans = Spans::new();
    wait_go();
    let (mut seq, mut sum) = (0u64, 0u64);
    loop {
        // The wait for a credit is the closed loop's think time: it ends
        // before the operation starts.
        if credits.recv().is_err() {
            break;
        }
        let id = seq << 16 | u64::from(low[seq as usize & (IDS - 1)]);
        let on = sampled(seq, SPAN_SHIFT);
        let t0 = now();
        spans.call(on, Name::ChanSend, 0, seq, || {
            tx.send((id, t0)).expect("stage 0 is alive")
        });
        sum = sum.wrapping_add(id);
        seq += 1;
        if past_end(t0) {
            break;
        }
    }
    totals.sent.store(seq, Ordering::Relaxed);
    totals.sent_sum.store(sum, Ordering::Relaxed);
}

/// Receives with the call's start stamp when spans are on (the stamp has
/// to be taken before the message, and so its id, is known).
fn recv_stamped(rx: &Receiver<Msg>) -> Option<(Msg, u64)> {
    let before = if SPANS_ON.load(Ordering::Relaxed) {
        now()
    } else {
        0
    };
    rx.recv().ok().map(|m| (m, before))
}

fn stage(s: u8, rx: Receiver<Msg>, tx: Sender<Msg>) {
    let mut spans = Spans::new();
    while let Some((msg, before)) = recv_stamped(&rx) {
        let seq = seq_of(msg.0);
        let on = before != 0 && sampled(seq, SPAN_SHIFT);
        if on {
            spans.push(Name::ChanRecv, s, seq, before, now());
        }
        spans.call(on, Name::ChanSend, s + 1, seq, || {
            tx.send(msg).expect("next stage is alive")
        });
    }
}

fn sink(rx: Receiver<Msg>, credits: Sender<()>, totals: &Totals) {
    let mut spans = Spans::new();
    wait_go();
    let mut rec = Rec::new();
    let (mut got, mut sum) = (0u64, 0u64);
    while let Some(((id, t0), before)) = recv_stamped(&rx) {
        let t1 = now();
        let seq = seq_of(id);
        if before != 0 && sampled(seq, SPAN_SHIFT) {
            spans.push(Name::ChanRecv, STAGES as u8, seq, before, t1);
            spans.push(Name::Op, 0, seq, t0, t1);
        }
        rec.op(t0, t1, 1, 0);
        got += 1;
        sum = sum.wrapping_add(id);
        // The source hangs up its credit receiver when the clock runs out.
        let _ = credits.send(());
    }
    totals.got.store(got, Ordering::Relaxed);
    totals.got_sum.store(sum, Ordering::Relaxed);
}
