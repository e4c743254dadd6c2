//! Property-based tests of the DES kernel and its resources.

use std::sync::Arc;

use dgsf_sim::stats::percentile;
use dgsf_sim::{
    percentile_sorted, Dur, GpsResource, Sim, SimReceiver, SimSender, SimTime, Summary,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use rand::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work conservation under generalized processor sharing: while at
    /// least one job is active the resource runs at full capacity, so
    /// `Σ work == capacity × busy_time` exactly (up to float/rounding).
    #[test]
    fn gps_conserves_work(
        works in proptest::collection::vec(0.01f64..3.0, 1..8),
        starts in proptest::collection::vec(0u64..2_000_000_000, 1..8),
        capacity in 0.5f64..4.0,
    ) {
        let n = works.len().min(starts.len());
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, capacity));
        for i in 0..n {
            let r = r.clone();
            let w = works[i];
            let at = SimTime(starts[i]);
            sim.spawn_at(&format!("j{i}"), at, move |ctx| {
                r.acquire(ctx, w);
            });
        }
        let end = sim.run();
        let busy = r.with_timeline(|tl| tl.busy_between(SimTime::ZERO, end + Dur(1)));
        let total: f64 = works[..n].iter().sum();
        let done = capacity * busy.as_secs_f64();
        prop_assert!(
            (done - total).abs() < 1e-3 * total.max(1.0),
            "work {total} vs capacity×busy {done}"
        );
    }

    /// Every job completes no earlier than its exclusive-use time and no
    /// later than if it shared with everyone the whole way.
    #[test]
    fn gps_completion_bounds(
        works in proptest::collection::vec(0.05f64..2.0, 2..6),
    ) {
        let n = works.len();
        let mut sim = Sim::new(1);
        let r = Arc::new(GpsResource::new(&sim, 1.0));
        let finishes = Arc::new(Mutex::new(vec![0.0f64; n]));
        for (i, w) in works.clone().into_iter().enumerate() {
            let r = r.clone();
            let f = finishes.clone();
            sim.spawn(&format!("j{i}"), move |ctx| {
                r.acquire(ctx, w);
                f.lock()[i] = ctx.now().as_secs_f64();
            });
        }
        sim.run();
        let total: f64 = works.iter().sum();
        let fin = finishes.lock().clone();
        for (i, &w) in works.iter().enumerate() {
            prop_assert!(fin[i] >= w - 1e-6, "job {i} finished before exclusive time");
            prop_assert!(fin[i] <= total + 1e-3, "job {i} finished after serial total");
        }
        // the last finisher ends exactly when all work is done
        let last = fin.iter().cloned().fold(0.0, f64::max);
        prop_assert!((last - total).abs() < 1e-3, "makespan {last} vs total {total}");
    }

    /// Virtual sleeps from concurrent processes interleave consistently:
    /// each process observes its own cumulative sleep time.
    #[test]
    fn sleeps_accumulate_exactly(
        durs in proptest::collection::vec(1u64..1_000_000u64, 1..20),
    ) {
        let mut sim = Sim::new(1);
        let expected: u64 = durs.iter().sum();
        let seen = Arc::new(Mutex::new(0u64));
        let s = seen.clone();
        sim.spawn("sleeper", move |ctx| {
            for d in durs {
                ctx.sleep(Dur(d));
            }
            *s.lock() = ctx.now().as_nanos();
        });
        sim.run();
        prop_assert_eq!(*seen.lock(), expected);
    }

    /// Channels deliver every message exactly once, in order, regardless of
    /// send timing.
    #[test]
    fn channel_delivers_all_in_order(
        gaps in proptest::collection::vec(0u64..1000u64, 1..40),
    ) {
        let mut sim = Sim::new(1);
        let (tx, rx) = sim.channel::<usize>();
        let n = gaps.len();
        let got = Arc::new(Mutex::new(Vec::new()));
        let g = got.clone();
        sim.spawn("rx", move |ctx| {
            for _ in 0..n {
                if let Some(v) = rx.recv(ctx) {
                    g.lock().push(v);
                }
            }
        });
        sim.spawn("tx", move |ctx| {
            for (i, gap) in gaps.into_iter().enumerate() {
                ctx.sleep(Dur(gap));
                tx.send(ctx, i);
            }
        });
        sim.run();
        let got = got.lock().clone();
        prop_assert_eq!(got, (0..n).collect::<Vec<_>>());
    }
}

/// One step of a generated process.
#[derive(Clone, Debug)]
enum Op {
    /// Sleep this many microseconds.
    Sleep(u64),
    /// Sleep 1–499 µs drawn from the simulation's RNG.
    Jitter,
    /// Send a value on a shared channel.
    Send(usize, u32),
    /// Receive from a shared channel, giving up after this many µs.
    RecvTimeout(usize, u64),
    /// Spawn a child running these steps.
    Spawn(Vec<Op>),
}

const CHANNELS: usize = 3;

fn leaf_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..500).prop_map(Op::Sleep),
        (0u8..1).prop_map(|_| Op::Jitter),
        (0..CHANNELS, any::<u32>()).prop_map(|(c, v)| Op::Send(c, v)),
        (0..CHANNELS, 1u64..500).prop_map(|(c, t)| Op::RecvTimeout(c, t)),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => leaf_op(),
        1 => proptest::collection::vec(leaf_op(), 1..4).prop_map(Op::Spawn),
    ]
}

type StepLog = Arc<Mutex<Vec<(u64, u64, u32)>>>;

/// Run `ops`, logging `(time, pid, step)` after every step.
fn interpret(
    ctx: &dgsf_sim::ProcCtx,
    ops: &[Op],
    chans: &[(SimSender<u32>, SimReceiver<u32>)],
    log: &StepLog,
) {
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Sleep(us) => ctx.sleep(Dur::from_micros(*us)),
            Op::Jitter => ctx.sleep(Dur::from_micros(ctx.with_rng(|r| r.gen_range(1..500)))),
            Op::Send(c, v) => chans[*c].0.send(ctx, *v),
            Op::RecvTimeout(c, us) => {
                let _ = chans[*c].1.recv_timeout(ctx, Dur::from_micros(*us));
            }
            Op::Spawn(child) => {
                let (child, chans, log) = (child.clone(), chans.to_vec(), log.clone());
                ctx.spawn("child", move |c| interpret(c, &child, &chans, &log));
            }
        }
        log.lock()
            .push((ctx.now().as_nanos(), ctx.pid().0, step as u32));
    }
}

/// Run a generated program, stopping at each of `cuts` (ns) before
/// running to the end. Returns the step log and the event count.
fn run_program(programs: &[Vec<Op>], seed: u64, cuts: &[u64]) -> (Vec<(u64, u64, u32)>, u64) {
    let mut sim = Sim::new(seed);
    let chans: Vec<_> = (0..CHANNELS).map(|_| sim.channel::<u32>()).collect();
    let log = StepLog::default();
    for (i, ops) in programs.iter().enumerate() {
        let (ops, chans, log) = (ops.clone(), chans.clone(), log.clone());
        sim.spawn(&format!("p{i}"), move |ctx| {
            interpret(ctx, &ops, &chans, &log)
        });
    }
    for &cut in cuts {
        sim.run_until(SimTime(cut));
    }
    sim.run();
    let executed = sim.events_executed();
    drop(sim);
    let log = log.lock().clone();
    (log, executed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Slicing a run with `run_until` changes nothing: the step log and the
    /// event count equal an unsliced `run()`'s, and repeat at the same seed.
    #[test]
    fn run_until_slices_are_invisible(
        programs in proptest::collection::vec(proptest::collection::vec(op(), 1..8), 1..7),
        cuts in proptest::collection::vec(0u64..3_000_000, 0..6),
        seed in any::<u64>(),
    ) {
        let mut cuts = cuts;
        cuts.sort_unstable();
        let whole = run_program(&programs, seed, &[]);
        prop_assert_eq!(&run_program(&programs, seed, &cuts), &whole);
        prop_assert_eq!(&run_program(&programs, seed, &[]), &whole);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Percentiles are monotone in q, and every percentile of a sample lies
    /// between its min and max; the summary's own p50 ≤ p95 ≤ p99 chain
    /// holds too.
    #[test]
    fn percentiles_monotone_and_bounded(
        samples in proptest::collection::vec(-1e6f64..1e6, 1..60),
        qa in 0.0f64..1.0,
        qb in 0.0f64..1.0,
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let (lo, hi) = if qa <= qb { (qa, qb) } else { (qb, qa) };
        prop_assert!(percentile_sorted(&sorted, lo) <= percentile_sorted(&sorted, hi));
        let s = Summary::from(&samples);
        prop_assert!(s.min <= s.p50 && s.p50 <= s.p95 && s.p95 <= s.p99 && s.p99 <= s.max);
        for q in [0.0, lo, hi, 1.0] {
            let p = percentile_sorted(&sorted, q);
            prop_assert!(s.min <= p && p <= s.max, "p({q}) = {p} outside [{}, {}]", s.min, s.max);
        }
    }

    /// Nearest-rank semantics, robust to ties: the percentile is a member
    /// of the sample, at least ⌈q·n⌉ samples are ≤ it, and fewer than
    /// ⌈q·n⌉ are strictly below it. The narrow value range makes heavy
    /// ties the common case.
    #[test]
    fn percentile_is_nearest_rank(
        values in proptest::collection::vec(0u32..20, 1..60),
        q in 0.0f64..1.0,
    ) {
        let mut sorted: Vec<f64> = values.iter().map(|&x| f64::from(x)).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let p = percentile_sorted(&sorted, q);
        let n = sorted.len();
        let rank = ((n as f64 * q).ceil() as usize).clamp(1, n);
        prop_assert!(sorted.contains(&p), "percentile must be a sample member");
        let le = sorted.iter().filter(|&&x| x <= p).count();
        let lt = sorted.iter().filter(|&&x| x < p).count();
        prop_assert!(le >= rank, "only {le} samples ≤ {p}, need ≥ {rank}");
        prop_assert!(lt < rank, "{lt} samples < {p}, must be < {rank}");
    }

    /// The integer percentile agrees with the f64 one on random sorted
    /// samples. The compared `q` is a multiple of 1/16 so that `n·q` is
    /// exact in f64 as well; for any permyriad `q`, the result is the
    /// sample with at least ⌈n·q⌉ samples at or below it and fewer
    /// strictly below.
    #[test]
    fn integer_percentile_matches_f64_nearest_rank(
        values in proptest::collection::vec(0u64..1_000, 1..200),
        sixteenths in 0u64..17,
        q in 0u64..10_001,
    ) {
        let mut sorted = values;
        sorted.sort_unstable();
        let as_f64: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
        prop_assert_eq!(
            percentile(&sorted, sixteenths * 625) as f64,
            percentile_sorted(&as_f64, sixteenths as f64 / 16.0)
        );
        let p = percentile(&sorted, q);
        let need = (sorted.len() as u64 * q).div_ceil(10_000).max(1);
        let le = sorted.iter().filter(|&&x| x <= p).count() as u64;
        let lt = sorted.iter().filter(|&&x| x < p).count() as u64;
        prop_assert!(le >= need, "only {le} samples ≤ {p}, need ≥ {need}");
        prop_assert!(lt < need, "{lt} samples < {p}, must be < {need}");
    }

    /// A single-sample summary collapses to that sample everywhere, and
    /// every percentile of a singleton is the sample itself.
    #[test]
    fn single_sample_summary_collapses(x in -1e6f64..1e6) {
        let s = Summary::from(&[x]);
        prop_assert_eq!(s.n, 1);
        for v in [s.mean, s.min, s.max, s.p50, s.p95, s.p99, s.sum] {
            prop_assert_eq!(v, x);
        }
        prop_assert_eq!(s.std, 0.0);
        for q in [0.0, 0.25, 0.5, 1.0] {
            prop_assert_eq!(percentile_sorted(&[x], q), x);
        }
    }
}

#[test]
fn utilization_samples_are_bounded() {
    let mut sim = Sim::new(1);
    let r = Arc::new(GpsResource::new(&sim, 1.0));
    for i in 0..3 {
        let r = r.clone();
        sim.spawn_at(
            &format!("j{i}"),
            SimTime(i as u64 * 500_000_000),
            move |ctx| {
                r.acquire(ctx, 0.7);
            },
        );
    }
    let end = sim.run();
    r.with_timeline(|tl| {
        for s in tl.utilization_samples(SimTime::ZERO, end, Dur::from_millis(200)) {
            assert!((0.0..=1.0 + 1e-9).contains(&s), "utilization in [0,1]: {s}");
        }
    });
}

#[test]
fn timeline_active_at_and_avg_active() {
    use dgsf_sim::Dur;
    let mut sim = Sim::new(2);
    let r = Arc::new(GpsResource::new(&sim, 1.0));
    // two overlapping jobs: [0,2] and [1,2] in arrival terms
    {
        let r = r.clone();
        sim.spawn("a", move |ctx| r.acquire(ctx, 1.5));
    }
    {
        let r = r.clone();
        sim.spawn_at("b", SimTime(1_000_000_000), move |ctx| r.acquire(ctx, 0.25));
    }
    sim.run();
    r.with_timeline(|tl| {
        // at t=0.5s exactly one job is active
        assert_eq!(tl.active_at(SimTime(500_000_000)), 1);
        // at t=1.2s both are active
        assert_eq!(tl.active_at(SimTime(1_200_000_000)), 2);
        // before anything started
        assert!(tl.active_at(SimTime(0)) >= 1); // job a starts at t=0
        let avg = tl.avg_active(SimTime::ZERO, SimTime::ZERO + Dur::from_secs(2));
        assert!(
            avg > 0.9 && avg < 2.0,
            "time-weighted mean in (0.9,2): {avg}"
        );
        assert!(!tl.is_empty());
        assert!(tl.len() >= 2);
    });
}

#[test]
fn busy_between_is_additive_over_adjacent_windows() {
    use dgsf_sim::Dur;
    let mut sim = Sim::new(3);
    let r = Arc::new(GpsResource::new(&sim, 1.0));
    for i in 0..4u64 {
        let r = r.clone();
        sim.spawn_at(&format!("j{i}"), SimTime(i * 700_000_000), move |ctx| {
            r.acquire(ctx, 0.3);
        });
    }
    let end = sim.run();
    r.with_timeline(|tl| {
        let whole = tl.busy_between(SimTime::ZERO, end).as_nanos();
        let mid = SimTime(end.as_nanos() / 2);
        let a = tl.busy_between(SimTime::ZERO, mid).as_nanos();
        let b = tl.busy_between(mid, end).as_nanos();
        assert_eq!(a + b, whole, "busy time must be additive over a split");
        // utilization samples cover the window and sum to the busy total
        let samples = tl.utilization_samples(SimTime::ZERO, end, Dur::from_millis(100));
        let from_samples: f64 = samples.iter().sum::<f64>() * 0.1;
        assert!(
            (from_samples - whole as f64 / 1e9).abs() < 0.11,
            "sampled busy {from_samples} vs exact {}",
            whole as f64 / 1e9
        );
    });
}
