//! Edge cases of the tracer's request matching, driven through the
//! [`IoHooks`] calls directly so every timestamp is exact: tags far from
//! zero, many requests in flight on one rank, a tag resubmitted while its
//! request is still open, and the `LastWait` window end.

use mpisim::{Channel, IoHooks, Limits, ReqTag};
use simcore::SimTime;
use tmio::{AsyncSpan, Report, TeMode, Tracer, TracerConfig};

fn t(s: f64) -> SimTime {
    SimTime::from_secs(s)
}

/// A one-rank trace-only tracer and its limits table.
fn tracer(te_mode: TeMode) -> (Tracer, Limits) {
    let mut cfg = TracerConfig::trace_only();
    cfg.te_mode = te_mode;
    (Tracer::new(1, cfg), Limits::new(1, false))
}

fn submit(tr: &mut Tracer, l: &mut Limits, at: f64, tag: u32, bytes: f64) {
    tr.on_async_submit(t(at), 0, ReqTag(tag), bytes, Channel::Write, l);
}

fn complete(tr: &mut Tracer, at: f64, tag: u32) {
    tr.on_request_complete(t(at), 0, ReqTag(tag));
}

fn wait(tr: &mut Tracer, l: &mut Limits, at: f64, tag: u32) {
    tr.on_wait_enter(t(at), 0, ReqTag(tag), false, l);
}

/// The report's spans as `(submit, complete, wait_enter, bytes)`.
fn spans(r: &Report) -> Vec<(f64, f64, f64, f64)> {
    r.spans
        .iter()
        .map(|s: &AsyncSpan| (s.submit, s.complete, s.wait_enter, s.bytes))
        .collect()
}

#[test]
fn tags_far_from_zero_match_their_requests() {
    let (mut tr, mut l) = tracer(TeMode::FirstWait);
    let tags = [4095, 4096, 4097, 1 << 20, u32::MAX - 1, u32::MAX];
    for (i, &tag) in tags.iter().enumerate() {
        submit(&mut tr, &mut l, i as f64, tag, 100.0 + i as f64);
    }
    // Complete and wait in the reverse order of submission.
    for (i, &tag) in tags.iter().enumerate().rev() {
        complete(&mut tr, 10.0 + i as f64, tag);
        wait(&mut tr, &mut l, 20.0 + i as f64, tag);
    }
    let r = tr.into_report();
    let want: Vec<_> = (0..tags.len())
        .rev()
        .map(|i| {
            let i = i as f64;
            (i, 10.0 + i, 20.0 + i, 100.0 + i)
        })
        .collect();
    assert_eq!(spans(&r), want);
    assert_eq!(r.windows.len(), 1);
    assert_eq!(r.windows[0].end, 10.0);
}

#[test]
fn sixty_four_requests_in_flight_on_one_rank() {
    let (mut tr, mut l) = tracer(TeMode::FirstWait);
    let n = 64u32;
    // Scattered tags; bytes identify the request.
    let tag = |i: u32| i.wrapping_mul(2_654_435_761);
    for i in 0..n {
        submit(&mut tr, &mut l, f64::from(i), tag(i), f64::from(i + 1));
    }
    // Completions in reverse order, waits in an interleaved order.
    for i in (0..n).rev() {
        complete(&mut tr, 100.0 + f64::from(n - i), tag(i));
    }
    let order: Vec<u32> = (0..n).map(|k| (k * 37) % n).collect();
    for (k, &i) in order.iter().enumerate() {
        wait(&mut tr, &mut l, 200.0 + k as f64, tag(i));
    }
    let r = tr.into_report();
    let want: Vec<_> = order
        .iter()
        .enumerate()
        .map(|(k, &i)| {
            (
                f64::from(i),
                100.0 + f64::from(n - i),
                200.0 + k as f64,
                f64::from(i + 1),
            )
        })
        .collect();
    assert_eq!(spans(&r), want);
    // One throughput window over all 64, closed by the last completion.
    assert_eq!(r.windows.len(), 1);
    assert_eq!(r.windows[0].start, 0.0);
    assert_eq!(r.windows[0].end, 164.0);
    assert_eq!(r.windows[0].bytes, f64::from(n * (n + 1) / 2));
    // The first wait is on request 0, the first queued: it closes the phase
    // over all 64 requests.
    assert_eq!(r.phases.len(), 1);
    assert_eq!(r.phases[0].n_requests, 64);
    assert_eq!(r.phases[0].te, 200.0);
}

#[test]
fn resubmitted_tag_displaces_its_open_request_unrecorded() {
    let (mut tr, mut l) = tracer(TeMode::FirstWait);
    submit(&mut tr, &mut l, 0.0, 3, 1.0);
    submit(&mut tr, &mut l, 1.0, 3, 2.0);
    // Tag 3 now names the second request only.
    complete(&mut tr, 2.0, 3);
    wait(&mut tr, &mut l, 3.0, 3);
    // The displaced request's completion finds no open request.
    complete(&mut tr, 4.0, 3);
    let r = tr.into_report();
    assert_eq!(spans(&r), vec![(1.0, 2.0, 3.0, 2.0)]);
    // Both requests stay in the bandwidth and throughput queues.
    assert_eq!(r.phases.len(), 1);
    assert_eq!(r.phases[0].n_requests, 2);
    assert_eq!(r.phases[0].bytes, 3.0);
    assert_eq!(r.phases[0].b_required, 1.0 / 3.0 + 2.0 / 2.0);
    assert_eq!(r.windows.len(), 1);
    assert_eq!((r.windows[0].end, r.windows[0].bytes), (4.0, 3.0));
}

#[test]
fn last_wait_closes_the_phase_at_the_last_queued_wait() {
    for (mode, te) in [(TeMode::FirstWait, 3.0), (TeMode::LastWait, 5.0)] {
        let (mut tr, mut l) = tracer(mode);
        submit(&mut tr, &mut l, 0.0, 1, 6.0);
        submit(&mut tr, &mut l, 1.0, 2, 8.0);
        complete(&mut tr, 2.0, 1);
        complete(&mut tr, 2.5, 2);
        wait(&mut tr, &mut l, 3.0, 1);
        wait(&mut tr, &mut l, 5.0, 2);
        // A wait on a tag outside the queue closes nothing.
        wait(&mut tr, &mut l, 6.0, 9);
        let r = tr.into_report();
        assert_eq!(r.phases.len(), 1, "{mode:?}");
        let p = &r.phases[0];
        assert_eq!((p.ts, p.te, p.n_requests), (0.0, te, 2), "{mode:?}");
        assert_eq!(p.b_required, 6.0 / te + 8.0 / (te - 1.0), "{mode:?}");
        assert_eq!(
            spans(&r),
            vec![(0.0, 2.0, 3.0, 6.0), (1.0, 2.5, 5.0, 8.0)],
            "{mode:?}"
        );
    }
}

#[test]
fn last_wait_ignores_a_repeated_wait_until_every_request_is_waited() {
    let (mut tr, mut l) = tracer(TeMode::LastWait);
    submit(&mut tr, &mut l, 0.0, 1, 1.0);
    submit(&mut tr, &mut l, 0.0, 2, 1.0);
    wait(&mut tr, &mut l, 1.0, 1);
    wait(&mut tr, &mut l, 2.0, 1);
    assert!(tr.into_report().phases.is_empty());
}
