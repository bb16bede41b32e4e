//! Property-based tests for E2SF and DSFA invariants.

use ev_core::event::{Event, Polarity, SensorGeometry};
use ev_core::stream::EventSlice;
use ev_core::time::{TimeDelta, TimeWindow, Timestamp};
use ev_edge::dsfa::{CMode, Dsfa, DsfaConfig, MergedFrame};
use ev_edge::e2sf::{E2sf, E2sfConfig, E2sfScratch, FrameRepresentation};
use ev_edge::frame::SparseFrame;
use ev_sparse::coo::{SparseEntry, SparseTensor};
use proptest::prelude::*;
use std::collections::BTreeMap;

const W: u16 = 24;
const H: u16 = 20;

fn arb_events(max: usize) -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (0..W, 0..H, 0u64..20_000, any::<bool>()).prop_map(|(x, y, t, p)| {
            Event::new(x, y, Timestamp::from_micros(t), Polarity::from_bit(p))
        }),
        0..max,
    )
}

fn make_slice(mut events: Vec<Event>) -> EventSlice {
    events.sort_by_key(|e| e.t);
    EventSlice::new(SensorGeometry::new(W as u32, H as u32), events).expect("bounded events")
}

/// E2SF spelled out bin by bin (paper §4.1): bin `k` takes the
/// in-interval events whose clamped `EBk = min(floor((tk − Tstart) /
/// biS), nB − 1)` is `k`, and `SparseTensor::from_entries` builds its
/// frame from one `1.0` per event in its polarity's count channel plus,
/// for the timestamp surfaces, the normalized time of the latest event
/// of each polarity at each pixel.
fn reference_frames(
    events: &EventSlice,
    interval: TimeWindow,
    nb: usize,
    representation: FrameRepresentation,
) -> Vec<SparseFrame> {
    let geometry = events.geometry();
    let bis = interval.duration().as_micros() as u64 / nb as u64;
    let bin_of = |ev: &Event| {
        (((ev.t.as_micros() - interval.start().as_micros()) / bis) as usize).min(nb - 1)
    };
    let in_interval: Vec<&Event> = events.iter().filter(|ev| interval.contains(ev.t)).collect();
    interval
        .split(nb)
        .into_iter()
        .enumerate()
        .map(|(k, bin)| {
            let in_bin: Vec<&Event> = in_interval
                .iter()
                .copied()
                .filter(|ev| bin_of(ev) == k)
                .collect();
            let mut entries: Vec<SparseEntry> = in_bin
                .iter()
                .map(|ev| {
                    let channel = ev.polarity.channel() as u32;
                    SparseEntry::new(channel, u32::from(ev.y), u32::from(ev.x), 1.0)
                })
                .collect();
            if representation == FrameRepresentation::CountsAndTimestamps {
                let mut latest = BTreeMap::new();
                for ev in &in_bin {
                    let since = (ev.t.as_micros() - bin.start().as_micros()) as f64;
                    let frac = (since + 1.0) / bin.duration().as_micros() as f64;
                    let channel = 2 + ev.polarity.channel() as u32;
                    latest.insert((channel, ev.y, ev.x), frac.min(1.0) as f32);
                }
                entries.extend(latest.into_iter().map(|((channel, y, x), value)| {
                    SparseEntry::new(channel, u32::from(y), u32::from(x), value)
                }));
            }
            let tensor = SparseTensor::from_entries(
                representation.channels(),
                geometry.height as usize,
                geometry.width as usize,
                entries,
            )
            .expect("events lie on the sensor");
            SparseFrame::new(tensor, bin, in_bin.len())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// E2SF equals the naive per-bin reference, for both representations
    /// and every `nB` in 1..16, on intervals `nB` need not divide (the
    /// clamped last bin absorbs the remainder). One scratch serves every
    /// conversion while sensor size, channel count (2 and 4 alternate),
    /// `nB` and interval change under it.
    #[test]
    fn e2sf_matches_naive_per_bin_reference(
        conversions in prop::collection::vec(
            (
                (1u32..40, 1u32..30),
                1usize..16,
                (0u64..3_000, 1u64..1_500, 0u64..16),
                prop::collection::vec(
                    (0u32..1_000, 0u32..1_000, 0u64..26_000, any::<bool>()),
                    0..300,
                ),
            ),
            1..6,
        ),
        timestamps_first in any::<bool>(),
    ) {
        let mut scratch = E2sfScratch::new();
        for (i, ((w, h), nb, (start, quotient, remainder), raw)) in
            conversions.into_iter().enumerate()
        {
            let mut events: Vec<Event> = raw
                .into_iter()
                .map(|(x, y, t, p)| {
                    let (x, y) = ((x % w) as u16, (y % h) as u16);
                    Event::new(x, y, Timestamp::from_micros(t), Polarity::from_bit(p))
                })
                .collect();
            events.sort_by_key(|e| e.t);
            let slice = EventSlice::new(SensorGeometry::new(w, h), events)
                .expect("events lie on the sensor");
            let len = nb as u64 * quotient + remainder % nb as u64;
            let interval = TimeWindow::new(
                Timestamp::from_micros(start),
                Timestamp::from_micros(start + len),
            );
            let representation = if (i % 2 == 0) == timestamps_first {
                FrameRepresentation::CountsAndTimestamps
            } else {
                FrameRepresentation::PolarityCounts
            };
            let frames = E2sf::new(E2sfConfig::new(nb).with_representation(representation))
                .convert_with(&slice, interval, &mut scratch)
                .expect("interval spans at least nB microseconds");
            prop_assert_eq!(frames, reference_frames(&slice, interval, nb, representation));
        }
    }

    /// Equation 1 conservation: every in-window event lands in exactly one
    /// bin, and per-pixel polarity counts survive the conversion.
    #[test]
    fn e2sf_conserves_events(events in arb_events(300), bins in 1usize..16) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let frames = E2sf::new(E2sfConfig::new(bins))
            .convert(&slice, window)
            .expect("interval long enough");
        prop_assert_eq!(frames.len(), bins);
        let total: usize = frames.iter().map(|f| f.event_count()).sum();
        prop_assert_eq!(total, slice.len());
        // Value conservation: summed ON (channel 0) values equal ON count.
        let on_total: f32 = frames
            .iter()
            .flat_map(|f| f.tensor().iter())
            .filter(|e| e.channel == 0)
            .map(|e| e.value)
            .sum();
        let (on_events, _) = slice.polarity_counts();
        prop_assert!((on_total - on_events as f32).abs() < 1e-3);
    }

    /// Frame windows tile the interval exactly, in order.
    #[test]
    fn e2sf_windows_tile(bins in 1usize..12, span_ms in 2i64..40) {
        let slice = make_slice(vec![]);
        let window = TimeWindow::new(
            Timestamp::from_millis(3),
            Timestamp::from_millis(3) + TimeDelta::from_millis(span_ms),
        );
        let frames = E2sf::new(E2sfConfig::new(bins))
            .convert(&slice, window)
            .expect("interval long enough");
        prop_assert_eq!(frames[0].window().start(), window.start());
        prop_assert_eq!(frames.last().expect("nonempty").window().end(), window.end());
        for pair in frames.windows(2) {
            prop_assert_eq!(pair[0].window().end(), pair[1].window().start());
        }
    }

    /// DSFA never loses or duplicates an event, whatever the thresholds.
    #[test]
    fn dsfa_conserves_events(
        events in arb_events(400),
        mb_size in 1usize..6,
        mt_ms in 1i64..30,
        md in 0.01f64..4.0,
        mode in 0usize..3,
    ) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let frames = E2sf::new(E2sfConfig::new(8))
            .convert(&slice, window)
            .expect("interval long enough");
        let cmode = [CMode::CAdd, CMode::CAverage, CMode::CBatch][mode];
        let config = DsfaConfig {
            ebuf_size: mb_size * 2,
            mb_size,
            mt_th: TimeDelta::from_millis(mt_ms),
            md_th: md,
            cmode,
        };
        let mut dsfa = Dsfa::new(config).expect("valid config");
        let mut merged: Vec<SparseFrame> = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
                merged.extend(batch.frames.into_iter().map(|m| m.frame));
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            merged.extend(batch.frames.into_iter().map(|m| m.frame));
        }
        let total: usize = merged.iter().map(|f| f.event_count()).sum();
        prop_assert_eq!(total, slice.len(), "event count conserved");
        prop_assert_eq!(dsfa.occupancy(), 0, "everything dispatched");
        // cAdd conserves summed values too.
        if cmode == CMode::CAdd {
            let merged_sum: f32 = merged
                .iter()
                .flat_map(|f| f.tensor().iter())
                .map(|e| e.value)
                .sum();
            prop_assert!((merged_sum - slice.len() as f32).abs() < 1e-2);
        }
    }

    /// The preallocated flat-arena fast path is observationally
    /// identical to a fresh conversion: one scratch reused across
    /// arbitrary event batches and bin counts yields exactly the frames
    /// `convert` builds from a cold arena.
    #[test]
    fn e2sf_scratch_reuse_matches_fresh(
        batches in prop::collection::vec((arb_events(250), 1usize..12), 1..4),
    ) {
        let mut scratch = E2sfScratch::new();
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        for (events, bins) in batches {
            let slice = make_slice(events);
            let e2sf = E2sf::new(E2sfConfig::new(bins));
            let fresh = e2sf.convert(&slice, window).expect("interval long enough");
            let reused = e2sf
                .convert_with(&slice, window, &mut scratch)
                .expect("interval long enough");
            prop_assert_eq!(fresh, reused);
        }
    }

    /// The lazy incremental merge reproduces the dispatch-time fold it
    /// replaced: each merged frame's tensor is exactly the left fold of
    /// its constituent input frames under the combination mode. Buckets
    /// fill strictly in arrival order (every rejected probe closes the
    /// bucket, so at most one bucket is ever available), which lets the
    /// reference walk consume `merged_count` inputs per merged frame.
    #[test]
    fn dsfa_lazy_merge_matches_reference_fold(
        events in arb_events(400),
        mb_size in 1usize..6,
        mt_ms in 1i64..30,
        md in 0.01f64..4.0,
        average in any::<bool>(),
    ) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let inputs = E2sf::new(E2sfConfig::new(8))
            .convert(&slice, window)
            .expect("interval long enough");
        let config = DsfaConfig {
            ebuf_size: mb_size * 2,
            mb_size,
            mt_th: TimeDelta::from_millis(mt_ms),
            md_th: md,
            cmode: if average { CMode::CAverage } else { CMode::CAdd },
        };
        let mut dsfa = Dsfa::new(config).expect("valid config");
        let mut merged: Vec<MergedFrame> = Vec::new();
        for frame in inputs.clone() {
            if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
                merged.extend(batch.frames);
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            merged.extend(batch.frames);
        }
        let mut next = 0usize;
        for m in &merged {
            let sources = &inputs[next..next + m.merged_count];
            next += m.merged_count;
            let mut reference = sources[0].tensor().clone();
            for s in &sources[1..] {
                reference = reference.add(s.tensor()).expect("same geometry");
            }
            if average {
                reference.scale(1.0 / m.merged_count as f32);
            }
            prop_assert_eq!(m.frame.tensor(), &reference);
        }
        prop_assert_eq!(next, inputs.len(), "every input frame accounted for");
    }

    /// Merged frame windows cover their constituent frames and never
    /// exceed the configured time threshold + one frame duration.
    #[test]
    fn dsfa_bucket_time_bound(events in arb_events(300), mt_ms in 1i64..10) {
        let slice = make_slice(events);
        let window = TimeWindow::new(Timestamp::ZERO, Timestamp::from_micros(20_000));
        let frames = E2sf::new(E2sfConfig::new(10))
            .convert(&slice, window)
            .expect("interval long enough");
        let frame_duration = frames[0].window().duration();
        let config = DsfaConfig {
            ebuf_size: 16,
            mb_size: 8,
            mt_th: TimeDelta::from_millis(mt_ms),
            md_th: 100.0, // density never closes buckets
            cmode: CMode::CAdd,
        };
        let mut dsfa = Dsfa::new(config).expect("valid config");
        let mut merged = Vec::new();
        for frame in frames {
            if let Some(batch) = dsfa.push(frame).expect("push succeeds") {
                merged.extend(batch.frames);
            }
        }
        if let Some(batch) = dsfa.flush(window.end()) {
            merged.extend(batch.frames);
        }
        for m in &merged {
            // A bucket accepts frames whose start is within MtTh of its
            // earliest start, so its window spans at most MtTh + one frame.
            let span = m.frame.window().duration();
            let bound = TimeDelta::from_millis(mt_ms) + frame_duration;
            prop_assert!(
                span <= bound,
                "merged span {span} exceeds bound {bound}"
            );
        }
    }
}
