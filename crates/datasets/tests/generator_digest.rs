//! Pins the synthetic event streams byte for byte.
//!
//! Every figure, golden and benchmark digest downstream starts from
//! `Sequence::generate`, so any change to the generator's output —
//! event order included — must show up here first. Each case hashes
//! `x, y, t, polarity` of every event (FNV-1a, 64-bit) and compares the
//! hash and the event count with the values the generator produced
//! before its tick-local sort replaced the global one.

use ev_core::event::Polarity;
use ev_core::time::{TimeWindow, Timestamp};
use ev_datasets::mvsec::SequenceId;

/// FNV-1a over each event's `x, y, t` (little-endian) and polarity bit.
fn digest(id: SequenceId, seed_xor: u64, window: TimeWindow) -> (usize, u64) {
    let mut sequence = id.sequence();
    sequence.seed ^= seed_xor;
    let events = sequence.generate(window).expect("generation succeeds");
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for ev in events.iter() {
        let on = u8::from(ev.polarity == Polarity::On);
        let bytes =
            ev.x.to_le_bytes()
                .into_iter()
                .chain(ev.y.to_le_bytes())
                .chain(ev.t.as_micros().to_le_bytes())
                .chain([on]);
        for byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (events.len(), hash)
}

fn check(seed_xor: u64, window: TimeWindow, expected: [(usize, u64); 6]) {
    for (id, want) in SequenceId::ALL.into_iter().zip(expected) {
        let got = digest(id, seed_xor, window);
        assert_eq!(got, want, "{id} at seed ^ {seed_xor} over {window}");
    }
}

fn window_us(start: u64, end: u64) -> TimeWindow {
    TimeWindow::new(Timestamp::from_micros(start), Timestamp::from_micros(end))
}

#[test]
fn sequences_match_recorded_digests_at_shipped_seed() {
    check(
        0,
        window_us(0, 120_000),
        [
            (161_967, 0x996b_9c45_3c0c_1d00),
            (121_784, 0x57e6_08fa_fed7_3139),
            (21_656, 0x7945_b1ea_3220_176f),
            (57_167, 0xbeb3_02f3_e9e0_7fce),
            (10_805, 0x4b6b_1174_e0fe_dbc6),
            (45_011, 0x4121_2c7e_db2e_e1e2),
        ],
    );
}

#[test]
fn sequences_match_recorded_digests_at_flipped_seed() {
    check(
        1,
        window_us(0, 120_000),
        [
            (162_101, 0xce69_2802_022d_95f0),
            (121_371, 0xfc76_ca51_9f18_9c54),
            (21_763, 0x2f2b_015d_311f_83ea),
            (57_521, 0x6044_8587_be24_84a0),
            (10_822, 0x3d00_aaa5_9aa9_aab1),
            (45_001, 0x471f_56ec_1d28_e007),
        ],
    );
}

#[test]
fn sequences_match_recorded_digests_on_unaligned_window() {
    check(
        0,
        window_us(300, 7_700),
        [
            (11_738, 0xf635_c2de_c311_5620),
            (8_182, 0xc899_4b86_4eb8_4526),
            (1_107, 0x52ff_a7f5_7bb9_5267),
            (3_151, 0x1698_1b63_e012_c5ab),
            (658, 0x7652_e29f_df45_d741),
            (2_237, 0x5f9f_5804_23a0_9d51),
        ],
    );
}
