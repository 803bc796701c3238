//! Property-based tests of the v2 codec: sparse grids, ack-gated delta
//! chains, and the equivalence guarantees the compression rests on.
//!
//! The contract under test: however the encoder chooses to represent a
//! snapshot (dense, sparse, keyframe, delta), whatever intervals get
//! dropped before the receiver acks, and wherever keyframe boundaries
//! fall, the receiver reconstructs the **exact** `IntervalSnapshot` —
//! so detection over a v2 stream is alert-for-alert identical to
//! detection over the recorded snapshots themselves — and any
//! corruption dies as a typed error, never a panic or a silently wrong
//! snapshot.

use hifind::pipeline::DetectionCore;
use hifind::{HiFindConfig, SketchRecorder};
use hifind_collect::codec_v2::{ChainStore, SnapshotEncoder};
use hifind_collect::wire;
use hifind_flow::rng::SplitMix64;
use hifind_flow::{Ip4, Packet};
use proptest::prelude::*;

/// Records a seed-derived packet mix for one interval into `rec`.
fn record_interval(rec: &mut SketchRecorder, rng: &mut SplitMix64, packets: u32) {
    for _ in 0..packets {
        let src = Ip4::new(rng.next_u32());
        let dst = Ip4::new(0x8169_0000 | (rng.next_u32() & 0xFF));
        let sport = 1024 + (rng.next_u32() % 60000) as u16;
        let dport = [80u16, 443, 22, 445][(rng.next_u32() % 4) as usize];
        let ts = rng.next_u64() % 10_000;
        match rng.next_u32() % 8 {
            0 => rec.record(&Packet::syn_ack(ts, dst, dport, src, sport)),
            1 => rec.record(&Packet::fin(ts, src, sport, dst, dport)),
            _ => rec.record(&Packet::syn(ts, src, sport, dst, dport)),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A lossy, laggy delivery schedule — arbitrary drops, arbitrary
    /// keyframe cadence — still reconstructs every *delivered* interval
    /// byte-exactly. The ack gate is what makes this hold: a delta is
    /// only ever encoded against a baseline the receiver proved it has.
    #[test]
    fn chain_reconstruction_is_exact_under_drops(
        seed in any::<u64>(),
        keyframe_every in 0u32..6,
        drop_mask in any::<u32>(),
        intervals in 2u64..10,
    ) {
        let cfg = HiFindConfig::small(42);
        let mut rng = SplitMix64::new(seed);
        let mut rec = SketchRecorder::new(&cfg).expect("small config");
        let mut enc = SnapshotEncoder::new(keyframe_every);
        let mut chains = ChainStore::new();
        let mut acked: Option<u64> = None;
        let mut delivered = 0u32;
        for interval in 0..intervals {
            let packets = 40 + (rng.next_u32() % 120);
            record_interval(&mut rec, &mut rng, packets);
            let snap = rec.take_snapshot();
            let encoded = enc.encode(interval, &snap, acked);
            // A dropped frame never reaches the chain store and never
            // advances the ack watermark; the encoder must recover by
            // keyframing on its own.
            if drop_mask & (1 << (interval % 32)) != 0 {
                continue;
            }
            let decoded = chains
                .decode(7, interval, &encoded.payload)
                .expect("an ack-gated frame is always decodable");
            prop_assert_eq!(decoded.was_delta, encoded.is_delta);
            prop_assert_eq!(&decoded.snapshot, &snap, "interval {}", interval);
            acked = Some(interval);
            delivered += 1;
        }
        prop_assert!(delivered > 0 || drop_mask != 0);
    }

    /// Every single-byte flip of a framed v2 keyframe or delta either
    /// fails typed or — only for unauthenticated header metadata
    /// (router id, interval) — decodes to the exact original snapshot.
    /// Nothing panics, nothing misdecodes.
    #[test]
    fn v2_single_byte_corruption_is_typed_or_harmless(
        seed in any::<u64>(),
        pos_pick in any::<u64>(),
        mask in 1u8..=255,
        corrupt_delta in any::<bool>(),
    ) {
        let cfg = HiFindConfig::small(42);
        let mut rng = SplitMix64::new(seed);
        let mut rec = SketchRecorder::new(&cfg).expect("small config");
        let mut enc = SnapshotEncoder::new(8);
        let mut chains = ChainStore::new();

        record_interval(&mut rec, &mut rng, 150);
        let base = rec.take_snapshot();
        let e0 = enc.encode(0, &base, None);
        chains.decode(7, 0, &e0.payload).expect("keyframe decodes");

        record_interval(&mut rec, &mut rng, 60);
        let snap = rec.take_snapshot();
        let e1 = enc.encode(1, &snap, Some(0));
        prop_assert!(e1.is_delta, "an acked successor should delta");

        let (interval, target, payload) = if corrupt_delta {
            (1u64, &snap, &e1.payload)
        } else {
            (0u64, &base, &e0.payload)
        };
        let mut frame =
            wire::encode_frame_v2(7, interval, target.fingerprint, payload).expect("framable");
        let pos = (pos_pick % frame.len() as u64) as usize;
        frame[pos] ^= mask;

        let outcome = wire::parse_header(
            &<[u8; wire::HEADER_LEN]>::try_from(&frame[..wire::HEADER_LEN]).unwrap(),
            wire::DEFAULT_MAX_PAYLOAD,
        )
        .and_then(|header| {
            let mut fresh = ChainStore::new();
            // Replay the intact predecessor so a corrupted delta is
            // judged against a valid baseline, not a missing one.
            if corrupt_delta {
                fresh.decode(7, 0, &e0.payload).expect("keyframe decodes");
            }
            wire::decode_payload_v2(&header, &frame[wire::HEADER_LEN..], &mut fresh)
        });
        // An Err outcome is typed by construction; the assertion there is
        // simply "no panic".
        if let Ok((decoded, _)) = outcome {
            prop_assert!(
                (8..20).contains(&pos),
                "flip at {} outside unauthenticated header metadata was accepted",
                pos
            );
            prop_assert_eq!(&decoded, target);
        }
    }
}

/// The headline equivalence claim: a detection core fed through a v2
/// delta chain (with a mid-run receiver restart forcing recovery)
/// produces a checkpoint — alerts, forecaster state, streaks, all of it —
/// identical to one fed the original in-memory snapshots.
#[test]
fn detection_over_v2_chain_is_alert_identical_to_v1() {
    let cfg = HiFindConfig::small(50);
    let mut rec = SketchRecorder::new(&cfg).unwrap();
    let mut core_ref = DetectionCore::new(cfg).unwrap();
    let mut core_v2 = DetectionCore::new(cfg).unwrap();
    let mut enc = SnapshotEncoder::new(4);
    let mut chains = ChainStore::new();
    let mut acked: Option<u64> = None;
    let victim: Ip4 = [129, 105, 0, 1].into();
    for iv in 0..8u64 {
        // Benign background plus, from interval 2 on, a SYN flood big
        // enough to alert — the exact signal that must survive v2.
        for i in 0..25u32 {
            let c: Ip4 = [9, 9, 9, (i % 100) as u8].into();
            rec.record(&Packet::syn(iv, c, 4000 + i as u16, victim, 80));
            rec.record(&Packet::syn_ack(iv, c, 4000 + i as u16, victim, 80));
        }
        if iv >= 2 {
            for i in 0..300u32 {
                rec.record(&Packet::syn(
                    iv,
                    Ip4::new(0x5000_0000 + i),
                    2000,
                    victim,
                    80,
                ));
            }
        }
        let snap = rec.take_snapshot();

        // v2 path: ack-gated chain, with the receiver losing its entire
        // chain state mid-run (a collector restart) at interval 5.
        if iv == 5 {
            chains = ChainStore::new();
            acked = None;
            enc.reset();
        }
        let encoded = enc.encode(iv, &snap, acked);
        let via_v2 = chains.decode(3, iv, &encoded.payload).unwrap().snapshot;
        acked = Some(iv);

        assert_eq!(
            snap, via_v2,
            "interval {iv} diverged from the recorded snapshot"
        );
        core_ref.process_snapshot(&snap);
        core_v2.process_snapshot(&via_v2);
    }
    let ck1 = core_ref.checkpoint();
    let ck2 = core_v2.checkpoint();
    assert!(
        !ck1.final_alerts.is_empty(),
        "the flood must actually alert for the equivalence to mean anything"
    );
    assert_eq!(
        ck1, ck2,
        "detection over v2 must be alert-for-alert identical to in-memory detection"
    );
}

/// An interval snapshot is cheap on the wire in v2: the steady-state
/// delta for a quiet interval must be far below the dense encoding of
/// the same snapshot (the multi_router bench records the measured ratio).
#[test]
fn quiet_interval_deltas_are_tiny_next_to_v1() {
    let cfg = HiFindConfig::small(51);
    let mut rec = SketchRecorder::new(&cfg).unwrap();
    let mut enc = SnapshotEncoder::new(u32::MAX);
    let mut chains = ChainStore::new();
    let mut rng = SplitMix64::new(7);
    record_interval(&mut rec, &mut rng, 200);
    let warm = rec.take_snapshot();
    let e0 = enc.encode(0, &warm, None);
    chains.decode(1, 0, &e0.payload).unwrap();
    let mut worst: f64 = 0.0;
    for iv in 1..4u64 {
        record_interval(&mut rec, &mut rng, 30);
        let snap = rec.take_snapshot();
        let v1_len = hifind_collect::codec::encode_snapshot(&snap).len();
        let encoded = enc.encode(iv, &snap, Some(iv - 1));
        assert!(encoded.is_delta);
        chains.decode(1, iv, &encoded.payload).unwrap();
        worst = worst.max(encoded.payload.len() as f64 / v1_len as f64);
    }
    assert!(
        worst < 0.02,
        "a quiet-interval delta should be <2% of v1, got {worst:.4}"
    );
}
