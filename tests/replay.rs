//! Flight-recorder acceptance: a stream recorded from each of the four
//! run modes replays with findings and per-stream wire-bit totals
//! byte-identical to the original run; damaged recordings produce
//! descriptive errors, never panics; retention bounds disk.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use lba::{
    AdaptiveConfig, FaultProfile, LbaError, LifeguardKind, RecordConfig, ReplayError, ReplayMode,
    ReplayReport, Run, RunMode, RunOutcome, SystemConfig,
};
use lba_isa::Program;
use lba_record::{segment_file_name, StreamError};
use lba_workloads::{bugs, Benchmark};

/// `kind` over `program` in `mode`, 3 shards for the sharded modes.
fn run(program: &Program, mode: RunMode, kind: LifeguardKind, config: &SystemConfig) -> RunOutcome {
    let request = Run::new(program).mode(mode).monitor(kind);
    let outcome = request.workers(3).config(config).run();
    outcome.unwrap_or_else(|e| panic!("{mode} run: {e}"))
}

/// Replays the recording of `program` in `dir` through `kind` under
/// `policy`, failing with the replay layer's own error.
fn replay(
    program: &Program,
    dir: &Path,
    kind: LifeguardKind,
    config: &SystemConfig,
    policy: ReplayMode,
) -> Result<ReplayReport, ReplayError> {
    let request = Run::new(program).mode(RunMode::Replay).monitor(kind);
    match request
        .config(config)
        .replay_from(dir)
        .replay_mode(policy)
        .run()
    {
        Ok(RunOutcome::Replay(report)) => Ok(report),
        Err(LbaError::Replay(e)) => Err(e),
        other => panic!("a replay ends in a ReplayReport or a ReplayError: {other:?}"),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "lba-replay-test-{}-{tag}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn recording_config(dir: &PathBuf) -> SystemConfig {
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig::new(dir));
    config
}

#[test]
fn cosim_recording_replays_byte_identical() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("cosim");
    let config = recording_config(&dir);
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::Lba, kind, &config);

    let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.streams.len(), 1, "cosim records one stream");
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    assert_eq!(replay.log.records, original.log.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn per_record_dispatch_recording_replays_byte_identical() {
    // The software-decode (non-zero-copy) channel seals the identical
    // wire stream; its recording must too.
    let program = bugs::data_race();
    let dir = temp_dir("per-record");
    let mut config = recording_config(&dir);
    config.log.batch_dispatch = false;
    let kind = LifeguardKind::LockSet;
    let original = run(&program, RunMode::Lba, kind, &config);

    let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_recording_replays_byte_identical() {
    let program = bugs::exploit();
    let dir = temp_dir("live");
    let config = recording_config(&dir);
    let kind = LifeguardKind::TaintCheck;
    let original = run(&program, RunMode::Live, kind, &config);

    let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.streams.len(), 1, "live records one stream");
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    assert_eq!(replay.log.records, original.log.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn modeled_parallel_recording_replays_byte_identical_per_shard() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("parallel");
    let config = recording_config(&dir);
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::LbaParallel, kind, &config);

    let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.streams.len(), 3, "one recorded stream per shard");
    for (stream, shard) in replay.streams.iter().zip(&original.channels) {
        assert_eq!(stream.wire_bits, shard.wire_bits, "shard {}", stream.stream);
        assert_eq!(stream.records, shard.records, "shard {}", stream.stream);
        assert_eq!(stream.frames, shard.frames, "shard {}", stream.stream);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn live_parallel_recording_replays_byte_identical_per_shard() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("live-parallel");
    let config = recording_config(&dir);
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::LiveParallel, kind, &config);

    let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.streams.len(), 3, "one recorded stream per shard");
    for (stream, shard) in replay.streams.iter().zip(&original.channels) {
        assert_eq!(stream.wire_bits, shard.wire_bits, "shard {}", stream.stream);
        assert_eq!(stream.records, shard.records, "shard {}", stream.stream);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn replay_through_a_different_lifeguard_works() {
    // The retroactive-monitoring story: AddrCheck ran live; MemProfile-
    // style reanalysis here is LockSet over the same recorded traffic.
    let program = bugs::data_race();
    let dir = temp_dir("cross-lifeguard");
    let config = recording_config(&dir);
    run(&program, RunMode::Lba, LifeguardKind::AddrCheck, &config);

    let lockset = LifeguardKind::LockSet;
    let replay = replay(&program, &dir, lockset, &config, ReplayMode::Strict).unwrap();
    // LockSet over the recorded stream equals LockSet run live.
    let direct = run(&program, RunMode::Lba, lockset, &SystemConfig::default());
    assert_eq!(replay.findings, direct.findings);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retention_cap_bounds_disk_and_replay_reports_aged_out() {
    let program = Benchmark::Gzip.build();
    let dir = temp_dir("retention");
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig {
        dir: dir.clone(),
        segment_bytes: 8 << 10,
        retain_bytes: 24 << 10,
    });
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::Lba, kind, &config);
    assert!(
        original.log.wire_bits / 8 > 24 << 10,
        "workload must outgrow the retention cap for this test to bite"
    );

    let on_disk: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    assert!(
        on_disk <= 24 << 10,
        "retention must cap total segment bytes: {on_disk} B on disk"
    );

    // The aged-out stream cannot be replayed (predictor state starts at
    // segment 0) and says so descriptively.
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(
        matches!(
            &err,
            ReplayError::Stream(StreamError::MissingSegments {
                expected_seq: 0,
                ..
            })
        ),
        "got: {err}"
    );
    assert!(err.to_string().contains("contiguous from segment 0"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn damaged_recordings_error_descriptively() {
    let program = bugs::memory_bugs();
    let dir = temp_dir("damage");
    let config = recording_config(&dir);
    let kind = LifeguardKind::AddrCheck;
    run(&program, RunMode::Lba, kind, &config);
    let segment = dir.join(segment_file_name(0, 0));
    let pristine = std::fs::read(&segment).unwrap();

    // Truncated mid-record.
    std::fs::write(&segment, &pristine[..pristine.len() - 11]).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(
        matches!(&err, ReplayError::Stream(StreamError::Truncated { .. })),
        "got: {err}"
    );

    // Missing End record (cut exactly at the record boundary).
    std::fs::write(&segment, &pristine[..pristine.len() - 9]).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(
        matches!(&err, ReplayError::Stream(StreamError::MissingEnd { .. })),
        "got: {err}"
    );

    // Unknown format version.
    let mut bytes = pristine.clone();
    bytes[5] = b'7';
    std::fs::write(&segment, &bytes).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(
        matches!(&err, ReplayError::Stream(StreamError::UnknownVersion { version, .. }) if version == "7"),
        "got: {err}"
    );

    // Mid-frame corruption: flip a payload byte, caught by the checksum.
    let mut bytes = pristine.clone();
    let flip = 24 + 21 + 40; // header + frame-record header + into payload
    bytes[flip] ^= 0x55;
    std::fs::write(&segment, &bytes).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(
        matches!(&err, ReplayError::Stream(StreamError::Corrupt { .. })),
        "got: {err}"
    );
    assert!(err.to_string().contains("checksum mismatch"), "got: {err}");

    // Codec-version mismatch: refused up front, not decoded into garbage.
    let mut bytes = pristine.clone();
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&segment, &bytes).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(
        matches!(&err, ReplayError::CodecMismatch { recorded: 999, .. }),
        "got: {err}"
    );

    // An empty recording directory is its own descriptive error.
    std::fs::remove_file(&segment).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    assert!(matches!(&err, ReplayError::NoStreams { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_prefix_replays_checksummed_prefix_of_torn_tail() {
    // Satellite: a torn tail is survivable under `SalvagePrefix` — the
    // proven prefix replays in full and the loss is reported, for every
    // mid-stream damage shape the strict suite pins as fatal.
    let program = bugs::memory_bugs();
    let dir = temp_dir("salvage");
    let config = recording_config(&dir);
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::Lba, kind, &config);
    let segment = dir.join(segment_file_name(0, 0));
    let pristine = std::fs::read(&segment).unwrap();

    // Truncated mid-record: strict refuses, salvage keeps the prefix.
    std::fs::write(&segment, &pristine[..pristine.len() - 11]).unwrap();
    replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap_err();
    let report = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(report.is_lossy());
    assert_eq!(report.salvaged.len(), 1);
    let tail = &report.salvaged[0];
    assert_eq!(tail.stream, report.streams[0].stream);
    assert_eq!(tail.frames_salvaged, report.streams[0].frames);
    assert!(
        tail.frames_salvaged < original.log.frames,
        "the torn frame must not be delivered"
    );
    assert!(report.log.records < original.log.records);
    assert!(report.to_string().contains("tail lost"), "got: {report}");

    // Missing End record (cut exactly at the record boundary).
    std::fs::write(&segment, &pristine[..pristine.len() - 9]).unwrap();
    let report = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(report.is_lossy());
    assert!(report.salvaged[0].detail.contains("End"), "got: {report}");

    // Mid-frame checksum damage salvages everything before the bad frame.
    let mut bytes = pristine.clone();
    bytes[24 + 21 + 40] ^= 0x55;
    std::fs::write(&segment, &bytes).unwrap();
    let report = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(report.is_lossy());
    assert!(
        report.salvaged[0].detail.contains("checksum mismatch"),
        "got: {report}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_prefix_on_a_multi_segment_tear_keeps_earlier_segments() {
    // Rotation makes the salvage story concrete: tear the *last* segment
    // and every earlier segment's frames still replay.
    let program = Benchmark::Gzip.build();
    let dir = temp_dir("salvage-rotate");
    let mut config = SystemConfig::default();
    config.log.record_to = Some(RecordConfig {
        dir: dir.clone(),
        segment_bytes: 8 << 10,
        retain_bytes: u64::MAX,
    });
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::Lba, kind, &config);

    let mut segments: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    assert!(segments.len() > 2, "workload must force rotation");
    let last = segments.last().unwrap();
    let bytes = std::fs::read(last).unwrap();
    std::fs::write(last, &bytes[..bytes.len() - 11]).unwrap();

    let report = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap();
    assert!(report.is_lossy());
    assert!(
        report.salvaged[0].frames_salvaged > 0,
        "frames from intact segments must survive the tear"
    );
    assert!(report.log.records < original.log.records);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn salvage_prefix_keeps_pre_frame_damage_fatal() {
    // No trustworthy prefix exists when the damage precedes any frame:
    // codec mismatch, unknown version, and an empty directory stay fatal
    // in both modes.
    let program = bugs::memory_bugs();
    let dir = temp_dir("salvage-fatal");
    let config = recording_config(&dir);
    let kind = LifeguardKind::AddrCheck;
    run(&program, RunMode::Lba, kind, &config);
    let segment = dir.join(segment_file_name(0, 0));
    let pristine = std::fs::read(&segment).unwrap();

    let mut bytes = pristine.clone();
    bytes[8..12].copy_from_slice(&999u32.to_le_bytes());
    std::fs::write(&segment, &bytes).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap_err();
    assert!(
        matches!(&err, ReplayError::CodecMismatch { recorded: 999, .. }),
        "got: {err}"
    );

    let mut bytes = pristine.clone();
    bytes[5] = b'7';
    std::fs::write(&segment, &bytes).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap_err();
    assert!(
        matches!(
            &err,
            ReplayError::Stream(StreamError::UnknownVersion { .. })
        ),
        "got: {err}"
    );

    std::fs::remove_file(&segment).unwrap();
    let err = replay(&program, &dir, kind, &config, ReplayMode::SalvagePrefix).unwrap_err();
    assert!(matches!(&err, ReplayError::NoStreams { .. }), "got: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degraded_spans_ride_the_recording_into_replay() {
    // Tentpole acceptance, replay leg: a recording made while the
    // adaptive controller was engaged carries the degraded mark on its
    // frames, and the replay report surfaces those spans.
    let program = Benchmark::Gzip.build();
    let dir = temp_dir("degraded-replay");
    let mut config = recording_config(&dir);
    config.log.adaptive = Some(AdaptiveConfig {
        engage_permille: 300,
        disengage_permille: 100,
        sample_stride: 16,
        ..AdaptiveConfig::default()
    });
    config.log.fault = Some(FaultProfile::slow_drain(42));
    config.log.buffer_bytes = 2 << 10;
    let kind = LifeguardKind::AddrCheck;
    let original = run(&program, RunMode::Lba, kind, &config);
    assert!(
        !original.degradation.is_empty(),
        "precondition: the recording run must actually degrade"
    );

    let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
    assert!(
        replay.total_degraded_frames() > 0,
        "degraded spans must ride the flight-recorder stream"
    );
    assert!(replay.total_degraded_frames() <= replay.streams[0].frames);
    assert_eq!(replay.findings, original.findings);
    assert_eq!(replay.log.records, original.log.records);
    assert_eq!(replay.log.wire_bits, original.log.wire_bits);
    assert!(
        !replay.is_lossy(),
        "degradation is not loss at the recorder"
    );
    assert!(
        replay.to_string().contains("degraded frames replayed"),
        "got: {replay}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Record→replay equality holds across programs × lifeguards ×
    /// segment sizes: whatever rotation the segment budget forces, the
    /// replayed findings and wire bits equal the original run's.
    #[test]
    fn record_replay_equality_across_the_grid(
        program_idx in 0usize..3,
        kind_idx in 0usize..3,
        segment_bytes in prop_oneof![Just(512u64), Just(4 << 10), Just(64 << 10), Just(4 << 20)],
    ) {
        let program = match program_idx {
            0 => bugs::memory_bugs(),
            1 => bugs::data_race(),
            _ => bugs::exploit(),
        };
        let kind = LifeguardKind::ALL[kind_idx];
        let dir = temp_dir("grid");
        let mut config = SystemConfig::default();
        config.log.record_to = Some(RecordConfig {
            dir: dir.clone(),
            segment_bytes,
            retain_bytes: u64::MAX,
        });
        let original = run(&program, RunMode::Lba, kind, &config);

        let replay = replay(&program, &dir, kind, &config, ReplayMode::Strict).unwrap();
        prop_assert_eq!(&replay.findings, &original.findings);
        prop_assert_eq!(replay.log.wire_bits, original.log.wire_bits);
        prop_assert_eq!(replay.log.records, original.log.records);
        std::fs::remove_dir_all(&dir).ok();
    }
}
