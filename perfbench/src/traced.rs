//! The traced run: every job of the workload is composed again from each
//! layer's public functions, one stage at a time, with a span around
//! each stage. The benchmark's own code records the spans; the program
//! carries no tracing.
//!
//! A job's stages follow the shape its workload runs:
//!
//! * `live`: cpu → producer (single consumer, syscall flushes) → encode →
//!   live channel → recorder write | decode → dispatch;
//! * `replay`: recorder read → decode → dispatch, over the set-up corpus;
//! * `remote`: cpu → producer (sharded by cache line) → encode per shard →
//!   socket per shard | decode → dispatch per shard;
//! * `taint-epoch`: cpu → passthrough producer (epoch routed) → encode per
//!   worker → live channel per worker | decode → summarize per worker →
//!   stitch.
//!
//! Stages left of `|` run on the producing thread in the real run, the
//! rest on consumer threads. The stage spans give the per-layer numbers
//! and the two path totals; the same job is also run untraced through
//! `lba::Run`, which gives the wall the paths are compared with. Layers a
//! workload's jobs never reach are then measured once over the
//! workload's even-pass programs in the live shape (and the
//! epoch-summary shape), so every traced run reports every layer.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use lba::{
    ConsumerTopology, EpochRouted, MonitorSpec, Producer, ProducerLink, Route, ShardedByLine,
    SystemConfig, MONITORS,
};
use lba_cache::MemSystem;
use lba_compress::{Frame, FrameDecoder, FrameEncoder, CODEC_VERSION};
use lba_cpu::Machine;
use lba_lifeguard::{DispatchEngine, EpochLifeguard, EpochSummarizer, Finding, HandlerCtx};
use lba_lifeguards::TaintCheck;
use lba_record::{EventRecord, SegmentReader, SegmentWriter, StreamConfig};
use lba_transport::{socket_pair, FrameSink, FrameSource, SealedFrame};
use lba_workloads::Benchmark;

use crate::e2e::run_job;
use crate::plan::{Job, Plan, Workload, WORKERS};
use crate::reference::{self, same_findings, References};
use crate::report::{Metric, Outcome};

/// One record shipped into a stream, or a syscall-containment flush.
#[derive(Debug, Clone, Copy)]
enum Op {
    Push(EventRecord),
    PushEpoch(EventRecord, bool),
    Flush,
}

/// The producer link the traced run plugs under [`Producer`]: it routes
/// shipped records through the workload's topology into per-stream
/// buffers, so encoding can be timed as a stage of its own.
struct Collect {
    topology: Box<dyn ConsumerTopology>,
    streams: Vec<Vec<Op>>,
}

impl ProducerLink for Collect {
    fn ship(&mut self, rec: &EventRecord) {
        match self.topology.route(rec) {
            Route::Single => self.streams[0].push(Op::Push(*rec)),
            Route::Shard(owner) => self.streams[owner].push(Op::Push(*rec)),
            Route::Broadcast => {
                for stream in &mut self.streams {
                    stream.push(Op::Push(*rec));
                }
            }
            Route::Epoch { worker, end_epoch } => {
                self.streams[worker].push(Op::PushEpoch(*rec, end_epoch));
            }
        }
    }

    fn contain_syscall(&mut self) {
        // Only the single-consumer producers contain syscalls; they seal
        // the open frame of their one stream.
        self.streams[0].push(Op::Flush);
    }
}

/// Busy time and work count of one stage.
#[derive(Debug, Clone, Copy, Default)]
struct Stage {
    busy: Duration,
    count: u64,
}

impl Stage {
    fn add(&mut self, busy: Duration, count: u64) {
        self.busy += busy;
        self.count += count;
    }

    fn ns_per(&self) -> f64 {
        self.busy.as_secs_f64() * 1e9 / self.count.max(1) as f64
    }
}

/// Every per-layer counter the traced run fills.
#[derive(Debug, Clone, Default)]
struct Layers {
    cpu: Stage,
    l1d_accesses: u64,
    l1d_misses: u64,
    produce: Stage,
    shipped: u64,
    encode: Stage,
    encode_frames: u64,
    encode_wire_bits: u64,
    /// Per program name: (wire bits, captured records).
    wire_by_program: BTreeMap<String, (u64, u64)>,
    decode: Stage,
    decode_errors: u64,
    live: Stage,
    live_wait: Duration,
    socket: Stage,
    socket_wait: Duration,
    socket_bytes: u64,
    socket_errors: u64,
    dispatch: BTreeMap<&'static str, (Stage, u64)>,
    summarize: Stage,
    stitch: Stage,
    write: Stage,
    write_bytes: u64,
    read: Stage,
}

/// Which layer groups a job shape reached, for the coverage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Cpu,
    Produce,
    Encode,
    Decode,
    Live,
    Socket,
    Dispatch(&'static str),
    Summary,
    Write,
    Read,
}

impl Layers {
    fn has(&self, group: Group) -> bool {
        match group {
            Group::Cpu => self.cpu.count > 0,
            Group::Produce => self.produce.count > 0,
            Group::Encode => self.encode.count > 0,
            Group::Decode => self.decode.count > 0,
            Group::Live => self.live.count > 0,
            Group::Socket => self.socket.count > 0,
            Group::Dispatch(name) => self.dispatch.get(name).is_some_and(|(s, _)| s.count > 0),
            Group::Summary => self.summarize.count > 0,
            Group::Write => self.write.count > 0,
            Group::Read => self.read.count > 0,
        }
    }

    /// Copies `group` from `other`.
    fn take(&mut self, other: &Layers, group: Group) {
        match group {
            Group::Cpu => {
                self.cpu = other.cpu;
                self.l1d_accesses = other.l1d_accesses;
                self.l1d_misses = other.l1d_misses;
            }
            Group::Produce => {
                self.produce = other.produce;
                self.shipped = other.shipped;
            }
            Group::Encode => {
                self.encode = other.encode;
                self.encode_frames = other.encode_frames;
                self.encode_wire_bits = other.encode_wire_bits;
                self.wire_by_program = other.wire_by_program.clone();
            }
            Group::Decode => {
                self.decode = other.decode;
                self.decode_errors = other.decode_errors;
            }
            Group::Live => {
                self.live = other.live;
                self.live_wait = other.live_wait;
            }
            Group::Socket => {
                self.socket = other.socket;
                self.socket_wait = other.socket_wait;
                self.socket_bytes = other.socket_bytes;
                self.socket_errors = other.socket_errors;
            }
            Group::Dispatch(name) => {
                if let Some(d) = other.dispatch.get(name) {
                    self.dispatch.insert(name, *d);
                }
            }
            Group::Summary => {
                self.summarize = other.summarize;
                self.stitch = other.stitch;
            }
            Group::Write => {
                self.write = other.write;
                self.write_bytes = other.write_bytes;
            }
            Group::Read => self.read = other.read,
        }
    }
}

/// The producer-side and consumer-side busy time of one traced job.
#[derive(Debug, Clone, Copy, Default)]
struct Paths {
    producer: Duration,
    consumer: Duration,
}

/// Runs the program on the machine model with a collecting sink.
fn cpu(
    program: &lba_isa::Program,
    config: &SystemConfig,
    layers: &mut Layers,
) -> Result<(Vec<EventRecord>, Duration), String> {
    let mut machine = Machine::new(program, config.machine);
    let mut mem = MemSystem::new(config.mem_single());
    let mut records = Vec::new();
    let start = Instant::now();
    machine
        .run(&mut mem, |r| records.push(r.record))
        .map_err(|e| format!("{}: machine: {e}", program.name()))?;
    let busy = start.elapsed();
    let l1d = mem.core_stats(0).l1d;
    layers.cpu.add(busy, records.len() as u64);
    layers.l1d_accesses += l1d.accesses;
    layers.l1d_misses += l1d.misses;
    Ok((records, busy))
}

/// Drives the capture stage chain over `records` into per-stream buffers.
fn produce(
    records: &[EventRecord],
    mut producer: Producer,
    topology: Box<dyn ConsumerTopology>,
    layers: &mut Layers,
) -> (Vec<Vec<Op>>, u64, Duration) {
    let streams = topology.consumers();
    let mut link = Collect {
        topology,
        streams: vec![Vec::new(); streams],
    };
    let start = Instant::now();
    for rec in records {
        producer.observe(rec, &mut link);
    }
    let finish = producer.finish(&mut link);
    let busy = start.elapsed();
    let captured = finish.capture.captured;
    layers.produce.add(busy, captured);
    layers.shipped += link
        .streams
        .iter()
        .flatten()
        .filter(|op| !matches!(op, Op::Flush))
        .count() as u64;
    (link.streams, captured, busy)
}

/// Seals each stream's records into frames.
fn encode(
    streams: &[Vec<Op>],
    config: &SystemConfig,
    program: &str,
    captured: u64,
    layers: &mut Layers,
) -> (Vec<Vec<Frame>>, Vec<Duration>) {
    let mut out = Vec::new();
    let mut spans = Vec::new();
    let mut wire_bits = 0;
    for ops in streams {
        let mut encoder = FrameEncoder::new(config.log.frame_config());
        let mut frames = Vec::new();
        let start = Instant::now();
        for op in ops {
            frames.extend(match op {
                Op::Push(rec) => encoder.push(rec),
                Op::PushEpoch(rec, end) => encoder.push_epoch(rec, *end),
                Op::Flush => encoder.flush(),
            });
        }
        frames.extend(encoder.flush());
        let busy = start.elapsed();
        let stats = encoder.stats();
        layers.encode.add(busy, stats.records);
        layers.encode_frames += stats.frames;
        layers.encode_wire_bits += stats.wire_bits;
        wire_bits += stats.wire_bits;
        spans.push(busy);
        out.push(frames);
    }
    if Benchmark::ALL.iter().any(|b| b.name() == program) {
        let entry = layers
            .wire_by_program
            .entry(program.to_string())
            .or_default();
        entry.0 += wire_bits;
        entry.1 += captured;
    }
    (out, spans)
}

/// Ships one stream's records through the in-process frame channel: a
/// sender thread pushes (encoding as it goes), this thread drains with
/// `recv_batch`. The sender's self time is its span minus the encode span
/// of the same records; the receiver's wait is its span minus the decode
/// span of the same frames.
fn live_channel(
    ops: &[Op],
    config: &SystemConfig,
    encode_span: Duration,
    decode_span: Duration,
    layers: &mut Layers,
) -> Result<Duration, String> {
    let (mut tx, mut rx) = lba_transport::live::frame_channel(
        config.log.live_channel_frames(),
        config.log.frame_config(),
    );
    let (sent, received, recv_span) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let start = Instant::now();
            for op in ops {
                match op {
                    Op::Push(rec) => tx.push(rec),
                    Op::PushEpoch(rec, end) => tx.push_epoch(rec, *end),
                    Op::Flush => tx.flush(),
                }
            }
            tx.flush();
            let span = start.elapsed();
            drop(tx);
            span
        });
        let start = Instant::now();
        let mut received = 0u64;
        while let Some(batch) = rx.recv_batch() {
            received += batch.len() as u64;
        }
        let recv_span = start.elapsed();
        (sender.join(), received, recv_span)
    });
    let send_span = sent.map_err(|_| "live channel sender panicked".to_string())?;
    let shipped = ops.iter().filter(|op| !matches!(op, Op::Flush)).count() as u64;
    if received != shipped {
        return Err(format!(
            "live channel delivered {received} of {shipped} records"
        ));
    }
    let busy = send_span.saturating_sub(encode_span);
    layers.live.add(busy, rx.stats().frames);
    layers.live_wait += recv_span.saturating_sub(decode_span);
    Ok(busy)
}

/// Ships one stream's sealed frames over a Unix socket pair under the
/// credit window. A put that starts with the window full is credit wait.
fn socket(
    frames: &[Frame],
    stream: u32,
    config: &SystemConfig,
    layers: &mut Layers,
) -> Result<Duration, String> {
    let window = u32::try_from(config.log.live_channel_frames()).unwrap_or(u32::MAX);
    let (mut sink, mut source) = socket_pair(stream, window).map_err(|e| e.to_string())?;
    let (sent, drained) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || {
            let mut busy = Duration::ZERO;
            let mut wait = Duration::ZERO;
            let mut errors = 0;
            for frame in frames {
                let start = Instant::now();
                if sink.poll_credits().is_err() {
                    errors += 1;
                }
                let blocked = {
                    let load = sink.load_sample();
                    load.inflight >= load.capacity
                };
                let sealed = SealedFrame {
                    bytes: &frame.bytes,
                    records: frame.records,
                    sealed_at: 0,
                };
                if sink.put_frame(&sealed).is_err() {
                    errors += 1;
                }
                if blocked {
                    wait += start.elapsed();
                } else {
                    busy += start.elapsed();
                }
            }
            let start = Instant::now();
            if sink.finish_sink().is_err() {
                errors += 1;
            }
            busy += start.elapsed();
            // Hand the sink back so it closes only after the consumer has
            // drained and returned its last credits.
            (busy, wait, errors, sink)
        });
        let mut frames_in = 0u64;
        let mut bytes_in = 0u64;
        let mut errors = 0u64;
        loop {
            match source.next_frame_bytes() {
                Ok(Some(bytes)) => {
                    frames_in += 1;
                    bytes_in += bytes.len() as u64;
                }
                Ok(None) => break,
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
        (sender.join(), (frames_in, bytes_in, errors))
    });
    let (busy, wait, send_errors, _sink) =
        sent.map_err(|_| "socket sender panicked".to_string())?;
    let (frames_in, bytes_in, recv_errors) = drained;
    let errors = send_errors + recv_errors + u64::from(frames_in != frames.len() as u64);
    layers.socket.add(busy, frames_in);
    layers.socket_wait += wait;
    layers.socket_bytes += bytes_in;
    layers.socket_errors += errors;
    Ok(busy)
}

/// Appends one stream's frames to a recording.
fn record_write(
    frames: &[Frame],
    dir: &Path,
    stream: u32,
    layers: &mut Layers,
) -> Result<Duration, String> {
    let start = Instant::now();
    let mut writer = SegmentWriter::create(dir, stream, CODEC_VERSION, StreamConfig::default())
        .map_err(|e| e.to_string())?;
    for frame in frames {
        writer
            .append(0, frame.records, &frame.bytes)
            .map_err(|e| e.to_string())?;
    }
    let summary = writer.finish().map_err(|e| e.to_string())?;
    let busy = start.elapsed();
    layers.write.add(busy, summary.frames);
    layers.write_bytes += summary.bytes_written;
    Ok(busy)
}

/// Reads every frame of one recorded stream.
fn record_read(
    dir: &Path,
    stream: u32,
    layers: &mut Layers,
) -> Result<(Vec<Vec<u8>>, Duration), String> {
    let start = Instant::now();
    let mut reader = SegmentReader::open(dir, stream).map_err(|e| e.to_string())?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame().map_err(|e| e.to_string())? {
        frames.push(frame.bytes);
    }
    let busy = start.elapsed();
    layers.read.add(busy, frames.len() as u64);
    Ok((frames, busy))
}

/// One decoded frame: its records and whether it closes an epoch.
type Batch = (Vec<EventRecord>, bool);

/// Decodes one stream's frames in seal order.
fn decode<'a>(
    frames: impl IntoIterator<Item = &'a [u8]>,
    config: &SystemConfig,
    layers: &mut Layers,
) -> (Vec<Batch>, Duration) {
    let mut decoder = FrameDecoder::new(config.log.frame_config());
    let mut batches = Vec::new();
    let mut records = 0u64;
    let start = Instant::now();
    for bytes in frames {
        let mut out = Vec::new();
        if decoder.decode_frame(bytes, &mut out).is_err() {
            layers.decode_errors += 1;
        }
        records += out.len() as u64;
        batches.push((out, Frame::header_epoch_end(bytes)));
    }
    let busy = start.elapsed();
    layers.decode.add(busy, records);
    (batches, busy)
}

/// Delivers one stream's batches to a fresh lifeguard.
fn dispatch(
    batches: &[Batch],
    monitor: &MonitorSpec,
    config: &SystemConfig,
    layers: &mut Layers,
) -> (Vec<Finding>, Duration) {
    let mut lifeguard = (monitor.make)();
    let engine = DispatchEngine::new(config.dispatch);
    let mut mem = MemSystem::new(config.mem_dual());
    let mut findings = Vec::new();
    let mut records = 0u64;
    let start = Instant::now();
    for (batch, _) in batches {
        engine.deliver_batch(lifeguard.as_mut(), batch, &mut mem, 1, &mut findings);
        records += batch.len() as u64;
    }
    engine.finish(lifeguard.as_mut(), &mut mem, 1, &mut findings);
    let busy = start.elapsed();
    let entry = layers.dispatch.entry(monitor.name).or_default();
    entry.0.add(busy, records);
    entry.1 += findings.len() as u64;
    (findings, busy)
}

/// Summarizes each worker's epochs, then stitches the summaries in global
/// epoch order into the master TaintCheck. Returns the findings, each
/// worker's summarize span and the stitch span.
fn summarize_and_stitch(
    workers: &[Vec<Batch>],
    config: &SystemConfig,
    layers: &mut Layers,
) -> (Vec<Finding>, Vec<Duration>, Duration) {
    let mut master = TaintCheck::new();
    let engine = DispatchEngine::new(config.dispatch);
    let mut queues = Vec::new();
    let mut spans = Vec::new();
    for batches in workers {
        let mut summarizer = master.summarizer();
        let mut mem = MemSystem::new(config.mem_dual());
        let mut none = Vec::new();
        let mut summaries = std::collections::VecDeque::new();
        let mut records = 0u64;
        let mut open = false;
        let start = Instant::now();
        for (batch, epoch_end) in batches {
            open = open || !batch.is_empty();
            engine.deliver_batch(&mut summarizer, batch, &mut mem, 1, &mut none);
            records += batch.len() as u64;
            if *epoch_end {
                summaries.push_back(summarizer.finish_epoch());
                open = false;
            }
        }
        if open || summarizer.is_open() {
            summaries.push_back(summarizer.finish_epoch());
        }
        let busy = start.elapsed();
        spans.push(busy);
        layers.summarize.add(busy, records);
        queues.push(summaries);
    }
    let mut mem = MemSystem::new(config.mem_dual());
    let mut findings = Vec::new();
    let mut epochs = 0u64;
    let workers = queues.len() as u64;
    let start = Instant::now();
    while let Some(summary) = queues[(epochs % workers) as usize].pop_front() {
        let mut ctx = HandlerCtx::new(&mut mem, 1, &mut findings);
        master.absorb(summary, &mut ctx);
        epochs += 1;
    }
    engine.finish(&mut master, &mut mem, 1, &mut findings);
    let stitch = start.elapsed();
    layers.stitch.add(stitch, epochs);
    (findings, spans, stitch)
}

fn records_of(ops: &[Op]) -> Vec<EventRecord> {
    ops.iter()
        .filter_map(|op| match op {
            Op::Push(rec) | Op::PushEpoch(rec, _) => Some(*rec),
            Op::Flush => None,
        })
        .collect()
}

fn check_decoded(ops: &[Op], batches: &[Batch]) -> Result<(), String> {
    let decoded: Vec<EventRecord> = batches
        .iter()
        .flat_map(|(b, _)| b.iter().copied())
        .collect();
    if decoded == records_of(ops) {
        Ok(())
    } else {
        Err("decoded records differ from the shipped records".into())
    }
}

/// Traces one job in its workload's shape and checks what the layers
/// hand back against the reference.
fn trace_job(
    plan: &Plan,
    references: &References,
    job: &Job,
    config: &SystemConfig,
    scratch: &Path,
    layers: &mut Layers,
) -> Result<Paths, String> {
    let program = plan.program(job);
    let reference = references.of(job);
    let row = plan.workload.row();
    if plan.workload == Workload::Replay {
        let dir = reference
            .recording
            .as_deref()
            .expect("replay references carry their recording");
        let (frames, read) = record_read(dir, 0, layers)?;
        let (batches, decode_span) = decode(frames.iter().map(Vec::as_slice), config, layers);
        let (findings, dispatch_span) = dispatch(&batches, job.monitor, config, layers);
        same_findings(row.merged_findings, &findings, &reference.findings)?;
        return Ok(Paths {
            producer: read,
            consumer: decode_span + dispatch_span,
        });
    }

    let (records, cpu_span) = cpu(program, config, layers)?;
    let lifeguard = (job.monitor.make)();
    let (producer, topology): (Producer, Box<dyn ConsumerTopology>) = match plan.workload {
        Workload::Live | Workload::Replay => (
            Producer::live(&*lifeguard, config),
            Box::new(lba::SingleConsumer),
        ),
        Workload::Remote => (
            Producer::sharded(&*lifeguard, config),
            Box::new(ShardedByLine::new(WORKERS)),
        ),
        Workload::TaintEpoch => (
            Producer::passthrough(),
            Box::new(EpochRouted::new(WORKERS, config.log.epoch_records)),
        ),
    };
    let (streams, captured, produce_span) = produce(&records, producer, topology, layers);
    drop(records);
    let (frames, encode_spans) = encode(&streams, config, program.name(), captured, layers);
    let wire_bits: u64 = frames.iter().flatten().map(Frame::wire_bits).sum();
    if row.exact_wire && wire_bits != reference.wire_bits {
        return Err(format!(
            "traced wire bits {wire_bits} differ from reference {}",
            reference.wire_bits
        ));
    }
    let mut producer = cpu_span + produce_span + encode_spans.iter().sum::<Duration>();
    let mut decoded = Vec::new();
    let mut decode_spans = Vec::new();
    for (ops, stream_frames) in streams.iter().zip(&frames) {
        let (batches, span) = decode(
            stream_frames.iter().map(|f| f.bytes.as_slice()),
            config,
            layers,
        );
        check_decoded(ops, &batches)?;
        decoded.push(batches);
        decode_spans.push(span);
    }
    let consumer = match plan.workload {
        Workload::Live | Workload::Replay => {
            producer += live_channel(
                &streams[0],
                config,
                encode_spans[0],
                decode_spans[0],
                layers,
            )?;
            let tee = scratch.join("trace-tee");
            let _ = std::fs::remove_dir_all(&tee);
            producer += record_write(&frames[0], &tee, 0, layers)?;
            let _ = std::fs::remove_dir_all(&tee);
            let (findings, span) = dispatch(&decoded[0], job.monitor, config, layers);
            same_findings(row.merged_findings, &findings, &reference.findings)?;
            decode_spans[0] + span
        }
        Workload::Remote => {
            let mut findings = Vec::new();
            let mut slowest = Duration::ZERO;
            for (shard, stream_frames) in frames.iter().enumerate() {
                producer += socket(stream_frames, shard as u32, config, layers)?;
                let (shard_findings, span) = dispatch(&decoded[shard], job.monitor, config, layers);
                findings.extend(shard_findings);
                slowest = slowest.max(decode_spans[shard] + span);
            }
            same_findings(row.merged_findings, &findings, &reference.findings)?;
            slowest
        }
        Workload::TaintEpoch => {
            for (worker, ops) in streams.iter().enumerate() {
                producer += live_channel(
                    ops,
                    config,
                    encode_spans[worker],
                    decode_spans[worker],
                    layers,
                )?;
            }
            let (findings, summarize, stitch) = summarize_and_stitch(&decoded, config, layers);
            same_findings(row.merged_findings, &findings, &reference.findings)?;
            let slowest_worker = decode_spans
                .iter()
                .zip(&summarize)
                .map(|(d, s)| *d + *s)
                .max()
                .unwrap_or_default();
            slowest_worker.max(stitch)
        }
    };
    Ok(Paths { producer, consumer })
}

/// Measures, over `programs`, every layer group in the live shape (every
/// monitor) plus the epoch-summary shape, into a fresh set of counters.
fn coverage(
    programs: &[&lba_isa::Program],
    config: &SystemConfig,
    scratch: &Path,
) -> Result<Layers, String> {
    let mut layers = Layers::default();
    let dir = scratch.join("coverage");
    for program in programs {
        let (records, _) = cpu(program, config, &mut layers)?;
        for monitor in &MONITORS {
            let lifeguard = (monitor.make)();
            let (streams, captured, _) = produce(
                &records,
                Producer::live(&*lifeguard, config),
                Box::new(lba::SingleConsumer),
                &mut layers,
            );
            let (frames, encode_spans) =
                encode(&streams, config, program.name(), captured, &mut layers);
            let (batches, decode_span) = decode(
                frames[0].iter().map(|f| f.bytes.as_slice()),
                config,
                &mut layers,
            );
            check_decoded(&streams[0], &batches)?;
            live_channel(
                &streams[0],
                config,
                encode_spans[0],
                decode_span,
                &mut layers,
            )?;
            socket(&frames[0], 0, config, &mut layers)?;
            let _ = std::fs::remove_dir_all(&dir);
            record_write(&frames[0], &dir, 0, &mut layers)?;
            let (read_back, _) = record_read(&dir, 0, &mut layers)?;
            let _ = std::fs::remove_dir_all(&dir);
            if read_back.len() != frames[0].len() {
                return Err("recording read back a different frame count".into());
            }
            dispatch(&batches, monitor, config, &mut layers);
        }
        let (streams, _, _) = produce(
            &records,
            Producer::passthrough(),
            Box::new(EpochRouted::new(WORKERS, config.log.epoch_records)),
            &mut Layers::default(),
        );
        let (frames, _) = encode(&streams, config, program.name(), 0, &mut Layers::default());
        let decoded: Vec<Vec<Batch>> = frames
            .iter()
            .map(|f| {
                decode(
                    f.iter().map(|f| f.bytes.as_slice()),
                    config,
                    &mut Layers::default(),
                )
                .0
            })
            .collect();
        summarize_and_stitch(&decoded, config, &mut layers);
    }
    Ok(layers)
}

/// The traced run: one set-up (references and, for replay, the corpus),
/// then traced passes until `seconds` have passed (at least one), then
/// the coverage sweep, then the per-layer metrics.
///
/// # Errors
///
/// A set-up failure.
pub fn run(
    plan: &Plan,
    seconds: f64,
    config: &SystemConfig,
    scratch: &Path,
) -> Result<Outcome, String> {
    let corpus = scratch.join("corpus");
    let mut references = reference::compute(plan, config, &corpus)?;
    let row = plan.workload.row();
    let mut layers = Layers::default();
    let mut paths = Paths::default();
    let mut untraced = Duration::ZERO;
    let mut traced = Duration::ZERO;
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = 0;
    while passes == 0 || Instant::now() < deadline {
        for job in plan.jobs() {
            attempted += 1;
            let (wall, outcome) = run_job(plan, &references, job, config, scratch);
            untraced += wall;
            let checked = reference::check(row, references.of(job), outcome.as_deref());
            if let (Ok(()), Ok(report)) = (&checked, &outcome) {
                references.pin(job, report.log.records, report.log.wire_bits);
            }
            let start = Instant::now();
            let stages = trace_job(plan, &references, job, config, scratch, &mut layers);
            traced += start.elapsed();
            // A job fails once, whether its run, its trace or both differ.
            match checked.and(stages) {
                Ok(p) => {
                    paths.producer += p.producer;
                    paths.consumer += p.consumer;
                }
                Err(e) => failures.push(e),
            }
        }
        passes += 1;
    }

    let mut even_pass: Vec<&lba_isa::Program> = Vec::new();
    for job in &plan.passes[0] {
        let program = plan.program(job);
        if !even_pass.iter().any(|p| std::ptr::eq(*p, program)) {
            even_pass.push(program);
        }
    }
    let covered = coverage(&even_pass, config, scratch)?;
    let mut groups = vec![
        Group::Cpu,
        Group::Produce,
        Group::Encode,
        Group::Decode,
        Group::Live,
        Group::Socket,
        Group::Summary,
        Group::Write,
        Group::Read,
    ];
    groups.extend(MONITORS.iter().map(|m| Group::Dispatch(m.name)));
    for group in groups {
        if !layers.has(group) {
            layers.take(&covered, group);
        }
    }

    let failed = failures.len() as u64;
    let mut notes = vec![
        format!("traced passes {passes}, traced jobs {attempted}"),
        format!(
            "tracing overhead: traced composition {:.3} s vs untraced Run::run {:.3} s",
            traced.as_secs_f64(),
            untraced.as_secs_f64()
        ),
    ];
    notes.extend(failures.iter().take(5).map(|f| format!("failed job: {f}")));
    Ok(Outcome {
        attempted,
        failed,
        metrics: metrics(&layers, paths, untraced, traced, plan.workload),
        notes,
    })
}

fn metrics(
    layers: &Layers,
    paths: Paths,
    untraced: Duration,
    traced: Duration,
    workload: Workload,
) -> Vec<Metric> {
    let s = |d: Duration| d.as_secs_f64();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    let mut m = vec![
        Metric::new("cpu.insts", layers.cpu.count as f64, "count"),
        Metric::new("cpu.busy_s", s(layers.cpu.busy), "s"),
        Metric::new("cpu.ns_per_inst", layers.cpu.ns_per(), "ns"),
        Metric::new(
            "cpu.l1d_miss_ratio",
            ratio(layers.l1d_misses, layers.l1d_accesses),
            "ratio",
        ),
        Metric::new("pipeline.captured", layers.produce.count as f64, "count"),
        Metric::new("pipeline.shipped", layers.shipped as f64, "count"),
        Metric::new(
            "pipeline.ship_ratio",
            ratio(layers.shipped, layers.produce.count),
            "ratio",
        ),
        Metric::new("pipeline.busy_s", s(layers.produce.busy), "s"),
        Metric::new("pipeline.ns_per_rec", layers.produce.ns_per(), "ns"),
        Metric::new(
            "compress.encode.frames",
            layers.encode_frames as f64,
            "count",
        ),
        Metric::new("compress.encode.busy_s", s(layers.encode.busy), "s"),
        Metric::new("compress.encode.ns_per_rec", layers.encode.ns_per(), "ns"),
        Metric::new(
            "compress.wire_bytes_per_rec",
            layers.encode_wire_bits as f64 / 8.0 / layers.encode.count.max(1) as f64,
            "B/rec",
        ),
    ];
    for bench in Benchmark::ALL {
        let (bits, captured) = layers
            .wire_by_program
            .get(bench.name())
            .copied()
            .unwrap_or_default();
        m.push(Metric::new(
            format!("compress.wire_bytes_per_inst.{}", bench.name()),
            if captured == 0 {
                f64::NAN
            } else {
                bits as f64 / 8.0 / captured as f64
            },
            "B/inst",
        ));
    }
    m.extend([
        Metric::new("compress.decode.busy_s", s(layers.decode.busy), "s"),
        Metric::new("compress.decode.ns_per_rec", layers.decode.ns_per(), "ns"),
        Metric::new(
            "compress.decode.errors",
            layers.decode_errors as f64,
            "count",
        ),
        Metric::new("transport.live.frames", layers.live.count as f64, "count"),
        Metric::new("transport.live.busy_s", s(layers.live.busy), "s"),
        Metric::new("transport.live.wait_s", s(layers.live_wait), "s"),
        Metric::new("transport.live.ns_per_frame", layers.live.ns_per(), "ns"),
        Metric::new(
            "transport.socket.frames",
            layers.socket.count as f64,
            "count",
        ),
        Metric::new("transport.socket.bytes", layers.socket_bytes as f64, "B"),
        Metric::new("transport.socket.busy_s", s(layers.socket.busy), "s"),
        Metric::new("transport.socket.wait_s", s(layers.socket_wait), "s"),
        Metric::new(
            "transport.socket.ns_per_frame",
            layers.socket.ns_per(),
            "ns",
        ),
        Metric::new(
            "transport.socket.errors",
            layers.socket_errors as f64,
            "count",
        ),
    ]);
    for monitor in &MONITORS {
        let (stage, findings) = layers
            .dispatch
            .get(monitor.name)
            .copied()
            .unwrap_or_default();
        let name = monitor.name;
        m.extend([
            Metric::new(
                format!("dispatch.{name}.records"),
                stage.count as f64,
                "count",
            ),
            Metric::new(format!("dispatch.{name}.busy_s"), s(stage.busy), "s"),
            Metric::new(format!("dispatch.{name}.ns_per_rec"), stage.ns_per(), "ns"),
            Metric::new(
                format!("dispatch.{name}.findings"),
                findings as f64,
                "count",
            ),
        ]);
    }
    let sequential = layers
        .dispatch
        .get("taintcheck")
        .map_or(f64::NAN, |(stage, _)| stage.ns_per());
    // The replay workload runs its stages one after another on one
    // thread, so its bottleneck is their sum; the others overlap the
    // producer with the consumers.
    let bottleneck = if workload == Workload::Replay {
        paths.producer + paths.consumer
    } else {
        paths.producer.max(paths.consumer)
    };
    m.extend([
        Metric::new("taint_summary.epochs", layers.stitch.count as f64, "count"),
        Metric::new("taint_summary.summarize_s", s(layers.summarize.busy), "s"),
        Metric::new(
            "taint_summary.summarize_ns_per_rec",
            layers.summarize.ns_per(),
            "ns",
        ),
        Metric::new("taint_summary.stitch_s", s(layers.stitch.busy), "s"),
        Metric::new(
            "taint_summary.stitch_ns_per_epoch",
            layers.stitch.ns_per(),
            "ns",
        ),
        Metric::new(
            "taint_summary.vs_sequential",
            layers.summarize.ns_per() / sequential,
            "ratio",
        ),
        Metric::new("record.write.frames", layers.write.count as f64, "count"),
        Metric::new("record.write.bytes", layers.write_bytes as f64, "B"),
        Metric::new("record.write.busy_s", s(layers.write.busy), "s"),
        Metric::new("record.read.busy_s", s(layers.read.busy), "s"),
        Metric::new("record.read.ns_per_frame", layers.read.ns_per(), "ns"),
        Metric::new("core.producer_path_s", s(paths.producer), "s"),
        Metric::new("core.consumer_path_s", s(paths.consumer), "s"),
        Metric::new("core.residual_s", s(untraced) - s(bottleneck), "s"),
        Metric::new("trace.coverage", s(bottleneck) / s(untraced), "ratio"),
        Metric::new("trace.traced_s", s(traced), "s"),
        Metric::new("trace.untraced_s", s(untraced), "s"),
    ]);
    m
}
