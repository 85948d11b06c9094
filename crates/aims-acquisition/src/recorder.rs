//! Multi-threaded double-buffered recording pipeline.
//!
//! §3.1 of the paper: "To sample and record data asynchronously, we
//! developed a simple multi-threaded double buffering approach. One thread
//! was associated with answering the handler call and copying sensor data
//! into a region of system memory. A second thread worked asynchronously to
//! process and store that data to disk."
//!
//! This module reproduces that architecture: a producer thread plays the
//! role of the sampling-interrupt handler (copying frames into a bounded
//! in-memory buffer and *never blocking* — a real interrupt handler can't,
//! so a frame that finds the buffer full is dropped), and a consumer thread
//! drains the buffer in batches and "stores" them. Overruns are counted
//! rather than hidden, so experiments can size the buffer honestly; the
//! supervised ingest sizes it to its input and so never drops.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

use aims_sensors::types::MultiStream;
use aims_telemetry::{counter, span};

/// The interrupt-to-storage handoff buffer.
type SharedQueue = Arc<Mutex<VecDeque<Vec<f64>>>>;

/// Recorder tuning.
#[derive(Clone, Copy, Debug)]
pub struct RecorderConfig {
    /// Capacity of the in-memory frame buffer (frames).
    pub buffer_frames: usize,
    /// How many frames the storage thread drains per wakeup.
    pub batch_size: usize,
    /// Simulated per-batch storage latency (microseconds); models the disk
    /// write the second thread performs.
    pub store_latency_us: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig { buffer_frames: 256, batch_size: 32, store_latency_us: 0 }
    }
}

/// Outcome of one recording run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecordingStats {
    /// Frames successfully handed to the storage thread.
    pub stored_frames: usize,
    /// Frames dropped: buffer overflow at interrupt time, plus (under
    /// supervised ingest) frames arriving too late for the reorder window.
    pub dropped_frames: usize,
    /// Batches the storage thread wrote.
    pub batches: usize,
    /// Samples the supervised ingest synthesized (gap repair after dropout
    /// or loss, spike replacement). Zero on the raw recorder path.
    pub repaired_samples: usize,
    /// Frames that arrived out of order and were put back in sequence by
    /// the reorder window. Zero on the raw recorder path.
    pub reordered_frames: usize,
    /// Duplicate deliveries suppressed. Zero on the raw recorder path.
    pub duplicate_frames: usize,
}

impl RecordingStats {
    /// Fraction of offered frames that were stored.
    pub fn delivery_ratio(&self) -> f64 {
        let total = self.stored_frames + self.dropped_frames;
        if total == 0 {
            1.0
        } else {
            self.stored_frames as f64 / total as f64
        }
    }
}

/// The double-buffered recorder.
#[derive(Clone, Debug, Default)]
pub struct DoubleBufferRecorder {
    config: RecorderConfig,
}

impl DoubleBufferRecorder {
    /// Creates a recorder with the given configuration.
    pub fn new(config: RecorderConfig) -> Self {
        DoubleBufferRecorder { config }
    }

    /// Plays back `source` as if its frames arrived from the device
    /// interrupt, records them through the two-thread pipeline, and returns
    /// the stored stream plus statistics.
    ///
    /// The producer simulates the interrupt handler: it offers each frame
    /// once and drops it if the buffer is full. The consumer drains batches
    /// and appends them to the stored stream (optionally sleeping to model
    /// storage latency), so the stored frames are a subsequence of the
    /// source in source order.
    pub fn record(&self, source: &MultiStream) -> (MultiStream, RecordingStats) {
        let _span = span!("acquisition.recorder.record");
        let queue: SharedQueue =
            Arc::new(Mutex::new(VecDeque::with_capacity(self.config.buffer_frames)));
        let done = Arc::new(AtomicBool::new(false));
        let spec = source.spec().clone();
        let batch_size = self.config.batch_size.max(1);
        let latency = self.config.store_latency_us;
        let capacity = self.config.buffer_frames.max(1);

        let (stored, batches, dropped) = thread::scope(|scope| {
            let consumer = {
                let queue = Arc::clone(&queue);
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let mut stored = MultiStream::new(spec);
                    let mut batches = 0usize;
                    let mut batch = 0usize;
                    loop {
                        let next = queue.lock().unwrap().pop_front();
                        match next {
                            Some(frame) => {
                                stored.push(&frame);
                                batch += 1;
                                if batch >= batch_size {
                                    batches += 1;
                                    batch = 0;
                                    if latency > 0 {
                                        thread::sleep(std::time::Duration::from_micros(latency));
                                    }
                                }
                            }
                            None => {
                                if done.load(Ordering::Acquire) && queue.lock().unwrap().is_empty()
                                {
                                    break;
                                }
                                thread::yield_now();
                            }
                        }
                    }
                    if batch > 0 {
                        batches += 1;
                    }
                    (stored, batches)
                })
            };

            let mut dropped = 0usize;
            for t in 0..source.len() {
                let mut q = queue.lock().unwrap();
                if q.len() >= capacity {
                    dropped += 1;
                    continue;
                }
                q.push_back(source.frame(t).to_vec());
            }
            done.store(true, Ordering::Release);
            let (stored, batches) = consumer.join().expect("storage thread panicked");
            (stored, batches, dropped)
        });
        let offered = source.len();

        let stats = RecordingStats {
            stored_frames: offered - dropped,
            dropped_frames: dropped,
            batches,
            ..RecordingStats::default()
        };
        counter!("acquisition.recorder.stored_frames").add(stats.stored_frames as u64);
        counter!("acquisition.recorder.dropped_frames").add(dropped as u64);
        counter!("acquisition.recorder.batches").add(batches as u64);
        debug_assert_eq!(stats.stored_frames, stored.len());
        (stored, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aims_sensors::types::StreamSpec;

    fn stream(frames: usize) -> MultiStream {
        let spec = StreamSpec::anonymous(3, 100.0);
        let channels: Vec<Vec<f64>> =
            (0..3).map(|c| (0..frames).map(|t| (t * 3 + c) as f64).collect()).collect();
        MultiStream::from_channels(spec, &channels)
    }

    #[test]
    fn records_everything_with_ample_buffer() {
        let src = stream(500);
        let rec = DoubleBufferRecorder::new(RecorderConfig {
            buffer_frames: 1024,
            batch_size: 64,
            store_latency_us: 0,
        });
        let (stored, stats) = rec.record(&src);
        assert_eq!(stats.dropped_frames, 0);
        assert_eq!(stats.stored_frames, 500);
        assert_eq!(stored, src);
        assert!(stats.batches >= 500 / 64);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }

    #[test]
    fn preserves_frame_order() {
        let src = stream(1000);
        // Buffer at least as large as the source: the interrupt thread can
        // then never overrun the storage thread, whatever the scheduling.
        let rec = DoubleBufferRecorder::new(RecorderConfig {
            buffer_frames: 1000,
            batch_size: 32,
            store_latency_us: 0,
        });
        let (stored, stats) = rec.record(&src);
        assert_eq!(stats.dropped_frames, 0);
        for t in 0..stored.len() {
            assert_eq!(stored.frame(t), src.frame(t), "frame {t}");
        }
    }

    #[test]
    fn slow_storage_with_tiny_buffer_drops_but_keeps_prefix_consistent() {
        let src = stream(2000);
        let rec = DoubleBufferRecorder::new(RecorderConfig {
            buffer_frames: 4,
            batch_size: 4,
            store_latency_us: 200,
        });
        let (stored, stats) = rec.record(&src);
        assert_eq!(stats.stored_frames + stats.dropped_frames, 2000);
        assert_eq!(stored.len(), stats.stored_frames);
        // Every stored frame is a genuine source frame (no tearing), and
        // they appear in increasing source order.
        let mut last_index = None;
        for t in 0..stored.len() {
            let val = stored.value(t, 0);
            let idx = (val / 3.0) as usize;
            assert_eq!(stored.frame(t), src.frame(idx), "torn frame at {t}");
            if let Some(prev) = last_index {
                assert!(idx > prev, "out-of-order frames");
            }
            last_index = Some(idx);
        }
    }

    #[test]
    fn empty_source_is_fine() {
        let src = MultiStream::new(StreamSpec::anonymous(2, 10.0));
        let (stored, stats) = DoubleBufferRecorder::default().record(&src);
        assert!(stored.is_empty());
        assert_eq!(stats.stored_frames, 0);
        assert_eq!(stats.delivery_ratio(), 1.0);
    }
}
