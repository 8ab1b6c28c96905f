//! Host-time attribution by layer for the traced run.
//!
//! [`LayerRecorder`] is handed to `Simulation::with_recorder`. It
//! stamps host time at every event the simulator emits and charges the
//! interval since the previous event to the layer of the event that
//! ends it. The interval before the first event, the tail after the
//! last one, and intervals that end in an event of no listed layer
//! (fault-injection events) are left to the caller's `unattributed`
//! residual, so the layers plus the residual sum exactly to the
//! event-loop time.

use std::time::{Duration, Instant};

use lapobs::{Event, Nanos, Recorder};

/// A simulator layer that host time is charged to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// simkit: event-queue and station (disk service) events.
    Simkit,
    /// coopcache: cache lookups, inserts, evictions, forwards.
    Coopcache,
    /// prefetch: walk lifecycle and issue events, which bracket the
    /// predictor calls made between them.
    Prefetch,
    /// lap-core: request completions and write-back.
    Core,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 4] = [
        Layer::Simkit,
        Layer::Coopcache,
        Layer::Prefetch,
        Layer::Core,
    ];

    /// The layer an event belongs to, or `None` for events no layer
    /// owns (fault injection and degraded-mode transitions).
    pub fn of(ev: &Event) -> Option<Layer> {
        Some(match ev {
            Event::QueuePush { .. }
            | Event::QueuePop { .. }
            | Event::ServiceBegin { .. }
            | Event::ServiceEnd { .. }
            | Event::Cancelled { .. }
            | Event::SimQueueDepth { .. }
            | Event::DiskService { .. }
            | Event::QueueReorder { .. } => Layer::Simkit,
            Event::CacheHitLocal { .. }
            | Event::CacheHitRemote { .. }
            | Event::CacheMiss { .. }
            | Event::CacheInsert { .. }
            | Event::CacheEvict { .. }
            | Event::CacheForward { .. }
            | Event::CacheForwardDrop { .. }
            | Event::CacheInvalidate { .. } => Layer::Coopcache,
            Event::WalkStart { .. }
            | Event::WalkRestart { .. }
            | Event::WalkStop { .. }
            | Event::Mispredict { .. }
            | Event::PrefetchIssue { .. }
            | Event::ExtentIssue { .. }
            | Event::PrefetchAbsorbed { .. } => Layer::Prefetch,
            Event::ReadDone { .. }
            | Event::WriteDone { .. }
            | Event::WriteBack { .. }
            | Event::SweepStart { .. } => Layer::Core,
            _ => return None,
        })
    }
}

/// Counts events by layer and charges host time between consecutive
/// events to the layer of the later one.
#[derive(Debug, Default)]
pub struct LayerRecorder {
    last: Option<Instant>,
    host: [Duration; 4],
    events: u64,
}

impl LayerRecorder {
    /// Host time charged to `layer`.
    pub fn host(&self, layer: Layer) -> Duration {
        self.host[layer as usize]
    }

    /// Every event recorded, of any layer.
    pub fn events(&self) -> u64 {
        self.events
    }
}

impl Recorder for LayerRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _t: Nanos, ev: Event) {
        let now = Instant::now();
        if let (Some(prev), Some(layer)) = (self.last, Layer::of(&ev)) {
            self.host[layer as usize] += now - prev;
        }
        self.last = Some(now);
        self.events += 1;
    }
}
