//! Reading the spans the program already records (`aircal_obs::span!`).

use aircal::obs::{trace, SpanRecord};

/// Spans closed while one closure ran with the global tracer on.
pub struct Spans(Vec<SpanRecord>);

impl Spans {
    /// Run `f` with tracing enabled and collect every span it closed.
    /// Spans left over from earlier work are discarded first.
    pub fn record<T>(f: impl FnOnce() -> T) -> (T, Spans) {
        trace::drain();
        trace::enable();
        let out = f();
        trace::disable();
        (out, Spans(trace::drain()))
    }

    /// Total wall seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRecord::wall_secs)
            .sum()
    }

    /// How many spans named `name` closed.
    pub fn count(&self, name: &str) -> u64 {
        self.0.iter().filter(|s| s.name == name).count() as u64
    }
}
